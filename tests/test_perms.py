import random

import pytest

from qsemi.perms import (compose, cycle_string, cycles, from_cycles, identity,
                         inverse, power)


def test_identity_and_apply():
    e = identity(4)
    assert e == (1, 2, 3, 4)
    assert e[3 - 1] == 3


def test_compose_applies_right_factor_first():
    p = from_cycles(3, [(1, 2)])
    q = from_cycles(3, [(2, 3)])
    assert compose(p, q)[2 - 1] == 3  # q: 2 -> 3, then p fixes 3
    assert compose(q, p)[2 - 1] == 1


def test_inverse_and_power():
    rng = random.Random(0)
    for _ in range(25):
        imgs = list(range(1, 9))
        rng.shuffle(imgs)
        p = tuple(imgs)
        assert compose(p, inverse(p)) == identity(8)
        assert compose(inverse(p), p) == identity(8)
        assert power(p, 0) == identity(8)
        assert power(p, -2) == inverse(power(p, 2))
        q = identity(8)
        for e in range(1, 6):
            q = compose(p, q)
            assert power(p, e) == q


def test_from_cycles():
    assert from_cycles(4, [(1, 2, 3)]) == (2, 3, 1, 4)
    assert from_cycles(3, []) == (1, 2, 3)
    with pytest.raises(ValueError):
        from_cycles(4, [(1, 5)])
    with pytest.raises(ValueError):
        from_cycles(4, [(1, 2), (2, 3)])


def test_cycles_round_trip():
    p = from_cycles(8, [(1, 3, 5), (2, 4)])
    assert cycles(p) == [(1, 3, 5), (2, 4)]
    assert from_cycles(8, cycles(p)) == p
    assert cycles(identity(5)) == []


def test_cycle_string():
    assert cycle_string(identity(3)) == "()"
    assert cycle_string(from_cycles(5, [(1, 3, 5), (2, 4)])) == "(1 3 5)(2 4)"
