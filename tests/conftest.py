import importlib.util
from pathlib import Path

import pytest

from qsemi.perms import compose, from_cycles, identity
from qsemi.quaternion import GroupTable, QuaternionConfig, generate_group
from qsemi.words import default_config


@pytest.fixture(scope="session")
def g2():
    return generate_group(QuaternionConfig(2))


@pytest.fixture(scope="session")
def g3():
    return generate_group(QuaternionConfig(3))


@pytest.fixture(scope="session")
def cfg2(g2):
    return default_config(g2.n)


@pytest.fixture(scope="session")
def cfg3(g3):
    return default_config(g3.n)


def quiet(done):
    """A progress callback that reports nothing."""


def bench_module(name):
    """A module of the benchmark harness (`bench/<name>.py`), loaded from
    its file without touching it."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"qsemi_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class CountingTuple(tuple):
    """A tuple that counts the loops run over it."""

    loops = 0

    def __iter__(self):
        CountingTuple.loops += 1
        return super().__iter__()


def bare_table(k, perms, t=None, u=None):
    """Table stub for planted-violation tests: arbitrary perms, no labels."""
    elements = tuple(perms)
    return GroupTable(k=k, n=4 * k, elements=elements, labels={},
                      t=t if t is not None else elements[0],
                      u=u if u is not None else elements[-1])


@pytest.fixture(scope="session")
def cyclic8():
    """Regular representation of the cyclic group of order 8."""
    n = 8
    s = tuple(range(2, n + 1)) + (1,)
    els, cur = [], identity(n)
    for _ in range(n):
        els.append(cur)
        cur = compose(s, cur)
    return bare_table(2, els, t=s, u=s)


@pytest.fixture(scope="session")
def dihedral8():
    """Regular representation of the dihedral group of order 8, generated by
    the square of the 8-cycle and the order-reversing flip."""
    n = 8
    s = tuple(range(2, n + 1)) + (1,)
    s2 = compose(s, s)
    flip = tuple(range(n, 0, -1))
    seen = {identity(n)}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for a in frontier:
            for b in (s2, flip):
                c = compose(b, a)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    assert len(seen) == n
    return bare_table(2, sorted(seen), t=s2, u=flip)


@pytest.fixture(scope="session")
def poisoned8(g2):
    """The real k=2 table with u's image tuple replaced by a transposition."""
    els = list(g2.elements)
    swap = from_cycles(g2.n, [(1, 2)])
    els[g2.index[g2.u]] = swap
    return bare_table(2, els, t=g2.t, u=swap)


@pytest.fixture(scope="session")
def two_element8():
    """Tiny non-cancellative table: the identity and one transposition."""
    n = 8
    return bare_table(2, [identity(n), from_cycles(n, [(1, 2)])])
