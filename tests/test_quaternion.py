import dataclasses

import pytest

import qsemi.quaternion
from qsemi import cli
from qsemi.errors import ClosureError, ConsistencyError
from qsemi.perms import compose, cycles, from_cycles, identity, inverse, power
from qsemi.quaternion import (QuaternionConfig, check_disjoi, check_other,
                              check_stabilizer_free, describe_elements,
                              format_label, generate_group, group_checks)
from conftest import CountingTuple
from reference_oracles import (factor_occurrences, label_mul, label_of_point,
                               point_of_label)

K2_T = (2, 3, 4, 1, 6, 7, 8, 5)
K2_U = (5, 8, 7, 6, 3, 2, 1, 4)


def test_config_validation():
    assert QuaternionConfig(2).n == 8
    assert QuaternionConfig(7).n == 28
    with pytest.raises(ValueError):
        QuaternionConfig(1)
    with pytest.raises(ValueError):
        QuaternionConfig(0)


def test_k2_generator_tables(g2):
    assert g2.t == K2_T
    assert g2.u == K2_U
    assert cycles(g2.t) == [(1, 2, 3, 4), (5, 6, 7, 8)]
    assert cycles(g2.u) == [(1, 5, 3, 7), (2, 8, 4, 6)]


def test_k3_spot_values(g3):
    assert g3.t[5] == 1
    assert g3.t[11] == 7
    assert cycles(g3.u) == [(1, 7, 4, 10), (2, 12, 5, 9), (3, 11, 6, 8)]


@pytest.mark.parametrize("k", range(2, 9))
def test_defining_relations(k):
    g = generate_group(QuaternionConfig(k))
    e = identity(g.n)
    assert power(g.t, 2 * k) == e
    assert power(g.u, 4) == e
    assert power(g.u, 2) == power(g.t, k)
    assert compose(inverse(g.u), compose(g.t, g.u)) == inverse(g.t)


@pytest.mark.parametrize("k", range(2, 9))
def test_group_checks(k):
    g = generate_group(QuaternionConfig(k))
    assert group_checks(g) == {"other": True, "disjoint_halves": True,
                               "stabilizer_free": True}
    assert len(g) == 4 * k
    assert len(set(g.elements)) == 4 * k
    assert cycles(g.u) and all(len(c) == 4 for c in cycles(g.u))


def test_table_matches_normal_form_products(g2, g3):
    # elements[labels[(i, j)]] must be the left action of t^i u^j, which the
    # label arithmetic reproduces point by point
    for g in (g2, g3):
        for (i, j), idx in g.labels.items():
            p = g.elements[idx]
            for point in range(1, g.n + 1):
                expect = point_of_label(
                    label_mul((i, j), label_of_point(point, g.k), g.k), g.k)
                assert p[point - 1] == expect


def test_label_mul_matches_composition(g2, g3):
    for g in (g2, g3):
        for a, ia in g.labels.items():
            for b, ib in g.labels.items():
                prod = g.elements[g.labels[label_mul(a, b, g.k)]]
                assert prod == compose(g.elements[ia], g.elements[ib])


def test_point_label_round_trip():
    for k in (2, 3, 5):
        for p in range(1, 4 * k + 1):
            assert point_of_label(label_of_point(p, k), k) == p
    with pytest.raises(ValueError):
        label_of_point(0, 2)
    with pytest.raises(ValueError):
        label_of_point(9, 2)


def test_format_label_and_names(g2):
    assert format_label((0, 0)) == "e"
    assert format_label((1, 0)) == "t"
    assert format_label((2, 0)) == "t^2"
    assert format_label((0, 1)) == "u"
    assert format_label((3, 1)) == "t^3 u"
    names = [g2.label_name(i) for i in range(len(g2))]
    assert names == ["e", "u", "t", "t u", "t^2", "t^2 u", "t^3", "t^3 u"]


def test_describe_elements(g2):
    rows = describe_elements(g2)
    assert len(rows) == 8
    assert rows[0] == {"index": 0, "label": "e", "cycles": "()",
                       "images": [1, 2, 3, 4, 5, 6, 7, 8]}
    t_row = rows[g2.labels[(1, 0)]]
    assert t_row["label"] == "t"
    assert t_row["images"] == list(K2_T)


def test_structure_checks_reject_mutants(cyclic8, poisoned8):
    assert check_disjoi(cyclic8) is False  # the 8-cycle straddles the halves
    assert check_stabilizer_free(cyclic8) is True  # still a regular action
    assert check_other(poisoned8) is False  # the transposition never crosses
    assert check_stabilizer_free(poisoned8) is False


def test_generate_group_detects_planted_generator(monkeypatch):
    monkeypatch.setattr(qsemi.quaternion, "build_u",
                        lambda cfg: from_cycles(cfg.n, [(1, 2)]))
    # past the per-config cache; the closure passes the 8 labelled elements
    with pytest.raises(ClosureError, match="exceeded 8 elements"):
        generate_group.__wrapped__(QuaternionConfig(2))


def test_generate_group_rejects_repeated_elements(monkeypatch):
    # u = 1 makes t^i u the same permutation as t^i
    monkeypatch.setattr(qsemi.quaternion, "build_u",
                        lambda cfg: identity(cfg.n))
    with pytest.raises(ClosureError,
                       match="expected 8 distinct elements, got 4"):
        generate_group.__wrapped__(QuaternionConfig(2))


def test_generate_group_checks_the_defining_relations(monkeypatch):
    # the flip of the dihedral group of order 8 gives 8 distinct elements
    # closed under composition, but it squares to 1, not to t^2
    monkeypatch.setattr(qsemi.quaternion, "build_u",
                        lambda cfg: (1, 4, 3, 2, 5, 8, 7, 6))
    with pytest.raises(ConsistencyError, match=r"u\^2 = t\^k"):
        generate_group.__wrapped__(QuaternionConfig(2))


def test_build_u_cross_check(monkeypatch):
    monkeypatch.setattr(qsemi.quaternion, "_u_from_cycle_form",
                        lambda cfg: identity(cfg.n))
    with pytest.raises(ConsistencyError):
        qsemi.quaternion.build_u(QuaternionConfig(2))


def test_generate_group_runs_the_fixed_point_check(monkeypatch):
    monkeypatch.setattr(qsemi.quaternion, "check_stabilizer_free",
                        lambda g: False)
    with pytest.raises(ConsistencyError, match="fixed point"):
        generate_group.__wrapped__(QuaternionConfig(2))


def test_generate_group_builds_one_table_per_k():
    for k in (2, 3, 8):
        assert generate_group(QuaternionConfig(k)) is generate_group(
            QuaternionConfig(k))


def test_repeated_cli_calls_build_the_table_once(monkeypatch, capsys):
    built = []

    def counting(cfg, orig=qsemi.quaternion.build_t):
        built.append(cfg.k)
        return orig(cfg)

    monkeypatch.setattr(qsemi.quaternion, "build_t", counting)
    generate_group.cache_clear()
    codes = [cli.main(["word-eq", "--k", "2", "5,8,7,6,3,2,1,4", w2])
             for w2 in ("1,2,3,4,5,6,7,8", "5,8,7,6,3,2,1,4",
                        "1,2,3,4,5,6,8,7")]
    assert codes == [0, 0, 1]
    assert capsys.readouterr().out.count("equal: ") == 3
    assert built == [2]


def test_windows_are_spelled_once():
    # max_overlap and every factor query, with and without a start, read
    # one spelling of the windows, made in one pass over the elements
    g = generate_group(QuaternionConfig(3))
    counted = dataclasses.replace(g, elements=CountingTuple(g.elements))
    CountingTuple.loops = 0
    assert counted.max_overlap == 1
    for e in g.elements:
        for p in range(1, g.n):
            for f, at in ((e[p - 1:p + 1], None), (e[p - 1:], p), (e[:p], 1)):
                assert (counted.occurrences(f, at)
                        == factor_occurrences(g, f, at)), (f, at)
    assert CountingTuple.loops == 1
