import itertools
import random
import time

import pytest

from conftest import bare_table, bench_module
from qsemi import lemmas
from qsemi.lemmas import (LemmaId, LemmaReport, _SYM_STEP3_REASONS,
                          _chain_tails, _step3_member_check, run_lemma_suite,
                          verify_big, verify_max_one, verify_not_possible,
                          verify_overlapp, verify_step3, verify_stepss,
                          verify_sym_max_one, verify_sym_not_possible,
                          verify_sym_overlapp, verify_sym_step3)
from qsemi.perms import compose
from qsemi.quaternion import (GroupTable, QuaternionConfig, generate_group,
                              relabellings, self_dual)
from qsemi.words import class_of, default_config, parse_word
from reference_oracles import (EXHAUSTIVE, collapse_canon, naive_class,
                               random_word, step3_tails, stepss,
                               ungraded_zero_divisor_search)

SUITE_ORDER = ["NotPossible", "MaxOne", "Big", "Overlapp", "Stepss", "Step3",
               "SymNotPossible", "SymMaxOne", "SymStep3", "SymOverlapp"]


def test_lemma_id_values():
    assert [m.value for m in LemmaId] == [
        "NotPossible", "MaxOne", "Big", "Overlapp", "Stepss", "Step3",
        "SymNotPossible", "SymMaxOne", "SymStep3", "SymOverlapp"]


def test_report_invariant():
    with pytest.raises(ValueError):
        LemmaReport(LemmaId.BIG, 2, True, counterexample={"i": 1})
    r = LemmaReport(LemmaId.BIG, 2, True, stats={"instances": 5})
    assert r.to_json() == {"lemma_id": "Big", "k": 2, "passed": True,
                           "counterexample": None, "stats": {"instances": 5}}


def test_full_suite_passes_k2(g2, cfg2):
    reports = run_lemma_suite(g2, cfg2)
    assert [r.lemma_id.value for r in reports] == SUITE_ORDER
    for r in reports:
        assert r.passed, r.to_json()
        assert r.counterexample is None
        assert r.k == 2


def test_exhaustive_stats_are_populated(g2):
    for oracle in EXHAUSTIVE:
        r = oracle(g2)
        assert r.passed
        assert r.stats["instances"] > 0
    assert verify_overlapp(g2).stats["unsatisfiable"] > 0
    assert verify_sym_overlapp(g2).stats["unsatisfiable"] > 0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stepss_exercises_all_three_conditions(k):
    # the counts are exact: every ordered pair of every class, as the
    # brute-force reference counts them
    g = generate_group(QuaternionConfig(k))
    cfg = default_config(g.n)
    r = verify_stepss(g, cfg)
    assert r.passed
    both, first_only, second_only = r.stats["condition_counts"]
    assert both > 0 and first_only > 0 and second_only > 0
    assert stepss(g, cfg) == (
        True, r.stats["pairs"], r.stats["condition_counts"], None)
    # t0's window and its one chain, each class counting for its orbit
    assert r.stats["classes"] == 2 * len(g)


def test_stepss_seed_words_cover_chained_windows(g2):
    # each letter starts one window, so each window t chains onto exactly
    # one: t v holds two windows that share letter n
    n = g2.n
    for t in g2.elements:
        tails = _chain_tails(g2, t)
        assert [len(v) for v in tails] == [n - 1]
        chain = t + tails[0]
        assert chain[:n] in g2.index and chain[n - 1:] in g2.index


def test_step3_enumerates_nontrivial_classes(g2, cfg2):
    # all 56 cells hold one tail each; t0's 7 cells enumerate 7 classes of
    # 8 words, each cell standing for its orbit of 8
    r = verify_step3(g2, cfg2)
    assert r.passed
    assert r.stats == {"family": 56, "covered": 56, "members_checked": 56}
    # Step3 on the mirrored table covers what the hand-written mirror would
    r = verify_sym_step3(g2, cfg2)
    assert r.passed
    assert r.stats == {"family": 56, "covered": 56, "members_checked": 56}


@pytest.mark.parametrize("k, max_tail, outside, inside",
                         [(2, 4, 262136, 952), (3, 2, 20724, 3300)])
def test_step3_tail_family_is_exact(k, max_tail, outside, inside):
    # over every cell, each short tail outside the reference's wide radius
    # leaves the seed alone in its class, and each tail inside it gives a
    # larger class: the radius holds every short tail that can rewrite
    g = generate_group(QuaternionConfig(k))
    cfg, n = default_config(g.n), g.n
    short = [v for m in range(max_tail + 1)
             for v in itertools.product(range(1, n + 1), repeat=m)]
    counts = [0, 0]
    for t in g.elements:
        family = step3_tails(g, t, wide=True)
        assert len(family) == 2 * n + 1
        for i in range(1, n):
            for v in [v for v in short if v not in family] + family:
                size = len(class_of(t[i:] + v, g, cfg).members)
                assert (size > 1) == (v in family), (t, i, v)
                counts[size > 1] += 1
    assert counts == [outside, inside]


@pytest.mark.parametrize("k", range(2, 9))
def test_each_step3_cell_holds_one_chain_tail(k):
    # each letter starts one window, so each cell (t, i) holds the one tail
    # f(2..n), f the window that starts with t(n); every cell is decided
    g = generate_group(QuaternionConfig(k))
    n = g.n
    for t in g.elements:
        (f,) = g.starting[t[-1]]
        assert _chain_tails(g, t) == [f[1:]]
    for verify in (verify_step3, verify_sym_step3):
        r = verify(g, default_config(n))
        assert r.passed
        assert r.stats == {"family": n * (n - 1), "covered": n * (n - 1),
                           "members_checked": n * (n - 1)}


def test_sampled_coverage_at_k8():
    # the classes the k=8 suite enumerates, pinned: a faster class closure
    # must visit the same members
    g = generate_group(QuaternionConfig(8))
    reports = run_lemma_suite(g, default_config(g.n))
    stats = {r.lemma_id.value: r.stats for r in reports}
    assert stats["Stepss"] == {"classes": 64, "pairs": 124992,
                               "condition_counts": [63488, 30752, 30752]}
    assert stats["Step3"] == {"family": 992, "covered": 992,
                              "members_checked": 992}
    assert stats["SymStep3"] == {"family": 992, "covered": 992,
                                 "members_checked": 992}


def test_lemma_suite_at_k16_passes_in_under_two_seconds():
    # a scale guard: the suite takes about 0.05 s here, so only a family
    # that grows with n again, not a slow host, crosses 2 s
    g = generate_group(QuaternionConfig(16))
    start = time.perf_counter()
    reports = run_lemma_suite(g, default_config(g.n))
    elapsed = time.perf_counter() - start
    assert all(r.passed for r in reports)
    assert elapsed < 2.0


@pytest.mark.parametrize("k", [2, 3, 8])
def test_exhaustive_oracles_query_t0s_rows_alone(k, monkeypatch):
    # a relabelling keeps each row's number of queries, so deciding t0's
    # rows alone makes exactly 1/n of the full scan's occurrences calls
    g = generate_group(QuaternionConfig(k))
    calls = []
    occurrences = GroupTable.occurrences
    monkeypatch.setattr(GroupTable, "occurrences",
                        lambda *a: calls.append(1) or occurrences(*a))

    def count(oracle):
        calls.clear()
        assert oracle(g).passed
        return len(calls)

    forward = (verify_not_possible, verify_max_one, verify_big,
               verify_overlapp)
    cut = [count(oracle) for oracle in forward]
    assert all(cut)
    monkeypatch.setattr(lemmas, "relabellings", lambda g: None)
    assert [count(oracle) for oracle in forward] == [g.n * c for c in cut]


def test_symmetric_analogs_order_and_pass(g3, cfg3):
    reports = run_lemma_suite(g3, cfg3)[6:]
    assert [r.lemma_id for r in reports] == [
        LemmaId.SYM_NOT_POSSIBLE, LemmaId.SYM_MAX_ONE, LemmaId.SYM_STEP3,
        LemmaId.SYM_OVERLAPP]
    assert all(r.passed for r in reports)


def test_exhaustive_suite_passes_k3(g3):
    assert all(oracle(g3).passed for oracle in EXHAUSTIVE)


# --- planted violations: a wrong table must be caught, not waved through ---


def test_cyclic_table_breaks_window_lemmas(cyclic8):
    r = verify_not_possible(cyclic8)
    assert not r.passed
    assert set(r.counterexample) == {"sigma", "tau", "p", "q", "pair"}
    assert r.counterexample["sigma"].startswith("#")  # unlabelled table
    assert not verify_max_one(cyclic8).passed
    assert not verify_big(cyclic8).passed
    assert not verify_sym_not_possible(cyclic8).passed
    assert not verify_sym_max_one(cyclic8).passed


def test_cyclic_table_still_satisfies_overlapp(cyclic8):
    # rotations chain head to tail, so the mixed-word overlap statement
    # survives; the planted table must be caught by the other oracles
    assert verify_overlapp(cyclic8).passed
    assert verify_sym_overlapp(cyclic8).passed


def test_cyclic_table_breaks_stepss(cyclic8, cfg2):
    r = verify_stepss(cyclic8, cfg2)
    assert not r.passed
    assert r.counterexample["reason"] == "first n-1 letters are not a window prefix"


@pytest.mark.parametrize("table", ["cyclic8", "dihedral8", "poisoned8",
                                   "two_element8"])
def test_planted_tables_get_the_chain_family_verdicts(request, table, cfg2):
    # every planted table but two_element8 breaks Stepss, Step3 and
    # SymStep3, each in one run with a counterexample whose words the
    # brute-force closure puts in one class; on two_element8 no window
    # chains onto another, so Step3's family is empty
    g = request.getfixturevalue(table)
    fails = table != "two_element8"
    r = verify_stepss(g, cfg2)
    assert r.passed is not fails
    if fails:
        w1, w2 = (parse_word(r.counterexample[w], g.n) for w in ("w1", "w2"))
        assert w1[0] != w2[0] and w2 in naive_class(w1, g)
    for verify in (verify_step3, verify_sym_step3):
        r = verify(g, cfg2)
        assert r.passed is not fails, verify.__name__
        if fails:
            c = r.counterexample
            assert "reason" in c
            assert (parse_word(c["w1"], g.n)
                    in naive_class(parse_word(c["seed"], g.n), g))
        else:
            assert r.stats == {"family": 0, "covered": 0,
                               "members_checked": 0}


def test_step3_member_check_gives_each_reason(g2):
    # t = identity, i = 2: a member starts 3..8, or 3..7 then a window prefix
    t, head = tuple(range(1, 9)), (3, 4, 5, 6, 7)
    cases = {head + (8, 1, 1): None, head + g2.t[:7]: None,
             (1,) * 12: "prefix leaves t(i+1..n-1) before letter n",
             head + (1, 1, 1): "too short for the alternative prefix shape",
             head + (1,) * 7: "no window prefix after t(i+1..n-1)"}
    for w1, reason in cases.items():
        assert _step3_member_check(g2, t, 2, w1) == reason
    assert set(_SYM_STEP3_REASONS) == set(cases.values()) - {None}


def test_relabelling_needs_permutations(g2, cyclic8, dihedral8, poisoned8,
                                        two_element8):
    # on the real table t0 is the identity, so the relabellings are the
    # elements themselves
    assert relabellings(g2) == g2.elements
    assert relabellings(g2) is relabellings(g2)  # cached per table
    repeated = bare_table(2, [tuple(range(1, 9)), (1, 1, 2, 3, 4, 5, 6, 7)])
    assert relabellings(repeated) is None
    assert relabellings(poisoned8) is None
    for g in (cyclic8, dihedral8, two_element8):
        pis = relabellings(g)
        assert len(pis) == len(g)
        assert {compose(pi, g.elements[0]) for pi in pis} == set(g.elements)


def test_self_dual_truth_table(cyclic8, dihedral8, poisoned8, two_element8):
    # delta (reverse, then x -> n+1-x) maps windows to windows exactly when
    # the mirrored table is the table relabelled by x -> n+1-x
    tables = [generate_group(QuaternionConfig(k)) for k in (2, 3, 4, 5, 8, 16)]
    planted = [cyclic8, dihedral8, poisoned8, two_element8]
    assert [self_dual(g) for g in tables + planted] == [True] * 8 + [False] * 2
    for g in tables + planted:
        mirrored = {e[::-1] for e in g.elements}
        relabelled = {tuple(g.n + 1 - x for x in e) for e in g.elements}
        assert (mirrored == relabelled) == self_dual(g)


def test_mirror_runs_reuse_one_mirrored_table(poisoned8, cfg2):
    # poisoned8 is not self-dual, so SymStep3 runs Step3 on the mirror; its
    # derived facts are cached once, not once per run
    assert poisoned8.mirrored is poisoned8.mirrored
    assert poisoned8.mirrored.elements == tuple(
        e[::-1] for e in poisoned8.elements)
    sizes = []
    for _ in range(3):
        verify_sym_step3(poisoned8, cfg2)
        sizes.append(relabellings.cache_info().currsize)
    assert sizes[0] == sizes[1] == sizes[2]


def test_dihedral_table_breaks_window_lemmas(dihedral8):
    assert not verify_not_possible(dihedral8).passed
    assert not verify_big(dihedral8).passed
    assert not verify_max_one(dihedral8).passed


def test_poisoned_table_breaks_overlapp(poisoned8):
    r = verify_overlapp(poisoned8)
    assert not r.passed
    assert set(r.counterexample) == {"sigma", "tau", "lambda", "j", "l", "m",
                                     "i", "word"}
    assert not verify_sym_overlapp(poisoned8).passed
    assert not verify_big(poisoned8).passed
    assert not verify_max_one(poisoned8).passed


def _traced_suite(g, cfg):
    """Span calls by name, and the sorted names of the spans called
    directly by the suite, for one traced `run_lemma_suite` on g."""
    from qsemi import cli
    spans = bench_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli.run_lemma_suite(g, cfg)
    finally:
        tracer.uninstall()
    calls = {name: row["calls"]
             for name, row in tracer.aggregate()["spans"].items()}
    names = list(tracer._name_ids)
    suite = {i for i, name in enumerate(tracer.span_name)
             if names[name] == "lemmas.run_lemma_suite"}
    called = sorted(names[tracer.span_name[i]]
                    for i, parent in enumerate(tracer.span_parent)
                    if parent in suite)
    return calls, called


def test_traced_suite_reaches_every_forward_oracle(g2, cfg2):
    # the benchmark's traced run wraps oracles and class_of by module
    # attribute; the suite must keep those names and call each oracle
    # through them.  g2 is self-dual, so every Sym* report is carried over
    # and no Sym* oracle runs.
    spans = bench_module("spans")
    calls, called = _traced_suite(g2, cfg2)
    oracles = spans.EXHAUSTIVE_ORACLES + spans.SAMPLED_ORACLES
    forward = [f for f in oracles if not f.startswith("verify_sym_")]
    assert len(forward) == 6
    assert called == sorted(f"lemmas.{f}" for f in forward)
    assert all(calls[f"lemmas.{f}"] == 0 for f in oracles if f not in forward)
    assert calls["words.class_of"] > 0


def test_traced_suite_reaches_every_oracle(g2, cfg2, monkeypatch):
    # with duality off every Sym* oracle runs too, each through its module
    # attribute (the Sym* oracles reaching a forward one do not count)
    spans = bench_module("spans")
    monkeypatch.setattr(lemmas, "self_dual", lambda g: False)
    calls, called = _traced_suite(g2, cfg2)
    assert all(calls[name] > 0 for name in calls
               if name.startswith("lemmas.") or name == "words.class_of"), calls
    assert called == sorted(f"lemmas.{f}" for f in
                            spans.EXHAUSTIVE_ORACLES + spans.SAMPLED_ORACLES)


def test_traced_layers_outside_lemmas_are_reached(g2, cfg2):
    # the benchmark's traced run also wraps cli, structure, algebra and words
    # functions and both canonicalizer factories by module attribute; each
    # name must exist and be called through it.  zero-divisor certifies
    # every trial by grading, so the ungraded control search reaches
    # algebra.mul_with_canon.
    from qsemi import cli, quaternion, structure
    spans = bench_module("spans")
    word = ",".join(map(str, g2.elements[1]))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["word-eq", "--k", "2", word, "1,2,3,4,5,6,7,8"]) == 0
        assert cli.main(["cancel-sample", "--k", "2", "--trials", "20"]) == 0
        assert cli.main(["zero-divisor", "--k", "2", "--trials", "5"]) == 0
        control = ungraded_zero_divisor_search(
            collapse_canon, lambda r: random_word(r, 2, r.randint(1, 2)),
            p=2, trials=5, max_support=3, rng=random.Random(0))
        assert control.multiplied > 0
        g = quaternion.generate_group(QuaternionConfig(2))
        before = tracer.canon_calls
        halves = sorted({e[:4] for e in g.elements})[:4]
        structure.run_tup_sweep(g, cfg2, halves, 2)
        swept = tracer.canon_calls - before
    finally:
        tracer.uninstall()
    result = tracer.aggregate()
    calls = {name: row["calls"] for name, row in result["spans"].items()}
    assert all(calls[name] > 0 for name in calls
               if not name.startswith("lemmas.")), calls
    assert result["counters"]["canon_calls"] > 0
    assert result["counters"]["canon_misses"] > 0
    assert swept > 0
