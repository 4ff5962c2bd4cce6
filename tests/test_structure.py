import itertools
import random
import tracemalloc
from math import comb

import pytest

from conftest import quiet
from qsemi import structure, words
from qsemi.quaternion import QuaternionConfig, generate_group, relabellings
from qsemi.structure import (canonical_ground_set, cancellation_report,
                             product_report, run_tup_sweep, subset_specs_over,
                             subsets_colex)
from qsemi.words import (canonical_form, canonicalizer, class_of,
                         default_config, words_equal)
import reference_oracles
from reference_oracles import (randint_seeded_word, seeded_word, tup_sweep,
                               unique_product_count)

# both halves of the identity window against both halves shifted by one
C_HALVES = ((1, 2, 3, 4), (2, 3, 4, 1))
D_HALVES = ((5, 6, 7, 8), (6, 7, 8, 5))


def _halves(g):
    h = g.n // 2
    return sorted({e[:h] for e in g.elements} | {e[h:] for e in g.elements})


def _interned(reps, canon):
    """The table `run_tup_sweep` builds: product[i][j] is the id of the
    canonical form of reps[i] + reps[j], ids in order of first appearance."""
    ids = {}
    return [[ids.setdefault(canon(c + d), len(ids)) for d in reps]
            for c in reps]


def _report(C, D, product):
    """product_report's count for the partner D of the side C: the last
    count of a walk that ends on D in the colex order of every side up to
    D's size."""
    D = tuple(sorted(D))
    sides = list(subsets_colex(len(product[0]), len(D)))
    return product_report(C, product, 1, sides.index(D) + 1)[-1]


def _partners(m, max_size, first):
    """The partners of a side C as `subset_specs_over` gives them: every
    side over range(m) of size `first` or more, in colex order."""
    return [D for D in subsets_colex(m, max_size) if len(D) >= first]


def _repeats(C, product):
    """Whether two members of C hit one id in some column (c1 d = c2 d)."""
    return any(len(set(column)) < len(C)
               for column in zip(*(product[c] for c in C)))


def test_product_report_hand_example(g2, cfg2):
    canon = canonicalizer(g2, cfg2)
    # shorter than n: canonical
    reps = C_HALVES + D_HALVES
    C, D = (0, 1), (2, 3)
    product = _interned(reps, canon)
    assert _report(C, D, product) == 2
    # (1,2,3,4)+(5,6,7,8) spells the identity window and (2,3,4,1)+(6,7,8,5)
    # spells t, so those two products merge; the cross products stay apart
    assert canon(reps[0] + reps[2]) == tuple(range(1, 9))
    assert product[0][2] == product[1][3]
    assert len({product[c][d] for c in C for d in D}) == 3
    # an id met three times is no more unique than one met twice
    assert _report((0, 1), (0, 1), [[0, 0], [0, 1]]) == 1
    assert _report((0, 1, 2), (0,), [[5], [6], [7]]) == 3
    # a repeat inside one column (c1 d = c2 d) is seen without a second
    # column: C = (0, 1) hits id 3 twice at d = 0
    assert _report((0, 1), (0,), [[3, 1], [3, 2]]) == 0
    assert _report((0, 1), (0, 1), [[3, 1], [3, 2]]) == 2


def test_product_report_agrees_with_pairwise_equality(g2, cfg2):
    rng = random.Random(5)
    canon = canonicalizer(g2, cfg2)
    for _ in range(5):
        # words shorter than n are their own canonical forms
        C = tuple({seeded_word(rng, g2, rng.randint(1, 5)) for _ in range(2)})
        D = tuple({seeded_word(rng, g2, rng.randint(1, 5)) for _ in range(2)})
        raw = [c + d for c in C for d in D]
        unique = sum(
            1 for w in raw
            if sum(words_equal(w, v, g2, cfg2) for v in raw) == 1)
        reps = sorted(set(C) | set(D))
        product = _interned(reps, canon)
        assert _report(tuple(map(reps.index, C)), tuple(map(reps.index, D)),
                       product) == unique


def _all_pairs_agree(product, max_size):
    """The bitmask count equals the set count on every subset pair over
    the rows of `product`; returns the number of pairs compared and the
    number of sides C with a repeat inside some column."""
    pairs = repeats = 0
    for C, first in subset_specs_over(product, max_size):
        Ds = _partners(len(product), max_size, first)
        repeats += _repeats(C, product)
        assert product_report(C, product, first, len(Ds)) == [
            unique_product_count(C, D, product) for D in Ds], C
        pairs += len(Ds)
    return pairs, repeats


def test_product_report_matches_the_set_count_on_every_decided_pair(
        g2, cfg2, monkeypatch):
    # the sweep counts all of a side C's partners in one call
    report, counts = structure.product_report, []
    partners = {first: _partners(16, 3, first) for first in (1, 2)}

    def checked(C, product, first, take):
        unique = report(C, product, first, take)
        assert unique == [unique_product_count(C, D, product)
                          for D in partners[first][:take]], C
        counts.extend(unique)
        return unique

    monkeypatch.setattr(structure, "product_report", checked)
    summary, failure = run_tup_sweep(g2, cfg2, _halves(g2), 3)
    assert failure is None and summary["products"] == 249
    assert len(counts) == summary["specs_decided"] == 61216
    assert min(counts) == 2


@pytest.mark.parametrize("table, max_size, pairs, repeats", [
    # both tables hold the identity and the transposition of 1 and 2, so
    # 1,2,3,4 + 5,6,7,8 and 2,1,3,4 + 5,6,7,8 merge: a repeat inside the
    # column of 5,6,7,8 for each side C holding both first halves
    ("poisoned8", 2, 120 * 120 - 15 * 15, 1),  # 15 halves
    ("two_element8", 3, 7 * 7 - 3 * 3, 2)])  # 3 halves
def test_product_report_matches_the_set_count_on_planted_halves(
        table, max_size, pairs, repeats, cfg2, request):
    g = request.getfixturevalue(table)
    product = _interned(_halves(g), canonicalizer(g, cfg2))
    assert _all_pairs_agree(product, max_size) == (pairs, repeats)


def test_product_report_matches_the_set_count_with_in_column_repeats():
    # few ids for many cells, so columns repeat ids and D's columns overlap
    rng = random.Random(11)
    for rows, cols, ids in ((4, 4, 3), (5, 3, 4), (6, 6, 8), (3, 7, 2)):
        product = [[rng.randrange(ids) for _ in range(cols)]
                   for _ in range(rows)]
        assert any(len(set(column)) < rows for column in zip(*product))
        sides = [s for n in range(1, 4)
                 for s in itertools.combinations(range(rows), n)]
        partners = list(subsets_colex(cols, 3))
        for C in sides:
            assert product_report(C, product, 1, len(partners)) == [
                unique_product_count(C, D, product) for D in partners], C


@pytest.mark.parametrize("max_size", [2, 3, 4])
def test_product_report_matches_the_set_count_at_every_cut(max_size):
    # every take from 0 to all partners: 1, each block boundary and each
    # point inside a top-run among them, over all sides (first = 1) and over
    # the wider ones a singleton C meets (first = 2), on a table whose
    # columns repeat ids
    rng = random.Random(max_size)
    m = 7
    product = [[rng.randrange(9) for _ in range(m)] for _ in range(m)]
    repeats = 0
    for C in list(subsets_colex(m, max_size))[::4]:
        repeats += _repeats(C, product)
        for first in (1, 2):
            Ds = _partners(m, max_size, first)
            want = [unique_product_count(C, D, product) for D in Ds]
            for take in range(len(Ds) + 1):
                assert product_report(C, product, first, take) == want[:take], (
                    C, first, take)
    assert repeats > 0


def test_product_report_rejects_more_partners_than_there_are_sides():
    # four columns have 15 sides, 11 of them wider than one: a walk past
    # the last would look for a side of a size that has none
    product = [[4 * i + j for j in range(4)] for i in range(4)]
    assert product_report((0, 1), product, 1, 0) == []
    for first, sides in ((1, 15), (2, 11), (4, 1)):
        counts = product_report((0, 1), product, first, sides)
        assert counts == [unique_product_count((0, 1), D, product)
                          for D in _partners(4, 4, first)]
        with pytest.raises(ValueError, match="partners from size"):
            product_report((0, 1), product, first, sides + 1)
    # no side of five members over four columns
    with pytest.raises(ValueError, match="partners from size"):
        product_report((0, 1), product, 5, 1)


@pytest.mark.parametrize("C", [(0,), (0, 1)])
def test_product_report_grows_only_the_parents_its_cut_needs(C):
    # 400 columns of distinct ids, cut 10 sides into size 3: the walk keeps
    # the counts and the parents of those 10 sides, not the 79,800 pairs
    # (a walk that grows every pair peaks at 11-15 MB)
    m, first = 400, 1 if len(C) > 1 else 2
    product = [[m * c + d for d in range(m)] for c in C]
    take = sum(comb(m, s) for s in range(first, 3)) + 10
    tracemalloc.start()
    try:
        counts = product_report(C, product, first, take)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak
    assert len(counts) == take
    sampled = {*range(5), *range(0, take, 997), *range(take - 15, take)}
    partners = itertools.islice(subsets_colex(m, 3), (first - 1) * m, None)
    for i, D in enumerate(itertools.islice(partners, take)):
        if i in sampled:
            assert counts[i] == unique_product_count(C, D, product), (i, D)


def test_subsets_colex():
    got = list(subsets_colex(5, 2))
    assert len(got) == 15
    assert got[:5] == [(0,), (1,), (2,), (3,), (4,)]
    assert got[5:9] == [(0, 1), (0, 2), (1, 2), (0, 3)]
    assert all(len(set(s)) == len(s) for s in got)
    # colex: by size, then by largest member, then by the next largest, ...
    triples = list(subsets_colex(6, 3))[6 + 15:]
    assert triples[:5] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4)]
    assert len(triples) == 20 and triples[-1] == (3, 4, 5)
    # the definition: each size in turn, sorted by the reversed tuple
    for m in (1, 2, 5, 16, 30):
        for max_size in (1, 2, 3):
            want = [s for size in range(1, max_size + 1)
                    for s in sorted(itertools.combinations(range(m), size),
                                    key=lambda s: s[::-1])]
            assert list(subsets_colex(m, max_size)) == want
    # the walk of `product_report`: the side of size s at position i of the
    # run with top t is the i-th side of size s - 1 plus t, i < C(t, s - 1)
    m = 9
    got = list(subsets_colex(m, 4))
    blocks = [[()]] + [[side for side in got if len(side) == s]
                       for s in range(1, 5)]
    for s in range(1, 5):
        assert blocks[s] == [blocks[s - 1][i] + (t,) for t in range(m)
                             for i in range(comb(t, s - 1))]


def test_subset_specs_over_counts():
    reps = [(1,), (2,), (3,), (4,)]
    groups = list(subset_specs_over(reps, 2))
    # a singleton's partners are the wider sides, a pair's every side
    assert groups[:5] == [((0,), 2), ((1,), 2), ((2,), 2), ((3,), 2),
                          ((0, 1), 1)]
    specs = [(C, D) for C, first in groups for D in _partners(4, 2, first)]
    # 10 subsets a side, minus the 16 pairs of two singletons
    assert len(specs) == 10 * 10 - 4 * 4
    # sides are index tuples into reps
    assert specs[0] == ((0,), (0, 1))
    assert all(len(C) + len(D) > 2 for C, D in specs)
    assert {i for C, D in specs for i in C + D} == {0, 1, 2, 3}
    # singletons alone have no partners: no group
    assert list(subset_specs_over(reps, 1)) == []
    assert list(subset_specs_over(reps[:1], 3)) == []


def test_canonical_ground_set(g2, cfg2):
    reps = canonical_ground_set(g2, cfg2, 1)
    assert reps == [()] + [(i,) for i in range(1, 9)]
    assert len(canonical_ground_set(g2, cfg2, 2)) == 1 + 8 + 64


def test_run_tup_sweep_summary(g2, cfg2):
    reps = canonical_ground_set(g2, cfg2, 1)
    summary, failure = run_tup_sweep(g2, cfg2, reps, 2, limit=500)
    assert failure is None
    assert summary["k"] == 2
    assert summary["max_len"] == 1
    assert summary["max_size"] == 2
    assert summary["specs_checked"] == 500
    assert summary["capped"] is True
    assert summary["min_unique_count"] >= 2
    assert summary["elapsed_ms"] >= 0


def test_run_tup_sweep_says_when_the_limit_cut_it_short(g2, cfg2):
    reps = canonical_ground_set(g2, cfg2, 1)
    total = 45 * 45 - 9 * 9  # nine reps: 45 subsets a side, minus 1 x 1
    for limit, capped in ((500, True), (total - 1, True), (total, False),
                          (None, False)):
        summary, failure = run_tup_sweep(g2, cfg2, reps, 2, limit=limit)
        assert failure is None
        assert summary["capped"] is capped
        assert summary["specs_checked"] == min(limit or total, total)


def test_run_tup_sweep_detects_planted_failure(two_element8, cfg2):
    reps = [(1, 2), (2, 1), (3, 4, 5, 6, 7, 8)]
    summary, failure = run_tup_sweep(two_element8, cfg2, reps, 3)
    assert failure is not None
    assert failure["C"] == ["1,2", "2,1"]
    assert failure["D"] == ["3,4,5,6,7,8"]
    assert failure["unique_count"] == 0
    assert summary["specs_checked"] == failure["spec_index"] + 1
    assert summary["min_unique_count"] == 0
    assert summary["capped"] is False  # stopped by the failure, not a cap


def test_run_tup_sweep_canonicalizes_each_product_once(g2, cfg2,
                                                      monkeypatch):
    calls = []

    def counting(w, g, cfg):
        calls.append(w)
        return canonical_form(w, g, cfg)

    monkeypatch.setattr(words, "canonical_form", counting)
    halves = sorted({e[:4] for e in g2.elements} | {e[4:] for e in g2.elements})
    summary, failure = run_tup_sweep(g2, cfg2, halves, 2, limit=1000)
    assert failure is None and summary["specs_checked"] == 1000
    # each rep checked once, then the 16 x 16 product table
    assert len(calls) == 16 + 16 * 16 == 272


def test_run_tup_sweep_counts_the_specs_it_is_given(g2, cfg2, monkeypatch):
    # the benchmark's self-test drops the last group of specs through this
    # module attribute, with this fake: the sweep must return normally,
    # short by that group's partners, not crash.  The last C is a pair with
    # 45 partners over the letters, and (13, 14, 15) with 16 + 120 + 560
    # over the halves the benchmark sweeps
    def skip_last(orig):
        return lambda reps, max_size: list(orig(reps, max_size))[:-1]

    every = structure.subset_specs_over
    for reps, max_size, specs, last in (
            (canonical_ground_set(g2, cfg2, 1), 2, 1944, 45),
            (_halves(g2), 3, 484160, 696)):
        summary, _ = run_tup_sweep(g2, cfg2, reps, max_size)
        assert summary["specs_checked"] == specs
        with monkeypatch.context() as m:
            m.setattr(structure, "subset_specs_over", skip_last(every))
            fewer, failure = run_tup_sweep(g2, cfg2, reps, max_size)
        assert failure is None and fewer["capped"] is False
        assert fewer["specs_checked"] == specs - last


@pytest.mark.parametrize("max_size, spec_index", [(2, 7), (3, 11)])
def test_run_tup_sweep_names_a_failing_singleton_side(poisoned8, cfg2,
                                                      max_size, spec_index):
    # poisoned8's two windows that start with 2 are the letter 2 times each
    # tail, so C = 2 meets both tails in one class: no product is unique.
    # The reps sort the tail 1,3,...,8 first, whose group comes before.
    reps = [(1, 3, 4, 5, 6, 7, 8), (2,), (3, 4, 1, 6, 7, 8, 5), (5,)]
    for limit in (None, 3, 30):
        summary, failure = run_tup_sweep(poisoned8, cfg2, reps, max_size,
                                         limit=limit)
        assert (summary["specs_checked"], summary["min_unique_count"],
                failure) == tup_sweep(poisoned8, cfg2, reps, max_size,
                                      limit=limit)
        assert summary["capped"] is (limit == 3)
        if limit != 3:
            assert failure == {"C": ["2"],
                               "D": ["1,3,4,5,6,7,8", "3,4,1,6,7,8,5"],
                               "unique_count": 0, "spec_index": spec_index}


def _cut_and_uncut(monkeypatch, g, cfg, reps, max_size, limit=None):
    """The sweep as it runs, and with no relabellings, which decides every
    pair; both must report the same specs, minimum and failure."""
    runs = []
    for cut in (True, False):
        ticks = []
        with monkeypatch.context() as m:
            if not cut:
                m.setattr(structure, "relabellings", lambda g: None)
            summary, failure = run_tup_sweep(g, cfg, reps, max_size,
                                             limit=limit, progress=ticks.append)
        runs.append((summary, failure, ticks))
    (cut, cut_failure, cut_ticks), (uncut, failure, ticks) = runs
    assert cut_failure == failure and cut_ticks == ticks
    added = ("relabellings", "specs_decided", "elapsed_ms")
    assert ({k: v for k, v in cut.items() if k not in added}
            == {k: v for k, v in uncut.items() if k not in added})
    assert uncut["relabellings"] == 1
    assert uncut["specs_decided"] == uncut["specs_checked"]
    return cut, failure, ticks


@pytest.mark.parametrize("max_size", [2, 3])
def test_orbit_cut_matches_the_plain_sweep_on_the_halves(g2, cfg2, max_size,
                                                        monkeypatch):
    summary, failure, ticks = _cut_and_uncut(monkeypatch, g2, cfg2,
                                             _halves(g2), max_size)
    assert failure is None and summary["min_unique_count"] == 2
    assert summary["relabellings"] == 8
    assert (summary["specs_checked"], summary["specs_decided"]) == {
        2: (18240, 2416), 3: (484160, 61216)}[max_size]
    # one tick per multiple of 50,000 crossed, though the count grows by
    # whole groups of pairs
    assert ticks == list(range(50000, summary["specs_checked"] + 1, 50000))


def test_run_tup_sweep_passes_on_the_k3_halves(g3, cfg3):
    # the 24 half-windows at k=3, every pair of sides up to 3: the 12
    # relabellings leave about one side C in twelve to decide
    summary, failure = run_tup_sweep(g3, cfg3, _halves(g3), 3)
    assert failure is None
    assert {key: summary[key] for key in (
        "specs_checked", "specs_decided", "relabellings", "min_unique_count",
        "capped", "products")} == {
        "specs_checked": 5400400, "specs_decided": 455456,
        "relabellings": 12, "min_unique_count": 2, "capped": False,
        "products": 565}


def test_orbit_cut_falls_back_to_the_identity(g2, poisoned8, cfg2,
                                              monkeypatch):
    # the letters 1..3 are not closed under relabelling, nor are criterion
    # 6's length-n reps, the window class and the rotated windows (seven
    # relabellings send 1..8, the canonical form of the window class, to
    # another window), and poisoned8 has no relabellings: every pair is
    # decided
    canon = canonicalizer(g2, cfg2)
    windows = sorted({canon(w) for w in
                      [tuple(range(1, 9))] + [e[1:] + e[:1]
                                              for e in g2.elements]})
    assert sum(tuple(pi[a - 1] for a in r) not in windows
               for pi in relabellings(g2) for r in windows) == 7
    for g, reps in ((g2, [(1,), (2,), (3,)]), (g2, windows),
                    (poisoned8, _halves(poisoned8))):
        summary, _, _ = _cut_and_uncut(monkeypatch, g, cfg2, reps, 2)
        assert summary["relabellings"] == 1
        assert summary["specs_decided"] == summary["specs_checked"]
    summary, failure = run_tup_sweep(g2, cfg2, windows, 3)
    assert failure is None and summary["min_unique_count"] >= 2
    assert summary["specs_decided"] == summary["specs_checked"] == 16560


@pytest.mark.parametrize("k", [2, 3, 4])
def test_orbit_cut_applies_to_the_swept_ground_sets(k):
    # the halves the benchmark sweeps and tup-check's ground sets at
    # --max-len 1 and 2: every relabelling permutes the reps, so the sweep
    # gets the whole group of |H| = n rep permutations
    g = generate_group(QuaternionConfig(k))
    cfg = default_config(g.n)
    for reps in (_halves(g), canonical_ground_set(g, cfg, 1),
                 canonical_ground_set(g, cfg, 2)):
        index = {r: i for i, r in enumerate(reps)}
        group = structure._rep_permutations(g, reps, index)
        assert len(group) == len(relabellings(g)) == g.n
        assert group[0] == tuple(range(len(reps)))


def _leads(g, reps, C):
    """Whether no relabelling moves the side C to one earlier in colex
    order, by trying each on every member of C."""
    images = [sorted(reps.index(tuple(pi[a - 1] for a in reps[i])) for i in C)
              for pi in relabellings(g)]
    return min(images, key=lambda S: S[::-1]) == list(C)


def test_orbit_cut_decides_every_partner_of_each_leading_side(
        g2, cfg2, monkeypatch):
    # the sweep counts all of a side C's partners in one call
    reps = _halves(g2)
    report, decided = structure.product_report, []
    partners = {first: _partners(16, 3, first) for first in (1, 2)}

    def recorded(C, product, first, take):
        decided.extend((C, D) for D in partners[first][:take])
        return report(C, product, first, take)

    monkeypatch.setattr(structure, "product_report", recorded)
    summary, failure = run_tup_sweep(g2, cfg2, reps, 3)
    assert failure is None and summary["specs_checked"] == 484160
    # in stream order, each pair once
    assert decided == [(C, D) for C, first in subset_specs_over(reps, 3)
                       if _leads(g2, reps, C) for D in partners[first]]
    assert len(set(decided)) == summary["specs_decided"] == 61216


@pytest.mark.parametrize("limit, leads", [
    (1000, True),          # C = (), which every relabelling fixes
    (2628 + 1000, True),   # C = (1,), the first letter
    # reps sort as (), (1,), (1, 1), ..., (1, 8), (2,): the 11th group's C
    # is the word 2, the image of the word 1 under a relabelling
    (10 * 2628 + 1000, False)])
def test_orbit_cut_matches_the_plain_sweep_inside_a_group(g2, cfg2, limit,
                                                        leads, monkeypatch):
    reps = canonical_ground_set(g2, cfg2, 2)
    start = 0
    for C, first in subset_specs_over(reps, 2):
        partners = sum(comb(len(reps), s) for s in range(first, 3))
        if start + partners > limit:
            break
        start += partners
    assert start < limit and _leads(g2, reps, C) is leads
    summary, failure, _ = _cut_and_uncut(monkeypatch, g2, cfg2, reps, 2,
                                         limit=limit)
    assert failure is None and summary["capped"] is True
    assert summary["specs_checked"] == limit
    assert summary["relabellings"] == 8


@pytest.mark.parametrize("table, reps, failing_C", [
    ("cyclic8", None, None), ("dihedral8", None, None),
    # the relabelling by the transposition of 1 and 2 swaps 1,2 and 2,1, so
    # it fixes the failing pair
    ("two_element8", [(3,), (1, 2), (4,), (2, 1), (3, 4, 5, 6, 7, 8)],
     ["1,2", "2,1"]),
    # here it swaps the two failing pairs, (0, 3) and (1, 4) in colex order
    ("two_element8", [(2, 1, 2), (1, 1, 2), (3, 4, 5, 6, 7, 8), (2, 2, 1),
                      (1, 2, 1)], ["2,1,2", "2,2,1"])])
def test_orbit_cut_matches_the_plain_sweep_on_planted_tables(
        table, reps, failing_C, cfg2, monkeypatch, request):
    g = request.getfixturevalue(table)
    summary, failure, _ = _cut_and_uncut(monkeypatch, g, cfg2,
                                         reps or _halves(g), 3)
    assert summary["relabellings"] == (2 if reps else 8)
    if reps:
        assert failure["C"] == failing_C and failure["unique_count"] == 0
        assert (summary["specs_checked"], summary["min_unique_count"], failure) \
            == tup_sweep(g, cfg2, reps, 3)
    else:
        # each table's first halves are its second halves: 8 reps
        assert failure is None and summary["specs_checked"] == 92 * 92 - 64
        assert summary["specs_decided"] < summary["specs_checked"]


def test_run_tup_sweep_stops_its_minimum_at_the_first_failure(g2, cfg2,
                                                             monkeypatch):
    # a fake canonical form that merges the products of the letters 1..3
    # with 1..4 into five classes: the side C = 1,2,3 first fails with
    # D = 1,2,3, where only 1,2 is unique, and its later partner D = 1,2,3,4
    # has no unique product at all; the sweep must report the count 1
    classes = [{(1, 2), (2, 4)}, {(1, 4), (2, 3), (3, 1)}, {(1, 1), (3, 2)},
               {(2, 2), (3, 3)}, {(1, 3), (2, 1), (3, 4)}]
    merged = {w: min(cls) for cls in classes for w in cls}

    def canon(w):
        return merged.get(w, w)

    monkeypatch.setattr(structure, "canonicalizer", lambda g, cfg: canon)
    monkeypatch.setattr(reference_oracles, "naive_class", lambda w, g: {
        v for v in merged if canon(v) == canon(w)} | {w})
    reps = [(1,), (2,), (3,), (4,)]
    summary, failure = run_tup_sweep(g2, cfg2, reps, 4)
    assert (failure["C"], failure["D"]) == (["1", "2", "3"], ["1", "2", "3"])
    assert failure["unique_count"] == summary["min_unique_count"] == 1
    assert (summary["specs_checked"], summary["min_unique_count"], failure) \
        == tup_sweep(g2, cfg2, reps, 4)
    # no relabelling permutes the four letters, so every pair is decided
    assert summary["relabellings"] == 1
    assert (summary["specs_decided"], summary["specs_checked"],
            failure["spec_index"]) == (145, 145, 144)
    product = [[canon(c + d) for d in reps] for c in reps]
    assert unique_product_count((0, 1, 2), (0, 1, 2, 3), product) == 0


def test_run_tup_sweep_rejects_reps_that_are_not_canonical_and_distinct(
        g2, cfg2):
    # t and u are the same monoid element, and neither is its canonical form
    with pytest.raises(ValueError, match="not its canonical form"):
        run_tup_sweep(g2, cfg2, [g2.t, g2.u], 2)
    with pytest.raises(ValueError, match="2,1 repeats an earlier rep"):
        run_tup_sweep(g2, cfg2, [(1,), (2, 1), (3,), (2, 1)], 2)


def test_cancellation_report_passes_on_the_monoid(g2, cfg2):
    report = cancellation_report(g2, cfg2, trials=300, max_len=10,
                                 rng=random.Random(0), progress=quiet)
    assert report["passed"]
    assert report["violations"] == []
    assert report["antecedent_hits"] > 50


def test_cancellation_sampling_replays_from_the_seed(g2, cfg2):
    # the figures `cancel-sample --k 2 --trials 300` prints
    report = cancellation_report(g2, cfg2, trials=300, max_len=12,
                                 rng=random.Random(0), progress=quiet)
    assert (report["trials"], report["antecedent_hits"]) == (300, 286)


def test_cancellation_report_flags_planted_violation(two_element8, cfg2,
                                                    monkeypatch):
    a, b, c = (1, 2), (2, 1), (3, 4, 5, 6, 7, 8)
    monkeypatch.setattr(structure, "_sampled_triples",
                        lambda g, cfg, trials, max_len, rng: iter([(a, b, c)]))
    report = cancellation_report(two_element8, cfg2, trials=1, max_len=10,
                                 rng=random.Random(0), progress=quiet)
    assert not report["passed"]
    assert report["trials"] == 1
    assert report["violations"] == [{"trial": 0, "side": "right", "a": "1,2",
                                     "b": "2,1", "c": "3,4,5,6,7,8"}]


def test_cancellation_violations_replay_from_their_trial(two_element8, cfg2,
                                                         monkeypatch):
    # the seeded stream, with a violating triple in place of each drawn
    # triple whose a starts with 1: the first trial + 1 trials of a run
    # are a run of trial + 1 trials, which ends on the same violation,
    # and a run one trial shorter does not reach it
    drawn = structure._sampled_triples

    def planted(*args):
        for a, b, c in drawn(*args):
            yield ((1, 2), (2, 1), (3, 4, 5, 6, 7, 8)) if a[0] == 1 else (
                a, b, c)

    monkeypatch.setattr(structure, "_sampled_triples", planted)

    def violations(trials):
        return cancellation_report(two_element8, cfg2, trials, 10,
                                   random.Random(5), quiet)["violations"]

    found = violations(60)
    assert len(found) > 1
    assert [v["trial"] for v in found] == sorted({v["trial"] for v in found})
    for v in found:
        assert violations(v["trial"] + 1)[-1] == v
        assert v not in violations(v["trial"])


def test_cancellation_report_settles_a_equals_b_before_the_products(
        g2, cfg2, monkeypatch):
    # any two windows are equal in S, so each of the first five trials
    # has a = b and both antecedents by congruence: one comparison and two
    # hits.  The sixth pair's letters differ, so neither product can match
    # and none is compared; the seventh, 1,2 against 2,1, has the same
    # letters and compares both sides.
    a, b = g2.elements[1], g2.elements[2]
    triples = [(a, b, (3,))] * 5 + [((1, 2), (2, 3), (4,)),
                                    ((1, 2), (2, 1), (4,))]
    monkeypatch.setattr(structure, "_sampled_triples",
                        lambda g, cfg, trials, max_len, rng: iter(triples))
    compared = []

    def counted(w1, w2, g, cfg):
        compared.append((w1, w2))
        return words_equal(w1, w2, g, cfg)

    monkeypatch.setattr(structure, "words_equal", counted)
    report = cancellation_report(g2, cfg2, 7, 10, random.Random(0), quiet)
    assert compared == [(a, b)] * 5 + [((1, 2), (2, 3)), ((1, 2), (2, 1)),
                                       ((1, 2, 4), (2, 1, 4)),
                                       ((4, 1, 2), (4, 2, 1))]
    assert (report["antecedent_hits"], report["unequal_same_letters"],
            report["passed"]) == (10, 1, True)


def test_cancellation_antecedent_via_classes(g2, cfg2):
    # when b is drawn from the class of a, both laws must hold verbatim
    rng = random.Random(7)
    for _ in range(5):
        a = randint_seeded_word(rng, g2, 9, p_window=1.0)
        cls = class_of(a, g2, cfg2)
        for b in sorted(cls.members)[:4]:
            c = seeded_word(rng, g2, 3)
            assert words_equal(a + c, b + c, g2, cfg2)
            assert words_equal(c + a, c + b, g2, cfg2)
