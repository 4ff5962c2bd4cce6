"""The window oracles against the brute-force reference scans,
and every reported counterexample against its table by direct slicing."""

import random
from math import comb

import pytest

from conftest import bare_table, bench_module, quiet
from qsemi import lemmas, structure
from qsemi.lemmas import (run_lemma_suite, verify_step3, verify_stepss,
                          verify_sym_step3)
from qsemi.quaternion import QuaternionConfig, generate_group, relabellings
from qsemi.structure import (cancellation_report, canonical_ground_set,
                             run_tup_sweep)
from qsemi.words import (class_of, default_config, find_relation_factors,
                         parse_word, words_equal)
from reference_oracles import (EXHAUSTIVE, FORWARD, chain_tails,
                               compared_cancellation_report,
                               factor_occurrences, max_overlap,
                               randint_seeded_word, random_word,
                               relation_factors, reversed_table,
                               step3_every_cell, stepss, tup_sweep)

SYM = {"SymNotPossible": "NotPossible", "SymMaxOne": "MaxOne",
       "SymOverlapp": "Overlapp"}
REAL = {k: generate_group(QuaternionConfig(k)) for k in (2, 3, 4, 5)}


def _random_tables(count: int, seed: int) -> list:
    """Seeded k=2,3 tables: every second one is the real table with one
    image tuple changed by a transposition of two positions, the others are
    two to four random permutations."""
    rng = random.Random(seed)
    tables = []
    while len(tables) < count:
        k = 2 if len(tables) % 3 else 3
        n = 4 * k
        if len(tables) % 2:
            els = list(REAL[k].elements)
            e = rng.randrange(n)
            a, b = rng.sample(range(n), 2)
            p = list(els[e])
            p[a], p[b] = p[b], p[a]
            if tuple(p) in els:
                continue
            els[e] = tuple(p)
        else:
            picked = set()
            size = rng.randint(2, 4)
            while len(picked) < size:
                picked.add(tuple(rng.sample(range(1, n + 1), n)))
            els = sorted(picked)
        tables.append(bare_table(k, els))
    return tables


RANDOM = _random_tables(120, 7)


@pytest.fixture(scope="module")
def planted(cyclic8, dihedral8, poisoned8, two_element8):
    return [cyclic8, dihedral8, poisoned8, two_element8]


def _check_against_reference(g) -> dict[str, bool]:
    """Compare every exhaustive oracle with the reference on g; return the
    verdicts by lemma id."""
    mirrored = reversed_table(g)
    verdicts = {}
    for oracle in EXHAUSTIVE:
        r = oracle(g)
        name = r.lemma_id.value
        table = mirrored if name in SYM else g
        holds, instances, unsatisfiable = FORWARD[SYM.get(name, name)](table)
        assert r.passed == holds, (name, g.elements)
        if r.passed:
            assert r.stats["instances"] == instances, name
            assert r.stats.get("unsatisfiable", 0) == unsatisfiable, name
        verdicts[name] = r.passed
    return verdicts


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_real_tables_match_reference_and_closed_forms(k):
    exhaustive_instances = bench_module("workloads").exhaustive_instances
    g = REAL[k]
    assert all(_check_against_reference(g).values())
    counts = {r.lemma_id.value: r.stats["instances"]
              for r in (oracle(g) for oracle in EXHAUSTIVE)}
    assert counts == exhaustive_instances(k)


def test_planted_tables_match_reference(planted):
    for g in planted:
        _check_against_reference(g)


def test_random_tables_match_reference():
    verdicts = [_check_against_reference(g) for g in RANDOM]
    for name in verdicts[0]:
        outcomes = {v[name] for v in verdicts}
        assert outcomes == {True, False}, name


def test_find_relation_factors_matches_slice_scan(planted):
    # random words with up to three windows planted at random offsets, and
    # their class members, which hold windows that overlap and chain
    g8 = generate_group(QuaternionConfig(8))
    rng = random.Random(11)
    found = 0
    for g in [*REAL.values(), g8, *planted]:
        n, cfg = g.n, default_config(g.n)
        for _ in range(60):
            w = random_word(rng, n, rng.randint(0, n))
            for _ in range(rng.randint(0, 3)):
                w += randint_seeded_word(rng, g, rng.randint(n, n + 3),
                                         p_window=0.8)
            words = [w]
            if len(w) <= 2 * n:
                words += sorted(class_of(w, g, cfg).members)[:20]
            for v in words:
                expected = relation_factors(v, g)
                assert find_relation_factors(v, g) == expected, (g.elements, v)
                found += len(expected)
    assert found


def test_occurrences_match_a_scan_of_the_elements(planted):
    # every factor of every window and random factors, which repeat letters
    # or occur nowhere, with no start and with each start 0..n+1, on the
    # tables the forward oracles query and on the mirrored ones the Sym*
    # oracles query; one table's first window repeats its first letter, so a
    # factor can start twice in one window; and a seeded sample of those
    # factors on each random table and its mirror
    rng = random.Random(17)
    repeated = list(REAL[2].elements)
    repeated[0] = repeated[0][:1] * 2 + repeated[0][2:]
    hits = misses = 0
    for g in [REAL[2], REAL[3], *planted, bare_table(2, repeated), *RANDOM]:
        for table in (g, g.mirrored):
            n = table.n
            factors = {e[p:q] for e in table.elements
                       for p in range(n) for q in range(p + 1, n + 1)}
            factors |= {random_word(rng, n, rng.randint(1, n))
                        for _ in range(200)}
            if g in RANDOM:
                factors = rng.sample(sorted(factors), 20)
            for f in factors:
                for at in (None, *range(n + 2)):
                    expected = factor_occurrences(table, f, at)
                    assert table.occurrences(f, at) == expected, (
                        table.elements, f, at)
                    hits += bool(expected)
                    misses += not expected
    assert hits and misses


def test_prefixes_match_occurrences_at_the_first_position(planted):
    # every (n-1)-letter factor of seeded words, which hold windows at
    # random offsets, so both answers occur; and the windows each letter
    # starts, which a letter of a planted or random table may start twice
    # or not at all
    g8 = generate_group(QuaternionConfig(8))
    rng = random.Random(13)
    seen, starts = set(), set()
    for g in [*REAL.values(), g8, *planted, *RANDOM]:
        n = g.n
        for x in range(n + 1):
            assert g.starting[x] == tuple(
                g.elements[idx] for idx, _ in factor_occurrences(g, (x,), 1))
            starts.add(len(g.starting[x]))
        for _ in range(60):
            w = randint_seeded_word(rng, g, rng.randint(n - 1, 2 * n),
                                    p_window=0.8)
            for p in range(len(w) - n + 2):
                f = w[p:p + n - 1]
                assert (f in g.prefixes) == bool(g.occurrences(f, 1)), (
                    g.elements, f)
                seen.add(f in g.prefixes)
    assert seen == {True, False} and {0, 1, 2} <= starts


def _planted_overlaps(k: int) -> list:
    """For each length j from 1 to n-1, the identity and the window made
    of its last j letters followed by the others in decreasing order: their
    one overlap of j letters is the largest."""
    n = 4 * k
    ident = tuple(range(1, n + 1))
    return [bare_table(k, [ident, ident[n - j:] + ident[n - j - 1::-1]])
            for j in range(1, n)]


def test_max_overlap_matches_reference(planted):
    real = [REAL.get(k) or generate_group(QuaternionConfig(k))
            for k in range(2, 9)]
    assert [g.max_overlap for g in real] == [1] * 7
    assert [g.max_overlap for g in planted] == [7, 6, 2, 0]
    chained = _planted_overlaps(2) + _planted_overlaps(3)
    assert [g.max_overlap for g in chained] == [*range(1, 8), *range(1, 12)]
    seen = set()
    for g in real + planted + RANDOM + chained:
        assert g.max_overlap == max_overlap(g), g.elements
        seen.add(g.max_overlap)
    assert set(range(12)) <= seen


@pytest.mark.parametrize("case", ["k2", "k3", "k8", "cyclic8", "dihedral8",
                                  "poisoned8", "two_element8"])
def test_mirror_reports_by_duality_match_the_mirror_run(case, request,
                                                        monkeypatch):
    # the suite as it runs, against the suite with the duality check off,
    # which runs every mirror oracle on the mirrored table; on the planted
    # tables either the check fails or a forward lemma does, except that
    # cyclic8 and dihedral8 keep Overlapp and carry it over
    if case.startswith("k"):
        g = REAL.get(int(case[1:])) or generate_group(
            QuaternionConfig(int(case[1:])))
    else:
        g = request.getfixturevalue(case)
    cfg = default_config(g.n)
    derived = run_lemma_suite(g, cfg)
    monkeypatch.setattr(lemmas, "self_dual", lambda g: False)
    mirrored = run_lemma_suite(g, cfg)
    assert [r.to_json() for r in derived] == [r.to_json() for r in mirrored]
    assert not any(r.by_duality for r in mirrored)
    assert [r.lemma_id.value for r in derived if r.by_duality] == {
        "cyclic8": ["SymOverlapp"], "dihedral8": ["SymOverlapp"],
        "poisoned8": [], "two_element8": []}.get(
            case, ["SymNotPossible", "SymMaxOne", "SymStep3", "SymOverlapp"])


# --- counterexamples, re-checked in original coordinates ---


def _element(g, name):
    return {g.label_name(i): e for i, e in enumerate(g.elements)}[name]


def _witness_not_possible(g, c, sym):
    n, half = g.n, g.n // 2
    p, q = c["p"], c["q"]
    if sym:
        assert half < p <= n - 1 and 1 <= q <= half - 1
    else:
        assert 1 <= p <= half - 1 and half < q <= n - 1
    s, t = _element(g, c["sigma"]), _element(g, c["tau"])
    assert list(s[p - 1:p + 1]) == c["pair"] == list(t[q - 1:q + 1])


def _witness_max_one(g, c, sym):
    n, half = g.n, g.n // 2
    i, j = c["i"], c["j"]
    s, t = _element(g, c["sigma"]), _element(g, c["tau"])
    same = c["sigma"] == c["tau"]
    if sym:
        assert half + 2 < i <= n and 1 <= j < i and not (j == 1 and same)
        assert list(t[j - 1:i]) == c["factor"] == list(s[:i - j + 1])
    else:
        assert 1 <= i < half - 1 and i < j <= n and not (j == n and same)
        assert list(t[i - 1:j]) == c["factor"] == list(s[n - j + i - 1:])


def _witness_big(g, c, sym):
    half = g.n // 2
    i, j = c["i"], c["j"]
    assert 1 <= i <= half and 1 <= j <= half
    assert not (i == j and c["sigma"] == c["tau"])
    s, t = _element(g, c["sigma"]), _element(g, c["tau"])
    assert list(s[j - 1:j + half]) == c["factor"] == list(t[i - 1:i + half])


def _witness_overlapp(g, c, sym):
    n = g.n
    j, l, m = c["j"], c["l"], c["m"]
    assert c["sigma"] != c["tau"]
    assert 1 <= j <= l < m <= n and not (j == l and l + 1 == m)
    s, t = _element(g, c["sigma"]), _element(g, c["tau"])
    lam, word = _element(g, c["lambda"]), c["word"]
    assert list(s[j - 1:l] + t[l:m]) == word
    if sym:
        assert j in (1, 2) and c["end"] in (n - 1, n)
        start = c["end"] - len(word) + 1
        assert start >= 1 and list(lam[start - 1:c["end"]]) == word
    else:
        assert m in (n - 1, n) and c["i"] in (1, 2)
        assert list(lam[c["i"] - 1:c["i"] - 1 + len(word)]) == word
        assert c["i"] - 1 + len(word) <= n


WITNESS = {"NotPossible": _witness_not_possible, "MaxOne": _witness_max_one,
           "Big": _witness_big, "Overlapp": _witness_overlapp}
KEYS = {"NotPossible": {"sigma", "tau", "p", "q", "pair"},
        "MaxOne": {"sigma", "tau", "i", "j", "factor"},
        "Big": {"sigma", "tau", "i", "j", "factor"},
        "Overlapp": {"sigma", "tau", "lambda", "j", "l", "m", "i", "word"},
        "SymOverlapp": {"sigma", "tau", "lambda", "j", "l", "m", "end", "word"}}


def test_counterexamples_hold_in_original_coordinates(planted):
    seen = set()
    for g in planted + RANDOM:
        for oracle in EXHAUSTIVE:
            r = oracle(g)
            if r.passed:
                continue
            name = r.lemma_id.value
            forward = SYM.get(name, name)
            assert set(r.counterexample) == KEYS.get(name, KEYS[forward])
            WITNESS[forward](g, r.counterexample, sym=name in SYM)
            seen.add(name)
    assert seen == {"NotPossible", "MaxOne", "Big", "Overlapp",
                    "SymNotPossible", "SymMaxOne", "SymOverlapp"}


def test_exhaustive_orbit_cut_changes_no_report(planted, monkeypatch):
    # a relabelling carries any violation onto one in t0's rows, which the
    # full scan visits first: deciding those rows alone changes no verdict,
    # counterexample or count, on the tables here and their mirrors
    tables = [REAL[2], REAL[3], REAL[4], generate_group(QuaternionConfig(8)),
              *planted, *RANDOM]
    tables += [reversed_table(g) for g in tables]
    cut = [[oracle(g).to_json() for oracle in EXHAUSTIVE] for g in tables]
    monkeypatch.setattr(lemmas, "relabellings", lambda g: None)
    assert cut == [[oracle(g).to_json() for oracle in EXHAUSTIVE]
                   for g in tables]
    # cyclic8, dihedral8 and two_element8 take the cut and still fail;
    # poisoned8 has no relabellings
    assert relabellings(planted[2]) is None
    for i in (0, 1, 3):
        assert relabellings(planted[i]) is not None
        assert not all(r["passed"] for r in cut[4 + i])


def test_first_letter_reads_match_the_scans_where_letters_repeat(planted):
    # where a letter starts two windows (poisoned8's 2) or none, the tails
    # of Stepss and Step3 list each window that chains on, in overlap then
    # element order
    doubled = 0
    for g in planted + RANDOM:
        for table in (g, g.mirrored):
            for t in table.elements:
                doubled += len(table.starting[t[-1]]) > 1
                assert lemmas._chain_tails(table, t) == chain_tails(table, t)
    assert doubled


def test_chain_tails_match_a_scan_of_the_overlaps(planted):
    # the tails that chain a window onto t, read up to `max_overlap`,
    # against every overlap of 1 to n-1 letters sliced from every tuple
    poisoned8, two_element8 = planted[2:]
    for g in (REAL[2], REAL[3], poisoned8, two_element8):
        for table in (g, g.mirrored):
            assert all(lemmas._chain_tails(table, t) == chain_tails(table, t)
                       for t in table.elements)
    # each letter of a real table starts one window, which shares it
    for g in (REAL[2], REAL[3]):
        assert all([len(v) for v in lemmas._chain_tails(g, t)] == [g.n - 1]
                   for t in g.elements)
    # poisoned8's letter 2 starts two windows, and a window ends with 2,1,
    # which starts one: a tail of n-2 letters
    assert {len(lemmas._chain_tails(poisoned8, t))
            for t in poisoned8.elements} == {0, 1, 2}
    assert any(len(v) == poisoned8.n - 2 for t in poisoned8.elements
               for v in lemmas._chain_tails(poisoned8, t))
    # on two_element8 no window chains onto another
    assert all(lemmas._chain_tails(two_element8, t) == []
               for t in two_element8.elements)


def test_stepss_matches_reference(planted, cfg2):
    # the reference walks every row; the orbit cut decides t0's classes,
    # each standing for its orbit, and a relabelling carries any violation
    # onto t0's row, which the reference walks first
    reasons = set()
    for g in planted + RANDOM:
        cfg = default_config(g.n)
        holds, pairs, counts, failure = stepss(g, cfg)
        r = verify_stepss(g, cfg)
        assert (r.passed, r.counterexample) == (holds, failure), g.elements
        if holds:
            assert r.stats["pairs"] == pairs
            assert r.stats["condition_counts"] == counts
            continue
        c = r.counterexample
        w1, w2 = (parse_word(c[w], g.n) for w in ("w1", "w2"))
        assert w1[0] != w2[0] and w2 in class_of(w1, g, cfg).members
        prefixes = {e[:g.n - 1] for e in g.elements}
        broken = {"first n-1 letters are not a window prefix":
                  not {w1[:g.n - 1], w2[:g.n - 1]} <= prefixes,
                  "both words break their window at letter n":
                  w1[:g.n] not in g.index and w2[:g.n] not in g.index}
        assert broken[c["reason"]], c
        reasons.add(c["reason"])
    assert reasons == {"first n-1 letters are not a window prefix",
                       "both words break their window at letter n"}
    assert [verify_stepss(g, cfg2).passed for g in planted] == [
        False, False, False, True]


def test_stepss_verdicts_hold_over_a_wider_radius(planted):
    # chains of three windows, and 0- or 1-letter tails after each chain,
    # on every row: the family `verify_stepss` argues adds nothing
    for g in [REAL[2], REAL[3], *planted]:
        cfg = default_config(g.n)
        assert stepss(g, cfg, wide=True)[0] == verify_stepss(g, cfg).passed


def test_step3_orbit_cut_matches_every_cell(planted):
    # the reference walks every cell; the orbit cut runs one element's cells,
    # each standing for len(g), so on a passing table members_checked times
    # the orbit is the reference's member count (poisoned8 is not closed
    # under relabelling, so every cell runs); None marks a failing table.
    # Below k=4 the reference's wide radius, each chain tail followed by a
    # tail of at most one letter and every window, gives the same verdicts.
    cases = [(REAL[2], 8, 448), (REAL[3], 12, 1584), (REAL[4], 16, 3840),
             *zip(planted, (8, 8, 1, 2), (None, None, None, 0))]
    for g, orbit, members in cases:
        cfg = default_config(g.n)
        for verify, table in ((verify_step3, g),
                              (verify_sym_step3, reversed_table(g))):
            holds, count, _ = step3_every_cell(table)
            r = verify(g, cfg)
            assert (r.passed, holds) == (members is not None,) * 2, g.elements
            if g.k < 4:
                assert step3_every_cell(table, wide=True)[0] is holds
            if holds:
                assert count == members
                assert r.stats["members_checked"] * orbit == count
                assert r.stats["covered"] == r.stats["family"]


# each Step3 reason and the SymStep3 reason it reads as on the mirror
MIRROR_REASONS = {
    "prefix leaves t(i+1..n-1) before letter n":
        "suffix leaves t(2..i) after letter 1",
    "too short for the alternative prefix shape":
        "too short for the alternative suffix shape",
    "no window prefix after t(i+1..n-1)": "no window suffix before t(2..i)",
}


def _reversed(text):
    return ",".join(reversed(text.split(",")))


@pytest.mark.parametrize("table", ["cyclic8", "dihedral8", "poisoned8"])
def test_step3_reports_the_least_failing_member(request, table):
    # the reference walks each class in sorted order, so the member it
    # stops at, and the count up to it, pin the report: the lex-least
    # failing member of the first failing class; SymStep3 is the reference
    # on the reversed table, mapped back
    g = request.getfixturevalue(table)
    n, cfg = g.n, default_config(g.n)
    holds, count, failure = step3_every_cell(g)
    r = verify_step3(g, cfg)
    assert not holds and not r.passed
    assert (r.counterexample, r.stats["members_checked"]) == (failure, count)
    holds, count, c = step3_every_cell(reversed_table(g))
    r = verify_sym_step3(g, cfg)
    assert not holds and not r.passed
    assert r.counterexample == {
        "w1": _reversed(c["w1"]), "reason": MIRROR_REASONS[c["reason"]],
        "tau": c["tau"], "i": n - c["i"], "seed": _reversed(c["seed"])}
    assert r.stats["members_checked"] == count


def _tup_case(case, cfg2, two_element8):
    """(table, reps, max_size, limit) of a named tup sweep."""
    g = REAL[2]
    halves = sorted({e[:4] for e in g.elements} | {e[4:] for e in g.elements})
    return {
        # 1,944 specs, every product shorter than a window
        "short": (g, canonical_ground_set(g, cfg2, 1), 2, None),
        "short-limit": (g, canonical_ground_set(g, cfg2, 1), 2, 500),
        # 18,240 specs whose products are full windows, which merge
        "halves": (g, halves, 2, None),
        "two_element8": (two_element8, [(1, 2), (2, 1), (3, 4, 5, 6, 7, 8)],
                         3, None),
        # the failing C is (1, 3), 5th of the pairs in colex and 6th in lex
        "two_element8-interleaved": (
            two_element8, [(3,), (1, 2), (4,), (2, 1), (3, 4, 5, 6, 7, 8)],
            3, None),
    }[case]


@pytest.mark.parametrize("case", ["short", "short-limit", "halves",
                                  "two_element8", "two_element8-interleaved"])
def test_tup_sweep_matches_reference(case, cfg2, two_element8):
    table, reps, max_size, limit = _tup_case(case, cfg2, two_element8)
    summary, failure = run_tup_sweep(table, cfg2, reps, max_size, limit=limit)
    assert (summary["specs_checked"], summary["min_unique_count"], failure) \
        == tup_sweep(table, cfg2, reps, max_size, limit=limit)
    # the relabellings permute every ground set here: the real table's 8,
    # and on two_element8 the identity and the transposition of 1 and 2
    assert summary["relabellings"] == (2 if table is two_element8 else 8)
    if case == "two_element8":
        assert failure["spec_index"] == 14


@pytest.mark.parametrize("case", ["short", "halves", "two_element8"])
def test_capped_tup_sweep_matches_reference(case, cfg2, two_element8):
    table, reps, max_size, _ = _tup_case(case, cfg2, two_element8)
    m = len(reps)
    sides = sum(comb(m, s) for s in range(1, max_size + 1))
    # the first group, C a singleton, pairs it with the wider sides
    wider, total = sides - m, sides * sides - m * m
    # the edges of the first group, a point inside the eleventh, one past
    # the end, and around the failing pair where there is one
    limits = {0, 1, wider - 1, wider, wider + 1, 10 * wider + wider // 2,
              total + 1}
    if case == "two_element8":
        limits |= {14 + d for d in (-1, 0, 1, 2)}
    for limit in sorted(limits):
        summary, failure = run_tup_sweep(table, cfg2, reps, max_size,
                                         limit=limit)
        assert (summary["specs_checked"], summary["min_unique_count"],
                failure) == tup_sweep(table, cfg2, reps, max_size,
                                      limit=limit), limit
        assert summary["capped"] is (failure is None and limit < total)


def test_sampled_counterexamples_hold_in_original_coordinates(cyclic8, cfg2):
    g, n = cyclic8, cyclic8.n

    def is_prefix(w):
        return any(e[:n - 1] == w for e in g.elements)

    r = verify_stepss(g, cfg2)
    w1, w2 = (parse_word(r.counterexample[w], n) for w in ("w1", "w2"))
    assert w1[0] != w2[0] and w2 in class_of(w1, g, cfg2).members
    assert r.counterexample["reason"] == "first n-1 letters are not a window prefix"
    assert not is_prefix(w1[:n - 1]) or not is_prefix(w2[:n - 1])

    for verify, sym in ((verify_step3, False), (verify_sym_step3, True)):
        c = verify(g, cfg2).counterexample
        t, i = _element(g, c["tau"]), c["i"]
        seed, w1 = parse_word(c["seed"], n), parse_word(c["w1"], n)
        assert w1 in class_of(seed, g, cfg2).members
        if sym:
            # w2 t(1..i): the suffix t(1..i) is lost, and so is either
            # t(2..i) or the window suffix of length n-1 just before it
            assert seed[-i:] == t[:i] and w1[-i:] != t[:i]
            head = len(w1) - (i - 1)
            broken = {"suffix leaves t(2..i) after letter 1": w1[head:] != t[1:i],
                      "too short for the alternative suffix shape": head < n - 1,
                      "no window suffix before t(2..i)": not any(
                          e[1:] == w1[head - (n - 1):head] for e in g.elements)}
        else:
            assert seed[:n - i] == t[i:] and w1[:n - i] != t[i:]
            head = n - 1 - i
            broken = {"prefix leaves t(i+1..n-1) before letter n": w1[:head] != t[i:n - 1],
                      "too short for the alternative prefix shape": len(w1) < head + n - 1,
                      "no window prefix after t(i+1..n-1)": not is_prefix(
                          w1[head:head + n - 1])}
        assert broken[c["reason"]], c


def _cancellation_matches_reference(g, cfg, trials, max_len, seed,
                                    monkeypatch) -> dict:
    """Run `cancellation_report` and the reference that compares both
    sides of every trial from one seed, on the stream that
    `structure._sampled_triples` draws at the time; check that the reports
    and the generator states after them agree, and that
    `unequal_same_letters` counts the trials with a != b and the same
    letters, or the same length where a window does not permute 1..n.
    Returns the report."""
    drawn, triples = structure._sampled_triples, []

    def recorded(*args):
        for triple in drawn(*args):
            triples.append(triple)
            yield triple

    monkeypatch.setattr(structure, "_sampled_triples", recorded)
    ours, ref = random.Random(seed), random.Random(seed)
    report = cancellation_report(g, cfg, trials, max_len, ours, quiet)
    same_letters = sum((sorted(a) == sorted(b) if g.permutes
                        else len(a) == len(b))
                       and not words_equal(a, b, g, cfg)
                       for a, b, _ in triples)
    monkeypatch.setattr(structure, "_sampled_triples", drawn)
    expected = compared_cancellation_report(g, cfg, trials, max_len, ref)
    expected["unequal_same_letters"] = same_letters
    assert report == expected, (g.elements, seed)
    assert ours.getstate() == ref.getstate()
    return report


@pytest.mark.parametrize("mirror", [False, True], ids=["table", "mirror"])
@pytest.mark.parametrize("case", ["k2", "k3", "k4", "cyclic8", "dihedral8",
                                  "poisoned8", "two_element8"])
def test_cancellation_report_matches_the_compared_reference(case, mirror,
                                                            request,
                                                            monkeypatch):
    # the real tables draw words with windows up to n + 4 letters; the
    # planted ones, whose classes grow fast, stop at 10
    if case.startswith("k"):
        g = REAL[int(case[1:])]
        max_len = g.n + 4
    else:
        g, max_len = request.getfixturevalue(case), 10
    g = g.mirrored if mirror else g
    cfg = default_config(g.n)
    for seed in range(10):
        _cancellation_matches_reference(g, cfg, 80, max_len, seed,
                                        monkeypatch)


def test_cancellation_report_matches_the_reference_on_a_non_permuting_table(
        cfg2, monkeypatch):
    # a window with a repeated letter: the relations keep only the length,
    # so every trial with a != b compares both products, on the table and
    # on its mirror, which break right and left cancellation at 1,2 and 1,1
    table = bare_table(2, [tuple(range(1, 9)), (1, 1, 3, 4, 5, 6, 7, 8)])
    assert not table.permutes
    unequal = 0
    for g in (table, table.mirrored):
        for seed in range(10):
            report = _cancellation_matches_reference(g, cfg2, 80, 10, seed,
                                                     monkeypatch)
            unequal += report["unequal_same_letters"]
    assert unequal


@pytest.mark.parametrize("side", ["right", "left"])
def test_cancellation_report_matches_the_reference_on_planted_collisions(
        side, two_element8, cfg2, monkeypatch):
    # two_element8's windows 1,2,3..8 and 2,1,3..8 end alike, so
    # 1,2 . 3..8 = 2,1 . 3..8 breaks right cancellation; read right to
    # left, its windows start alike and 8..3 . 2,1 = 8..3 . 1,2 breaks left
    # cancellation.  Every fourth trial is that collision, and the others
    # are a pair a = a, a pair a and a reversed (same letters, equal or
    # not) and the drawn triple, so every path of a trial runs.
    if side == "right":
        g, collision = two_element8, ((1, 2), (2, 1), (3, 4, 5, 6, 7, 8))
    else:
        g = two_element8.mirrored
        collision = ((2, 1), (1, 2), (8, 7, 6, 5, 4, 3))
    drawn = structure._sampled_triples

    def mixed(*args):
        for i, (a, b, c) in enumerate(drawn(*args)):
            yield (collision, (a, a, c), (a, a[::-1], c), (a, b, c))[i % 4]

    monkeypatch.setattr(structure, "_sampled_triples", mixed)
    for seed in range(10):
        report = _cancellation_matches_reference(g, cfg2, 40, 10, seed,
                                                 monkeypatch)
        assert [v["trial"] for v in report["violations"]] == list(
            range(0, 40, 4))
        assert {v["side"] for v in report["violations"]} == {side}
