import dataclasses
import itertools
import json
import os
import random
import re
import subprocess
import sys

import pytest

from qsemi import cli, words
from qsemi.errors import BadFactor, ClassTooLarge
from qsemi.quaternion import QuaternionConfig, generate_group
from qsemi.words import (RewriteConfig, canonical_form, canonicalizer,
                         check_word, class_of, default_config, draw,
                         find_relation_factors, format_word, grade,
                         parse_word, random_member, rewrite_step,
                         word_sampler, words_equal)
from conftest import CountingTuple, bare_table
from reference_oracles import (certify, critical_pairs, naive_class,
                               normal_form, overlap_bound,
                               randint_member, randint_seeded_word,
                               randint_word, random_word, seeded_word)

# 15 letters with windows at positions 1 (identity) and 8 (t^3 u)
REGRESSION_WORD = (1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 2, 1, 4, 3)
REGRESSION_CANON = (1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7, 8)
# no window of this word but the identity window at 8, so rewriting every
# other window to the identity leaves it alone, yet it is not lex-least:
# the window system oriented toward the identity is not confluent
STUCK_WORD = (5, 8, 7, 6, 3, 2, 1, 1, 2, 3, 4, 5, 6, 7, 8)
STUCK_CANON = (1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 8, 5, 6, 7)


def test_parse_and_format():
    assert parse_word("1,2,3", 8) == (1, 2, 3)
    assert parse_word("", 8) == ()
    assert parse_word("  7 ", 8) == (7,)
    assert format_word((1, 2, 3)) == "1,2,3"
    assert format_word(()) == ""
    with pytest.raises(ValueError):
        parse_word("1,x", 8)
    with pytest.raises(ValueError):
        parse_word("0,1", 8)
    with pytest.raises(ValueError):
        parse_word("9", 8)


def test_check_word():
    check_word((1, 8), 8)
    with pytest.raises(ValueError):
        check_word((1, 9), 8)


def test_rewrite_config_validation():
    with pytest.raises(ValueError):
        RewriteConfig(max_class_size=0, max_word_length=5)
    with pytest.raises(ValueError):
        RewriteConfig(max_class_size=5, max_word_length=0)
    cfg = default_config(8)
    assert cfg.max_class_size == 1_000_000
    assert cfg.max_word_length == 24


def test_find_relation_factors(g2):
    got = find_relation_factors(REGRESSION_WORD, g2)
    assert [(p, g2.index[e]) for p, e in got] == [(1, 0), (8, 7)]
    assert find_relation_factors((1, 2, 3), g2) == []
    assert find_relation_factors((1,) * 10, g2) == []


def test_closure_scans_only_through_find_relation_factors(g2, cfg2, poisoned8,
                                                         monkeypatch):
    # the class closure has no window scan of its own
    monkeypatch.setattr(words, "find_relation_factors", lambda w, g: [])
    assert class_of(REGRESSION_WORD, g2, cfg2).members == (REGRESSION_WORD,)
    # words_equal enumerates only on tables without a rewriting certificate
    assert not words_equal(poisoned8.t, poisoned8.u, poisoned8, cfg2)


def test_rewrite_step(g2):
    w = g2.t + (3, 3)
    got = rewrite_step(w, 1, g2.t, g2.u, g2)
    assert got == g2.u + (3, 3)
    # round trip restores the original word
    assert rewrite_step(got, 1, g2.u, g2.t, g2) == w


def test_rewrite_step_rejects_bad_input(g2):
    w = g2.t + (3, 3)
    with pytest.raises(BadFactor):
        rewrite_step(w, 0, g2.t, g2.u, g2)
    with pytest.raises(BadFactor):
        rewrite_step(w, 4, g2.t, g2.u, g2)
    with pytest.raises(BadFactor):
        rewrite_step(w, 1, (1, 2), g2.u, g2)
    with pytest.raises(BadFactor):
        rewrite_step(w, 1, g2.t, g2.t[::-1], g2)
    with pytest.raises(BadFactor):
        rewrite_step(w, 2, g2.t, g2.u, g2)  # window there is not t


def test_short_words_are_singletons(g2, cfg2):
    cls = class_of((1, 2, 3), g2, cfg2)
    assert cls.members == ((1, 2, 3),)


def test_window_class_is_the_whole_table(g2, cfg2):
    for e in g2.elements:
        cls = class_of(e, g2, cfg2)
        assert cls.members == tuple(sorted(g2.elements))
        assert cls.members[0] == tuple(range(1, 9))


def chained_word(rng, g, windows, gap):
    """`windows` random windows, each followed by 0..gap random letters."""
    w = ()
    for _ in range(windows):
        w += g.elements[rng.randrange(len(g))] + random_word(
            rng, g.n, rng.randint(0, gap))
    return w


def test_class_matches_naive_closure(g2, g3, cfg2, cfg3):
    rng = random.Random(1)
    for _ in range(12):
        w = seeded_word(rng, g2, rng.randint(8, 11))
        assert class_of(w, g2, cfg2).members == tuple(sorted(naive_class(w, g2)))
    # k=3, and words holding two or three windows, some of them chained
    for _ in range(6):
        w = seeded_word(rng, g3, rng.randint(12, 16))
        assert class_of(w, g3, cfg3).members == tuple(sorted(naive_class(w, g3)))
    sizes = []
    # (three windows fill the 3n length cap, so they leave no gaps)
    for g, cfg, windows, gap in ((g2, cfg2, 2, 2), (g2, cfg2, 3, 0),
                                 (g3, cfg3, 2, 2), (g3, cfg3, 3, 0)):
        for _ in range(3):
            w = chained_word(rng, g, windows, gap)
            members = class_of(w, g, cfg).members
            assert members == tuple(sorted(naive_class(w, g)))
            sizes.append(len(members))
    assert max(sizes) > 100


def chained_at_one_end(rng, g, end):
    """A word holding one window e, with the first n-1 letters of a window
    f just before it (end "head") or the last n-1 just after it ("tail"),
    where f(n) != e(1), or f(1) != e(n): the orbit of e makes a second
    window that shares one letter with it, so the closed form declines."""
    n, els = g.n, g.elements
    f = els[rng.randrange(len(els))]
    if end == "head":
        e = rng.choice([e for e in els if e[0] != f[-1]])
        return random_word(rng, n, rng.randint(0, 2)) + f[:-1] + e
    e = rng.choice([e for e in els if e[-1] != f[0]])
    return e + f[1:] + random_word(rng, n, rng.randint(0, 2))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_closed_form_classes_match_naive_closure(k):
    g = generate_group(QuaternionConfig(k))
    n, cfg = g.n, default_config(g.n)
    assert g.max_overlap == 1
    rng = random.Random(k)
    sizes = set()
    for length in range(n, 2 * n + 5):
        for _ in range(6):
            w = seeded_word(rng, g, length)
            members = class_of(w, g, cfg).members
            assert members == tuple(sorted(naive_class(w, g))), w
            sizes.add(len(members))
    assert {1, n} <= sizes
    for end in ("head", "tail"):
        for _ in range(8):
            w = chained_at_one_end(rng, g, end)
            assert len(find_relation_factors(w, g)) == 1
            members = class_of(w, g, cfg).members
            assert members == tuple(sorted(naive_class(w, g))), (end, w)
            assert len(members) > n


@pytest.mark.parametrize("table, overlap", [
    ("cyclic8", 7), ("dihedral8", 6), ("poisoned8", 2), ("two_element8", 0)])
def test_closed_form_rests_on_the_largest_overlap(request, table, overlap,
                                                  cfg2):
    # the closed form declines wherever windows overlap in two letters or
    # more; with no overlap at all it applies, and must still be exact
    g = request.getfixturevalue(table)
    n, els = g.n, g.elements
    assert g.max_overlap == overlap
    rng = random.Random(7)
    cases = [seeded_word(rng, g, length)
             for length in range(n, 2 * n + 5) for _ in range(4)]
    # f[:n-m] e' holds e' alone, and rewriting e' to a window e with
    # e[:m] = f[n-m:] makes f: a chain the head and tail lookups miss
    chained = [f[:n - overlap] + e for f in els for e in els
               if overlap and e[:overlap] != f[n - overlap:]
               and any(d[:overlap] == f[n - overlap:] for d in els)]
    assert bool(chained) == bool(overlap)
    for w in cases + chained:
        assert class_of(w, g, cfg2).members == tuple(sorted(naive_class(w, g)))
    for w in chained:
        assert len(find_relation_factors(w, g)) == 1
        assert len(class_of(w, g, cfg2).members) > len(els)


@pytest.mark.parametrize("table, w", [
    ("g2", (3,) + tuple(range(1, 9)) + (4, 4)),  # closed form
    ("poisoned8", tuple(range(1, 9)))])  # declined: overlap 2
def test_closed_form_trips_the_cap_as_the_closure_does(request, table, w):
    g = request.getfixturevalue(table)
    assert len(find_relation_factors(w, g)) == 1
    assert len(class_of(w, g, RewriteConfig(8, len(w))).members) == 8
    with pytest.raises(ClassTooLarge, match=re.escape(
            f"class of {format_word(w)} exceeded 7 members")):
        class_of(w, g, RewriteConfig(7, len(w)))


PLANTED = ["cyclic8", "dihedral8", "poisoned8", "two_element8"]


@pytest.mark.parametrize("table", PLANTED)
def test_class_matches_naive_closure_on_the_planted_tables(request, table,
                                                           cfg2):
    # uncertified tables, some with overlapping windows; a cap one below
    # the class size trips
    g = request.getfixturevalue(table)
    rng = random.Random(5)
    cases = [seeded_word(rng, g, rng.randint(8, 12)) for _ in range(12)]
    cases += [chained_word(rng, g, 2, 2) for _ in range(4)]
    for w in cases:
        members = class_of(w, g, cfg2).members
        assert members == tuple(sorted(naive_class(w, g)))
        if len(members) > 1:
            with pytest.raises(ClassTooLarge):
                class_of(w, g, RewriteConfig(len(members) - 1, 24))


@pytest.mark.parametrize("table", PLANTED)
def test_words_equal_matches_naive_closure_on_the_planted_tables(
        request, monkeypatch, table, cfg2):
    # uncertified, so canonical_form reads the whole class from class_of,
    # and the class-size cap binds all of it.  Every window still permutes
    # 1..n, so a pair whose letters differ is unequal with no canonical
    # form; words_equal compares the canonical forms of a pair with one
    # grade, so the cap binds both classes
    g = request.getfixturevalue(table)
    assert g.permutes
    rng = random.Random(6)
    calls = _counting_canonical_form(monkeypatch)
    verdicts, capped, other_letters = set(), 0, 0
    for _ in range(40):
        w1 = randint_seeded_word(rng, g, rng.randint(8, 12), p_window=1.0)
        naive = naive_class(w1, g)
        assert canonical_form(w1, g, cfg2) == min(naive)
        v = list(w1)
        i = rng.randrange(len(v) - 1)
        v[i], v[i + 1] = v[i + 1], v[i]
        for w2 in (tuple(v), random_member(rng, class_of(w1, g, cfg2)),
                   randint_word(rng, g.n, len(w1))):
            calls.clear()
            equal = words_equal(w1, w2, g, cfg2)
            assert equal == (w2 in naive)
            verdicts.add(equal)
            if sorted(w1) != sorted(w2):
                assert calls == []
                other_letters += 1
            elif equal and w2 != w1:
                with pytest.raises(ClassTooLarge):
                    words_equal(w1, w2, g, RewriteConfig(len(naive) - 1, 24))
                capped += 1
    assert verdicts == {True, False}
    assert capped and other_letters
    # other letters: unequal with no class read, under any class cap
    w2 = g.elements[0] + (1,)
    calls.clear()
    assert not words_equal((1,) * 9, w2, g, RewriteConfig(1, 24))
    assert calls == []
    # w1 has w2's letters, and its class fits under the cap where w2's
    # does not: the cap trips
    cap = len(naive_class(w2, g)) - 1
    w1 = next(w for w in itertools.permutations(w2)
              if len(naive_class(w, g)) <= cap)
    assert not words_equal(w1, w2, g, cfg2)
    with pytest.raises(ClassTooLarge):
        words_equal(w1, w2, g, RewriteConfig(cap, 24))


# (k, m, size, orbit expansions): the class of m identity windows in a row,
# each a window orbit of its own, so the class has n^m members
DISJOINT_WINDOWS = [(8, 1, 32, 1), (3, 2, 144, 145), (2, 3, 512, 1025)]


@pytest.mark.parametrize("k, m, size, loops", DISJOINT_WINDOWS)
def test_closure_expands_each_window_orbit_once(k, m, size, loops):
    # a word made by a rewrite at p has all of p's orbit in the class
    # already, so the closure loops over the table once per orbit
    g = generate_group(QuaternionConfig(k))
    counted = dataclasses.replace(g, elements=CountingTuple(g.elements))
    # build the window lookups, and the facts the closed form reads, before
    # counting
    counted.index, counted.starting
    counted.prefixes, counted.suffixes, counted.max_overlap
    CountingTuple.loops = 0
    w = tuple(range(1, g.n + 1)) * m
    assert len(class_of(w, counted, default_config(g.n)).members) == size
    assert CountingTuple.loops == loops


@pytest.mark.parametrize("k, m, size",
                         [case[:3] for case in DISJOINT_WINDOWS])
def test_class_size_cap_trips_one_member_past_the_cap(k, m, size):
    g = generate_group(QuaternionConfig(k))
    w = tuple(range(1, g.n + 1)) * m
    assert len(class_of(w, g, RewriteConfig(size, len(w))).members) == size
    with pytest.raises(ClassTooLarge, match=f"exceeded {size - 1} members"):
        class_of(w, g, RewriteConfig(size - 1, len(w)))


@pytest.mark.parametrize("table", ["g2", "g3", *PLANTED])
def test_members_strictly_increase_on_every_path(request, monkeypatch, table):
    # a class with one member, one written down in closed form (one window
    # scan) and one closed by breadth first (a scan per frontier word): each
    # lists its members in strictly increasing order
    g = request.getfixturevalue(table)
    n, cfg = g.n, default_config(g.n)
    scans = []
    scan = words.find_relation_factors
    monkeypatch.setattr(words, "find_relation_factors",
                        lambda w, g: scans.append(w) or scan(w, g))
    rng = random.Random(9)
    cases = [seeded_word(rng, g, length)
             for length in range(1, 2 * n + 5) for _ in range(3)]
    cases += [chained_word(rng, g, 2, 2) for _ in range(4)]
    paths = set()
    for w in cases:
        scans.clear()
        members = class_of(w, g, cfg).members
        assert type(members) is tuple and w in members
        assert all(a < b for a, b in zip(members, members[1:])), w
        paths.add("closure" if len(scans) > 1
                  else "closed form" if len(members) > 1 else "singleton")
    assert paths == ({"singleton", "closed form", "closure"}
                     if g.max_overlap <= 1 else {"singleton", "closure"})


def test_regression_class(g2, cfg2):
    for word, canon in ((REGRESSION_WORD, REGRESSION_CANON),
                        (STUCK_WORD, STUCK_CANON)):
        cls = class_of(word, g2, cfg2)
        assert len(cls.members) == 15
        assert cls.members[0] == canon
        assert canonical_form(word, g2, cfg2) == canon
        assert cls.members == tuple(sorted(naive_class(word, g2)))
        assert all(len(m) == 15 for m in cls.members)


def test_class_size_cap(g2):
    tight = RewriteConfig(max_class_size=3, max_word_length=24)
    with pytest.raises(ClassTooLarge):
        class_of(REGRESSION_WORD, g2, tight)


def test_word_length_cap(g2):
    cfg = RewriteConfig(max_class_size=100, max_word_length=9)
    with pytest.raises(ValueError):
        class_of((1,) * 10, g2, cfg)
    # below the relation length nothing is enumerated, so no cap applies
    assert class_of((1,) * 7, g2, cfg).members == ((1,) * 7,)


def _graded_above(u, v, g):
    """u's grade is above v's: u is longer, or as long with lesser sorted
    letters."""
    return len(u) > len(v) or (len(u) == len(v) and grade(u, g) < grade(v, g))


@pytest.mark.parametrize("k", [2, 3])
def test_grade_order_is_total_and_translation_invariant(k):
    # words spelled from random letter counts at n = 8 and 12: two grades
    # are equal exactly when the counts are, else one is above the other;
    # at one length that is the lexicographic order on the counts,
    # greatest above; and a common factor on either side keeps the order
    g = generate_group(QuaternionConfig(k))
    n, rng = g.n, random.Random(k)

    def spelled(counts):
        w = [x for x, c in enumerate(counts, 1) for _ in range(c)]
        rng.shuffle(w)
        return tuple(w)

    kinds = set()
    for _ in range(3000):
        a, b, c = ([rng.randint(0, 2) for _ in range(n)] for _ in range(3))
        if rng.random() < 0.5:  # b: a, or a with one letter replaced
            b = list(a)
            i, j = rng.sample(range(n), 2)
            if b[i] and rng.random() < 0.8:
                b[i], b[j] = b[i] - 1, b[j] + 1
        u, v, w = spelled(a), spelled(b), spelled(c)
        above, below = _graded_above(u, v, g), _graded_above(v, u, g)
        assert (grade(u, g) == grade(v, g)) == (a == b)
        assert above + below + (a == b) == 1
        if len(u) == len(v) and a != b:
            assert above == (a > b)
        for x, y in ((u + w, v + w), (w + u, w + v)):
            assert (grade(x, g) == grade(y, g)) == (a == b)
            assert (_graded_above(x, y, g), _graded_above(y, x, g)) == (
                above, below)
        kinds.add((a == b, len(u) == len(v)))
    assert kinds == {(True, True), (False, True), (False, False)}


def test_grade_is_the_length_where_a_window_repeats_a_letter(g2):
    table = bare_table(2, [tuple(range(1, 9)), (1, 1, 3, 4, 5, 6, 7, 8)])
    assert grade((2, 1, 1), table) == grade((3, 3, 3), table) == 3
    assert grade((2, 1, 1), g2) == [1, 1, 2] != grade((3, 3, 3), g2)


def test_words_equal(g2, cfg2):
    assert words_equal(g2.t, g2.u, g2, cfg2)
    assert words_equal((1, 2), (1, 2), g2, cfg2)
    assert not words_equal((1, 2), (2, 1), g2, cfg2)
    assert not words_equal((1, 2), (1, 2, 3), g2, cfg2)
    assert not words_equal(g2.t + (1,), g2.u + (2,), g2, cfg2)
    assert words_equal(g2.t + (1,), g2.u + (1,), g2, cfg2)


def test_words_equal_binds_the_word_length_cap(g2):
    # each word of n letters or more is checked before any shortcut: the
    # identical pair, the sorted-letters test and the length test
    cfg = RewriteConfig(max_class_size=100, max_word_length=7)
    eight = tuple(range(1, 9))
    for w1, w2 in [(eight, eight), (eight, (1,) * 8), (eight, eight + (1,))]:
        with pytest.raises(ValueError, match="exceeds the cap 7"):
            words_equal(w1, w2, g2, cfg)
    # words shorter than n are alone in their class, whatever the cap
    assert words_equal((1, 2, 3, 4), (1, 2, 3, 4), g2,
                       RewriteConfig(max_class_size=100, max_word_length=3))


def _counting_canonical_form(monkeypatch):
    """Record the words words_equal hands to canonical_form."""
    calls, orig = [], words.canonical_form

    def counted(w, g, cfg):
        calls.append(w)
        return orig(w, g, cfg)

    monkeypatch.setattr(words, "canonical_form", counted)
    return calls


def _same_length_pairs(rng, g, cfg, count, lengths):
    """(w1, w2) of one length: a member of w1's class, w1 with two
    neighbouring letters swapped, and a fresh word."""
    pairs = []
    for _ in range(count):
        w1 = seeded_word(rng, g, rng.randint(*lengths))
        v = list(w1)
        i = rng.randrange(len(v) - 1)
        v[i], v[i + 1] = v[i + 1], v[i]
        pairs += [(w1, random_member(rng, class_of(w1, g, cfg))),
                  (w1, tuple(v)), (w1, seeded_word(rng, g, len(w1)))]
    return pairs


@pytest.mark.parametrize("k", [2, 3])
def test_words_equal_rejects_other_letters_without_a_rewrite(monkeypatch, k):
    # certified tables: relations permute letters, so words whose sorted
    # letters differ are unequal; every verdict is the canonical forms'
    g = generate_group(QuaternionConfig(k))
    cfg = default_config(g.n)
    pairs = _same_length_pairs(random.Random(k), g, cfg, 200, (2, 2 * g.n))
    expected = [canonical_form(w1, g, cfg) == canonical_form(w2, g, cfg)
                for w1, w2 in pairs]
    calls = _counting_canonical_form(monkeypatch)
    kinds = set()
    for (w1, w2), equal in zip(pairs, expected):
        calls.clear()
        assert words_equal(w1, w2, g, cfg) == equal
        same_letters = sorted(w1) == sorted(w2)
        if not same_letters:
            assert calls == []
        kinds.add((equal, same_letters, w1 == w2))
    assert {(True, True, False), (False, True, False),
            (False, False, False)} <= kinds


@pytest.mark.parametrize("table", PLANTED)
def test_words_equal_on_the_planted_tables_compares_canonical_forms(
        request, monkeypatch, table, cfg2):
    # uncertified tables keep the class_of path for every pair of one
    # length and the same letters; a pair whose letters differ reads no
    # class, since every window permutes 1..n
    g = request.getfixturevalue(table)
    pairs = _same_length_pairs(random.Random(8), g, cfg2, 30, (8, 12))
    expected = [w1 == w2 or canonical_form(w1, g, cfg2)
                == canonical_form(w2, g, cfg2) for w1, w2 in pairs]
    calls = _counting_canonical_form(monkeypatch)
    other_letters = 0
    for (w1, w2), equal in zip(pairs, expected):
        calls.clear()
        assert words_equal(w1, w2, g, cfg2) == equal
        same_letters = sorted(w1) == sorted(w2)
        assert calls == ([w1, w2] if same_letters and w1 != w2 else [])
        other_letters += not same_letters
    assert other_letters and set(expected) == {True, False}


def test_canonical_form(g2, cfg2):
    rng = random.Random(2)
    for _ in range(20):
        w = seeded_word(rng, g2, rng.randint(1, 12))
        c = canonical_form(w, g2, cfg2)
        assert len(c) == len(w)
        assert canonical_form(c, g2, cfg2) == c
        assert words_equal(w, c, g2, cfg2)
        assert c <= w


def test_canonicalizer_reaches_canonical_form_at_every_call(g2, cfg2,
                                                             monkeypatch):
    # no memo, and the module attribute is looked up at each call, so a
    # wrapper installed after the canonicalizer was made still sees it
    computed = []

    def counting(w, g, cfg):
        computed.append(w)
        return canonical_form(w, g, cfg)

    canon = canonicalizer(g2, cfg2)
    monkeypatch.setattr(words, "canonical_form", counting)
    assert canon(REGRESSION_WORD) == REGRESSION_CANON
    assert canon(REGRESSION_WORD) == REGRESSION_CANON
    assert canon(STUCK_WORD) == STUCK_CANON
    assert computed == [REGRESSION_WORD, REGRESSION_WORD, STUCK_WORD]


def test_congruence_respects_concat(g2, cfg2):
    rng = random.Random(3)
    for _ in range(10):
        w1 = randint_seeded_word(rng, g2, 9, p_window=1.0)
        cls = class_of(w1, g2, cfg2)
        w2 = random_member(rng, cls)
        x = random_word(rng, g2.n, rng.randint(0, 3))
        assert words_equal(w1 + x, w2 + x, g2, cfg2)
        assert words_equal(x + w1, x + w2, g2, cfg2)


def test_overlap_bound(g2, g3, cyclic8):
    assert overlap_bound(g2)
    assert overlap_bound(g3)
    assert not overlap_bound(cyclic8)


def test_word_samplers(g2):
    rng = random.Random(4)
    w = random_word(rng, 8, 30)
    assert len(w) == 30 and all(1 <= x <= 8 for x in w)
    word = word_sampler(rng, g2, 10)
    windowed = 0
    for _ in range(40):
        w = word(10)
        assert len(w) == 10 and all(1 <= x <= 8 for x in w)
        windowed += any(w[i:i + 8] in g2.index for i in range(3))
    assert 10 <= windowed <= 30  # a window with probability 1/2
    assert {len(word()) for _ in range(200)} == set(range(1, 11))
    assert word(0) == ()


# letter counts and moduli minus one (1 is p - 1 for p = 2, the last
# p - 1 for p = 2^31 - 1): powers of two, where randint throws away half
# its draws, their neighbours, and a range of 31 bits
DRAW_RANGES = [1, 2, 7, 8, 12, 16, 31, 64, 2147483646]


@pytest.mark.parametrize("n", DRAW_RANGES)
@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_draws_replay_the_randint_stream(seed, n):
    ours, ref = random.Random(seed), random.Random(seed)
    assert ([draw(ours, 1, n) for _ in range(100)]
            == [ref.randint(1, n) for _ in range(100)])
    assert ([draw(ours, 0, n - 1) for _ in range(100)]
            == [ref.randrange(n) for _ in range(100)])
    assert draw(ours, -3, n) == ref.randint(-3, n)
    for length in (0, 1, 6, 40):
        assert random_word(ours, n, length) == randint_word(ref, n, length)
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
def test_word_samplers_replay_the_randint_stream(g2, g3, cfg2, seed):
    ours, ref = random.Random(seed), random.Random(seed)
    for g in (g2, g3):
        word = word_sampler(ours, g, 3 * g.n)
        for length in [*range(3 * g.n)] * 2:
            assert word(length) == randint_seeded_word(ref, g, length)
            assert word() == randint_seeded_word(ref, g,
                                                 ref.randint(1, 3 * g.n))
    for w in ((1, 2), REGRESSION_WORD, g2.t + g2.u):
        cls = class_of(w, g2, cfg2)
        assert random_member(ours, cls) == randint_member(ref, cls)
    assert ours.getstate() == ref.getstate()


def test_draw_rejects_an_empty_range(g2):
    rng = random.Random(0)
    with pytest.raises(ValueError):
        draw(rng, 3, 2)
    with pytest.raises(ValueError):
        random_word(rng, 0, 3)
    with pytest.raises(ValueError, match="empty range 1..0"):
        word_sampler(rng, g2, 0)


@pytest.mark.parametrize("table", ["k2", "k3", "k4", "cyclic8", "dihedral8",
                                   "poisoned8", "two_element8"])
def test_word_sampler_draws_the_slow_samplers_stream(request, table):
    # one frame per word against `seeded_word` and `random_word`, a frame
    # per draw, at every length up to the cap and at drawn lengths, with
    # the coin of the caller between words: the same words and the same
    # generator state (`two_element8` has only two windows to draw from)
    if table.startswith("k"):
        g = generate_group(QuaternionConfig(int(table[1:])))
    else:
        g = request.getfixturevalue(table)
    n = g.n
    for seed in range(3):
        ours, ref = random.Random(seed), random.Random(seed)
        word = word_sampler(ours, g, 3 * n)
        for length in [*range(3 * n + 1)] * 3:
            assert word(length) == seeded_word(ref, g, length)
            assert ours.random() == ref.random()
            assert word() == seeded_word(ref, g, draw(ref, 1, 3 * n))
        short = word_sampler(ours, g, 1)  # draw(1, 1) still takes a bit
        assert [short() for _ in range(5)] == [
            seeded_word(ref, g, draw(ref, 1, 1)) for _ in range(5)]
        assert ours.getstate() == ref.getstate()


def bfs_least(w, g):
    """The lex-least member of w's class by enumeration, with no caps."""
    cfg = RewriteConfig(max_class_size=10**7, max_word_length=max(len(w), 1))
    return min(class_of(w, g, cfg).members)


@pytest.mark.parametrize("k", [2, 3])
def test_normal_form_after_a_rewrite_far_right_of_the_redex_start(k):
    # s[:n-1] (1..n-1)^j e: rewriting e to the identity completes a schema
    # left side that starts j blocks further left, so the rescan has to
    # back up over the whole run of blocks, not by a fixed distance
    g = generate_group(QuaternionConfig(k))
    n = g.n
    block = tuple(range(1, n))
    for s in g.elements:
        for e in g.elements:
            for j in (1, 2, 3):
                w = s[:n - 1] + block * j + e
                assert normal_form(w, g) == bfs_least(w, g), w


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_normal_form_matches_bfs_on_seeded_and_chained_words(k):
    g = generate_group(QuaternionConfig(k))
    n = g.n
    cfg = default_config(n)
    rng = random.Random(10 + k)
    cases = [seeded_word(rng, g, rng.randint(n, 3 * n)) for _ in range(800)]
    cases += [chained_word(rng, g, 2, 2) for _ in range(50)]
    if k <= 3:
        cases += [chained_word(rng, g, 3, 0) for _ in range(20)]
    least = {}
    for w in cases:
        least[w] = bfs_least(w, g)
        assert normal_form(w, g) == least[w], w
        assert canonical_form(w, g, cfg) == least[w]
    # pairs: each window rewritten (equal), or two letters swapped
    for w in cases[800:820]:
        v = w
        for pos, _ in find_relation_factors(w, g):
            src = v[pos - 1:pos - 1 + n]
            if src in g.index:  # an overlapping rewrite may have broken it
                v = rewrite_step(v, pos, src, g.elements[rng.randrange(n)], g)
        assert words_equal(w, v, g, cfg)
        i, j = sorted(rng.sample(range(len(w)), 2))
        x = w[:i] + (w[j],) + w[i + 1:j] + (w[i],) + w[j + 1:]
        assert words_equal(w, x, g, cfg) == (bfs_least(x, g) == least[w])


def test_certificate_runs_once_per_table_content(monkeypatch, capsys):
    # a fresh interpreter: importing the CLI and building tables certifies
    # nothing
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import qsemi.cli, qsemi.words as words\n"
         "from qsemi.quaternion import QuaternionConfig, generate_group\n"
         "for k in (2, 3): generate_group(QuaternionConfig(k))\n"
         "print(words._certify.cache_info().currsize)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert fresh.stdout.split() == ["0"]
    runs = []

    def counting(g, orig=words._rule_table):
        runs.append(g.k)
        return orig(g)

    monkeypatch.setattr(words, "_rule_table", counting)
    words._certify.cache_clear()
    generate_group(QuaternionConfig(2))
    assert cli.main(["verify-lemmas", "--k", "2"]) == 0
    assert runs == []
    capsys.readouterr()
    rng = random.Random(7)
    for k in (2, 3, 2, 3, 2, 3):
        g = generate_group(QuaternionConfig(k))
        w1 = chained_word(rng, g, 2, 2)
        w2 = w1[::-1]
        code = cli.main(["word-eq", "--k", str(k), format_word(w1),
                         format_word(w2), "--format", "json"])
        details = json.loads(capsys.readouterr().out)["details"]
        assert code == (0 if details["equal"] else 1)
        assert details["canonical_w1"] == format_word(bfs_least(w1, g))
        assert details["canonical_w2"] == format_word(bfs_least(w2, g))
    # cli.main reads the one table per k, certified on its first word-eq
    assert sorted(runs) == [2, 3]


@pytest.mark.parametrize("k", range(2, 9))
def test_certificate_passes_on_the_quaternion_tables(k):
    # the full join of the reference: every pair with chains up to 3
    g = generate_group(QuaternionConfig(k))
    rules = words._rule_table(g)
    pairs = list(critical_pairs(rules, 3))
    assert len(pairs) == 93 + 64 * (k - 2)
    assert all(rules.rewrite(a) == rules.rewrite(b) for _, a, b in pairs)
    certified = words._certify(g)
    assert (certified.starts, certified.heads, certified.cycle) == (
        rules.starts, rules.heads, rules.cycle)


@pytest.mark.parametrize("k", range(2, 9))
def test_certificate_joins_the_pairs_of_chains_up_to_two(monkeypatch, k):
    # windows overlap in one letter, so the chain bound is 2, and the pairs
    # number (m+1)^2 (n-2) - m at bound m: 9n - 20, where the full join of
    # chains up to 3 has 16n - 35
    g = generate_group(QuaternionConfig(k))
    joined = []

    def counting(rules, max_m, orig=words._critical_pairs):
        for pair in orig(rules, max_m):
            joined.append(pair)
            yield pair

    monkeypatch.setattr(words, "_critical_pairs", counting)
    assert g.max_overlap == 1
    assert words._certify.__wrapped__(g) is not None
    assert len(joined) == 9 * g.n - 20 == 36 * k - 20


def perturbed_tables(seed, count):
    """Real k=2 and k=3 tables with a few non-identity windows each given
    two of their letters after the first swapped: every letter still starts
    one window, and some of the tables overlap in more letters."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice((2, 3))
        g = generate_group(QuaternionConfig(k))
        els = list(g.elements)
        for idx in rng.sample(range(1, len(els)), rng.randint(1, 3)):
            e = list(els[idx])
            i, j = rng.sample(range(1, g.n), 2)
            e[i], e[j] = e[j], e[i]
            els[idx] = tuple(e)
        yield bare_table(k, els)


def inside_table():
    """Each letter starts one window, and the window 5..8 1..4 lies inside
    s[:7] (1..7)^(m-1) 1..8, the schema left sides of s = 2,3,1,5,6,7,8,4;
    each other letter starts the rest of n..1."""
    ident = tuple(range(1, 9))
    return bare_table(2, [ident, (2, 3, 1, 5, 6, 7, 8, 4),
                          (5, 6, 7, 8, 1, 2, 3, 4)] + [
        (x,) + tuple(y for y in range(8, 0, -1) if y != x)
        for x in (3, 4, 6, 7, 8)])


def two_starts_tables():
    """The real k=2 and k=3 tables plus the window 2,1,3,...,n, listed
    first or last, so that the letter 2 starts two windows."""
    for k in (2, 3):
        g = generate_group(QuaternionConfig(k))
        extra = (2, 1) + tuple(range(3, g.n + 1))
        yield from (bare_table(k, [extra, *g.elements]),
                    bare_table(k, [*g.elements, extra]))


def test_certificate_matches_the_full_join(monkeypatch, cyclic8, dihedral8,
                                           poisoned8, two_element8):
    tables = [generate_group(QuaternionConfig(k)) for k in range(2, 9)]
    tables += [cyclic8, dihedral8, poisoned8, two_element8, inside_table(),
               *two_starts_tables()]
    joined = []

    def counting(rules, max_m, orig=words._critical_pairs):
        joined.append(max_m)
        yield from orig(rules, max_m)

    monkeypatch.setattr(words, "_critical_pairs", counting)
    verdicts = set()
    for g in tables + list(perturbed_tables(1, 60)):
        reference = certify(g)
        joined.clear()
        rules = words._certify.__wrapped__(g)
        assert (rules is None) == (reference is None)
        if rules is not None:
            assert (rules.starts, rules.heads, rules.cycle) == (
                reference.starts, reference.heads, reference.cycle)
        # chains up to 3 wherever windows overlap in two letters or more
        assert joined == ([] if words._rule_table(g) is None else
                          [2 if g.max_overlap <= 1 else 3])
        verdicts.add((g.max_overlap <= 1, rules is not None))
    # both bounds are taken, and the full bound both passes and fails
    assert verdicts >= {(True, True), (False, True), (False, False)}


def test_critical_pairs_match_the_sliced_reference(cyclic8, dihedral8):
    tables = [generate_group(QuaternionConfig(k)) for k in (2, 3, 5)]
    tables += [cyclic8, dihedral8, inside_table(), *perturbed_tables(4, 8)]
    for g in tables:
        rules = words._rule_table(g)
        for m in (1, 2, 3, 4):
            assert [(left + tail, right + tail, b) for left, right, tail, b
                    in words._critical_pairs(rules, m)] == list(
                critical_pairs(rules, m))


@pytest.mark.parametrize("k", [2, 3])
def test_critical_pairs_are_periodic_in_the_chain_length(k):
    # each chain length adds the same n-2 overlaps with every rule, and the
    # pairs of chains beyond the certificate's bound join too
    g = generate_group(QuaternionConfig(k))
    n = g.n
    rules = words._rule_table(g)
    counts = [sum(1 for _ in words._critical_pairs(rules, m))
              for m in range(1, 7)]
    assert counts == [(m + 1) ** 2 * (n - 2) - m for m in range(1, 7)]
    steps = [b - a for a, b in zip(counts, counts[1:])]
    assert [b - a for a, b in zip(steps, steps[1:])] == [2 * (n - 2)] * 4
    assert all(rules.rewrite(right + tail) == rules.rewrite(b)
               for _, right, tail, b in words._critical_pairs(rules, 6))


@pytest.mark.parametrize("k", [2, 3])
def test_rewrite_resumes_after_a_prefix_that_holds_no_left_side(k):
    # p anywhere a prefix holds no left side, also inside a run of blocks
    # that a schema left side reaching past p starts left of it
    g = generate_group(QuaternionConfig(k))
    n, rules = g.n, words._certify(g)
    block = tuple(range(1, n))
    rng = random.Random(k)
    cases = [s[:n - 1] + block * j + e for s in g.elements[1:6]
             for e in g.elements[:4] for j in (1, 2)]
    cases += [chained_word(rng, g, 3, 2) for _ in range(40)]
    resumed = 0
    for w in cases:
        whole = rules.rewrite(w)
        for p in range(len(w) + 1):
            if not has_redex(w[:p], g):
                assert rules.rewrite(w, p) == whole, (w, p)
                resumed += p > 0 and whole != w
    assert resumed > 500


def test_certificate_fails_the_planted_tables(cyclic8, dihedral8, poisoned8,
                                              two_element8, g2, cfg2):
    # cyclic and dihedral: the rules exist, but a critical pair does not join
    for g in (cyclic8, dihedral8):
        rules = words._rule_table(g)
        assert rules is not None
        assert any(rules.rewrite(right + tail) != rules.rewrite(b)
                   for _, right, tail, b in words._critical_pairs(rules, 3))
    # poisoned and two-element: some letter starts no element
    for g in (poisoned8, two_element8):
        assert words._rule_table(g) is None
    # each letter starts one element, but one of them repeats a letter
    els = list(g2.elements)
    els[g2.index[g2.t]] = (2, 2) + g2.t[2:]
    assert words._rule_table(bare_table(2, els)) is None
    w = tuple(range(8, 0, -1)) + (1, 2, 3)
    for g in (cyclic8, dihedral8, poisoned8, two_element8):
        assert words._certify(g) is None
        with pytest.raises(ValueError, match="not certified"):
            normal_form(w, g)
        # canonical forms there still come from the class enumeration
        assert canonical_form(w, g, cfg2) == class_of(w, g, cfg2).members[0]


@pytest.mark.parametrize("k", [2, 3])
def test_certificate_fails_where_a_letter_starts_two_windows(k):
    # the real table plus the window 2,1,3,...,n, listed first or last: the
    # letter 2 starts two windows, so neither order is certified, and the
    # added window is equal to the identity
    g = generate_group(QuaternionConfig(k))
    n, cfg = g.n, default_config(g.n)
    ident = tuple(range(1, n + 1))
    extra = (2, 1) + ident[2:]
    for els in ([extra, *g.elements], [*g.elements, extra]):
        table = bare_table(k, els)
        assert words._rule_table(table) is None
        assert words._certify(table) is None
        assert canonical_form(extra, table, cfg) == ident == class_of(
            extra, table, cfg).members[0]
        assert words_equal(extra, ident, table, cfg)


def test_certificate_resumes_only_after_a_prefix_that_holds_no_left_side(
        monkeypatch, cyclic8):
    rewrite, resumed = words._Rules.rewrite, []

    def checked(rules, w, p=0):
        if p:
            assert not has_redex(w[:p], g)
            assert rewrite(rules, w, p) == rewrite(rules, w)
            resumed.append(p)
        return rewrite(rules, w, p)

    monkeypatch.setattr(words._Rules, "rewrite", checked)
    tables = [generate_group(QuaternionConfig(k)) for k in (2, 3)]
    # seed 2 holds tables whose right sides are not all irreducible
    for g in tables + [cyclic8, *perturbed_tables(2, 40)]:
        words._certify.__wrapped__(g)
    assert len(resumed) > 100


def test_critical_pairs_include_a_left_side_inside_another():
    g = inside_table()
    ident, block = tuple(range(1, 9)), tuple(range(1, 8))
    s = g.elements[1]
    rules = words._rule_table(g)
    # windows overlap in four letters, so the certificate keeps chains of 3
    assert g.max_overlap == 4
    lefts = {left for left, _ in words._rule_list(rules, 3)}
    pairs = [(left + tail, right + tail, b)
             for left, right, tail, b in words._critical_pairs(rules, 3)]
    inside = [w for w, _, _ in pairs if w in lefts]
    assert inside == [s[:7] + block * m + ident for m in range(3)]
    assert words._certify(g) is None
    # every pair at the bound: up to 54 letters and classes of 4,607 members
    cfg = RewriteConfig(max_class_size=5_000, max_word_length=54)
    assert len(pairs) == 41
    lengths, sizes = [], []
    for w, a, b in pairs:
        naive = naive_class(w, g)
        assert a in naive and b in naive
        # uncertified, so the canonical form is read off the class
        assert canonical_form(w, g, cfg) == min(naive)
        lengths.append(len(w))
        sizes.append(len(naive))
    assert (max(lengths), max(sizes)) == (54, 4607)


def has_redex(w, g):
    """A left side of the rules in w, found by brute force: a window other
    than the identity, or s[:n-1] (1..n-1)^(m-1) (1..n) with s(n) != 1."""
    n = g.n
    ident = tuple(range(1, n + 1))
    if any(win != ident for _, win in find_relation_factors(w, g)):
        return True
    heads = {s[:-1] for s in g.elements if s != ident and s[-1] != 1}
    for p in range(len(w)):
        if w[p:p + n - 1] in heads:
            q = p + n - 1
            while w[q:q + n - 1] == ident[:-1]:
                q += n - 1
                if w[q:q + 1] == (n,):
                    return True
    return False


def test_canonical_form_of_a_long_word_at_k16():
    g = generate_group(QuaternionConfig(16))
    rng = random.Random(16)
    w = chained_word(rng, g, 40, g.n)
    assert len(w) >= 2000
    cfg = RewriteConfig(max_class_size=10, max_word_length=len(w))
    c = canonical_form(w, g, cfg)
    assert len(c) == len(w) and sorted(c) == sorted(w)
    assert c < w and has_redex(w, g) and not has_redex(c, g)
    assert canonical_form(c, g, cfg) == c
    with pytest.raises(ValueError, match="exceeds the cap"):
        canonical_form(w, g, RewriteConfig(10, len(w) - 1))
