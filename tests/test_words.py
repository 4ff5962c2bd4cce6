import random

import pytest

from qsemi import words
from qsemi.errors import BadFactor, ClassTooLarge
from qsemi.words import (RewriteConfig, canonical_form, canonicalizer,
                         check_word, class_of, default_config,
                         find_relation_factors, format_word, parse_word,
                         random_member, random_word, rewrite_step, seeded_word,
                         words_equal)
from reference_oracles import overlap_bound

# 15 letters with windows at positions 1 (identity) and 8 (t^3 u)
REGRESSION_WORD = (1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 2, 1, 4, 3)
REGRESSION_CANON = (1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5, 6, 7, 8)
# no window of this word but the identity window at 8, so rewriting every
# other window to the identity leaves it alone, yet it is not lex-least:
# the window system oriented toward the identity is not confluent
STUCK_WORD = (5, 8, 7, 6, 3, 2, 1, 1, 2, 3, 4, 5, 6, 7, 8)
STUCK_CANON = (1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 8, 5, 6, 7)


def naive_class(w, g, rounds=50):
    """Fixed-point closure by brute slice comparison, no index lookups."""
    members = {w}
    n = g.n
    for _ in range(rounds):
        new = set()
        for word in members:
            for p0 in range(len(word) - n + 1):
                if word[p0:p0 + n] in g.elements:
                    for repl in g.elements:
                        new.add(word[:p0] + repl + word[p0 + n:])
        if new <= members:
            return members
        members |= new
    raise AssertionError("no fixed point reached")


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


def test_closure_scans_only_through_find_relation_factors(g2, cfg2, monkeypatch):
    # the class closure has no window scan of its own
    monkeypatch.setattr(words, "find_relation_factors", lambda w, g: [])
    assert class_of(REGRESSION_WORD, g2, cfg2).members == {REGRESSION_WORD}
    assert not words_equal(g2.t, g2.u, g2, cfg2)


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
    assert cls.members == frozenset(((1, 2, 3),))
    assert min(cls.members) == (1, 2, 3)


def test_window_class_is_the_whole_table(g2, cfg2):
    for e in g2.elements:
        cls = class_of(e, g2, cfg2)
        assert cls.members == frozenset(g2.elements)
        assert min(cls.members) == tuple(range(1, 9))


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
        assert class_of(w, g2, cfg2).members == frozenset(naive_class(w, g2))
    # k=3, and words holding two or three windows, some of them chained
    for _ in range(6):
        w = seeded_word(rng, g3, rng.randint(12, 16))
        assert class_of(w, g3, cfg3).members == frozenset(naive_class(w, g3))
    sizes = []
    # (three windows fill the 3n length cap, so they leave no gaps)
    for g, cfg, windows, gap in ((g2, cfg2, 2, 2), (g2, cfg2, 3, 0),
                                 (g3, cfg3, 2, 2), (g3, cfg3, 3, 0)):
        for _ in range(3):
            w = chained_word(rng, g, windows, gap)
            members = class_of(w, g, cfg).members
            assert members == frozenset(naive_class(w, g))
            sizes.append(len(members))
    assert max(sizes) > 100


def test_regression_class(g2, cfg2):
    for word, canon in ((REGRESSION_WORD, REGRESSION_CANON),
                        (STUCK_WORD, STUCK_CANON)):
        cls = class_of(word, g2, cfg2)
        assert len(cls.members) == 15
        assert min(cls.members) == canon
        assert canonical_form(word, g2, cfg2) == canon
        assert cls.members == frozenset(naive_class(word, g2))
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
    assert class_of((1,) * 7, g2, cfg).members == {(1,) * 7}


def test_words_equal(g2, cfg2):
    assert words_equal(g2.t, g2.u, g2, cfg2)
    assert words_equal((1, 2), (1, 2), g2, cfg2)
    assert not words_equal((1, 2), (2, 1), g2, cfg2)
    assert not words_equal((1, 2), (1, 2, 3), g2, cfg2)
    assert not words_equal(g2.t + (1,), g2.u + (2,), g2, cfg2)
    assert words_equal(g2.t + (1,), g2.u + (1,), g2, cfg2)


def test_canonical_form(g2, cfg2):
    rng = random.Random(2)
    for _ in range(20):
        w = seeded_word(rng, g2, rng.randint(1, 12))
        c = canonical_form(w, g2, cfg2)
        assert len(c) == len(w)
        assert canonical_form(c, g2, cfg2) == c
        assert words_equal(w, c, g2, cfg2)
        assert c <= w


def test_canonicalizer_caches(g2, cfg2, monkeypatch):
    computed = []

    def counting(w, g, cfg):
        computed.append(w)
        return canonical_form(w, g, cfg)

    monkeypatch.setattr(words, "canonical_form", counting)
    canon = canonicalizer(g2, cfg2)
    assert canon(REGRESSION_WORD) == REGRESSION_CANON
    assert canon(REGRESSION_WORD) == REGRESSION_CANON
    assert canon(STUCK_WORD) == STUCK_CANON
    assert computed == [REGRESSION_WORD, STUCK_WORD]


def test_congruence_respects_concat(g2, cfg2):
    rng = random.Random(3)
    for _ in range(10):
        w1 = seeded_word(rng, g2, 9, p_window=1.0)
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
    for _ in range(10):
        w = seeded_word(rng, g2, 10, p_window=1.0)
        assert len(w) == 10
        assert any(w[i:i + 8] in g2.index for i in range(3))
