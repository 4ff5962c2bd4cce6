import random
import sys

import pytest

from qsemi import algebra
from qsemi.algebra import (AlgebraElement, element_from_pairs,
                           mul_with_canon, random_element, unique_top_product,
                           zero_divisor_search)
from qsemi.quaternion import QuaternionConfig, generate_group
from qsemi.words import (canonicalizer, default_config, draw, random_word,
                         seeded_word)
from conftest import quiet
from reference_oracles import (algebra_add, collapse_canon, support_lengths,
                               ungraded_zero_divisor_search)


def test_validation():
    with pytest.raises(ValueError):
        AlgebraElement(4, {})
    with pytest.raises(ValueError):
        AlgebraElement(1, {})
    with pytest.raises(ValueError):
        AlgebraElement(3, {(1,): 3})
    with pytest.raises(ValueError):
        AlgebraElement(3, {(1,): 0})
    x = AlgebraElement(3, {(1,): 2, (1, 2): 1})
    assert not x.is_zero()
    assert support_lengths(x) == {1, 2}
    assert AlgebraElement(5, {}).is_zero()
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        element_from_pairs([((1,), 1)], 4, lambda w: w)


def test_top_words_of_zero_are_none():
    assert AlgebraElement(3, {}).top_words() == []
    x = AlgebraElement(3, {(1,): 2, (1, 2): 1, (2, 1): 2})
    assert x.top_words() == [(1, 2), (2, 1)]


def test_element_from_pairs_merges_equivalent_words(g2, cfg2):
    pairs = [(g2.t, 1), (g2.u, 1)]
    canon = canonicalizer(g2, cfg2)
    assert element_from_pairs(pairs, 2, canon).is_zero()
    x = element_from_pairs(pairs, 3, canon)
    assert x.terms == {tuple(range(1, 9)): 2}


def test_add():
    x = AlgebraElement(2, {(1,): 1})
    y = AlgebraElement(2, {(1,): 1, (2,): 1})
    assert algebra_add(x, y) == AlgebraElement(2, {(2,): 1})
    assert algebra_add(x, x).is_zero()
    with pytest.raises(ValueError):
        algebra_add(x, AlgebraElement(3, {(1,): 1}))


def test_mul_concatenates_and_grades(g2, cfg2):
    canon = canonicalizer(g2, cfg2)
    x = element_from_pairs([((1,), 1)], 3, canon)
    y = element_from_pairs([((2,), 2), ((3, 4), 1)], 3, canon)
    xy = mul_with_canon(x, y, canon)
    assert xy.terms == {(1, 2): 2, (1, 3, 4): 1}
    assert support_lengths(xy) == {2, 3}
    with pytest.raises(ValueError):
        mul_with_canon(x, AlgebraElement(2, {(1,): 1}), lambda w: w)


def test_square_of_window_plus_neighbor_is_nonzero(g2, cfg2):
    # (2,1,3,...,8) is one transposition away from the identity window and is
    # not a table element, so the square must survive over F_2
    canon = canonicalizer(g2, cfg2)
    x = element_from_pairs(
        [(tuple(range(1, 9)), 1), ((2, 1, 3, 4, 5, 6, 7, 8), 1)], 2, canon)
    assert len(x.terms) == 2
    sq = mul_with_canon(x, x, canon)
    assert not sq.is_zero()
    assert support_lengths(sq) == {16}


def test_ring_laws_sampled(g2, cfg2):
    rng = random.Random(11)
    canon = canonicalizer(g2, cfg2)

    def sampler(r):
        return seeded_word(r, g2, r.randint(1, 8))

    for p in (2, 3):
        for _ in range(15):
            x = random_element(rng, p, canon, sampler, 2)
            y = random_element(rng, p, canon, sampler, 2)
            z = random_element(rng, p, canon, sampler, 2)
            left = mul_with_canon(mul_with_canon(x, y, canon), z, canon)
            right = mul_with_canon(x, mul_with_canon(y, z, canon), canon)
            assert left == right
            dist = mul_with_canon(x, algebra_add(y, z), canon)
            assert dist == algebra_add(mul_with_canon(x, y, canon),
                                       mul_with_canon(x, z, canon))
            prod = mul_with_canon(x, y, canon)
            if not prod.is_zero():
                sums = {a + b for a in support_lengths(x)
                        for b in support_lengths(y)}
                assert support_lengths(prod) <= sums


def test_random_element_bounds(g2, cfg2):
    rng = random.Random(0)
    canon = canonicalizer(g2, cfg2)
    for _ in range(20):
        x = random_element(rng, 5, canon,
                           lambda r: seeded_word(r, g2, r.randint(1, 6)), 3)
        assert not x.is_zero()
        assert 1 <= len(x.terms) <= 3
        assert all(1 <= c <= 4 for c in x.terms.values())


def test_random_element_replays_recorded_seed(g2, cfg2):
    # terms recorded before the draws moved to getrandbits
    rng = random.Random(3)
    canon = canonicalizer(g2, cfg2)
    drawn = [random_element(rng, p, canon,
                            lambda r: seeded_word(r, g2, r.randint(1, 8)),
                            3).to_text() for p in (2, 5, 7)]
    assert drawn == ["1*6,8,2", "2*3,7,1,2 + 2*4,4,8,8,7",
                     "6*2,1,3,8,4,5 + 1*5 + 2*8,7,7,7,8"]
    assert rng.random() == 0.4361618666274293


def test_no_zero_divisor_found_on_the_monoid(g2, cfg2):
    search = zero_divisor_search(g2, cfg2, 2, 200, 3, 10, random.Random(0),
                                 quiet)
    assert search == (None, None, 200, 0)


def test_planted_quotient_has_zero_divisors():
    # collapse_canon shortens words, so the top-length products are not
    # the top-length terms of the product: the control multiplies every
    # trial, as the ungraded reference does
    x = element_from_pairs([((1,), 1), ((1, 1), 1)], 2, collapse_canon)
    assert mul_with_canon(x, x, collapse_canon).is_zero()
    rng = random.Random(0)
    hit = ungraded_zero_divisor_search(
        collapse_canon, lambda r: random_word(r, 2, r.randint(1, 2)), p=2,
        trials=3000, max_support=3, rng=rng)
    assert hit.found is not None
    assert hit.multiplied == hit.trial + 1
    a, b = hit.found
    assert not a.is_zero() and not b.is_zero()
    assert mul_with_canon(a, b, collapse_canon).is_zero()
    # the hit and the stream after it, recorded before the draws moved to
    # getrandbits
    assert [a.to_text(), b.to_text()] == ["1*1 + 1*1,1", "1*1 + 1*1,1"]
    assert rng.random() == 0.06225875887122312


@pytest.mark.parametrize("k, max_len", [(2, 10), (3, 16)])
def test_certified_trials_have_a_nonzero_unique_top_product(k, max_len):
    # the trials zero_divisor_search draws: wherever the rule answers True,
    # the full product is nonzero and each top-length product that no
    # other pair gives keeps the coefficient c_u * c_v
    g = generate_group(QuaternionConfig(k))
    canon = canonicalizer(g, default_config(g.n))

    def sampler(r):
        return seeded_word(r, g, draw(r, 1, max_len))

    certified = rewritten = 0
    for p in (2, 3, 5):
        for seed in range(100):
            rng = random.Random(seed)
            for _ in range(4):
                x = random_element(rng, p, canon, sampler, 3)
                y = random_element(rng, p, canon, sampler, 3)
                x_top, y_top = x.top_words(), y.top_words()
                if not unique_top_product(x_top, y_top, canon):
                    continue
                certified += 1
                rewritten += len(x_top) * len(y_top) > 1
                xy = mul_with_canon(x, y, canon)
                assert not xy.is_zero()
                by_product = {}
                for u in x_top:
                    for v in y_top:
                        by_product.setdefault(canon(u + v), []).append((u, v))
                unique = [(w, pairs[0]) for w, pairs in by_product.items()
                          if len(pairs) == 1]
                assert unique
                for w, (u, v) in unique:
                    assert xy.terms[w] == x.terms[u] * y.terms[v] % p
    # the monoid has unique products, so the rule leaves no trial open
    assert certified == 1200
    assert rewritten > 0


def test_unique_top_product_is_exact_on_the_two_element_table(two_element8,
                                                             cfg2):
    # 1,2 and 2,1 followed by 3..8 spell the two elements, so both top
    # products are one element and cancel over F_2
    canon = canonicalizer(two_element8, cfg2)
    x = element_from_pairs([((1, 2), 1), ((2, 1), 1)], 2, canon)
    y = element_from_pairs([((3, 4, 5, 6, 7, 8), 1)], 2, canon)
    assert len(x.terms) == 2
    assert not unique_top_product(x.top_words(), y.top_words(), canon)
    assert mul_with_canon(x, y, canon).is_zero()
    assert unique_top_product(x.top_words(), [(3, 4, 5, 6, 7)], canon)
    assert unique_top_product([(1, 2)], [(2, 1)], lambda w: 1 / 0)


@pytest.mark.parametrize("p, max_len", [(2, 10), (3, 6), (5, 4)])
def test_grading_changes_neither_the_hits_nor_the_stream(g2, cfg2, p,
                                                         max_len):
    # the graded search against the reference that multiplies every trial
    # over the same sampler: same result, same trials, same rng state
    canon = canonicalizer(g2, cfg2)

    def sampler(r):
        return seeded_word(r, g2, draw(r, 1, max_len))

    for seed in range(3):
        graded_rng, full_rng = random.Random(seed), random.Random(seed)
        graded = zero_divisor_search(g2, cfg2, p, 200, 3, max_len, graded_rng,
                                     quiet)
        full = ungraded_zero_divisor_search(canon, sampler, p, 200, 3,
                                            full_rng)
        assert (graded.found, graded.trial) == (full.found, full.trial)
        assert (graded.certified + graded.multiplied == full.multiplied
                == 200)
        assert graded.found is None and graded.certified > 0
        assert graded_rng.getstate() == full_rng.getstate()


def test_graded_search_stops_where_the_reference_does_on_two_elements(
        two_element8, cfg2, monkeypatch):
    # support words 1,2, 2,1 and 3..8: 1,2 and 2,1 followed by 3..8 spell
    # the two elements, so some trials have no unique top product and
    # vanish over F_2; the graded search must multiply those in full
    parts = [(1, 2), (2, 1), (3, 4, 5, 6, 7, 8)]

    def part(r, g, length):
        return parts[draw(r, 0, 2)]

    monkeypatch.setattr(algebra, "seeded_word", part)
    canon = canonicalizer(two_element8, cfg2)
    graded_rng, full_rng = random.Random(0), random.Random(0)
    graded = zero_divisor_search(two_element8, cfg2, 2, 200, 3, 6, graded_rng,
                                 quiet)
    full = ungraded_zero_divisor_search(
        canon, lambda r: part(r, two_element8, draw(r, 1, 6)), 2, 200, 3,
        full_rng)
    assert graded.found is not None and graded.certified > 0
    assert (graded.found, graded.trial) == (full.found, full.trial)
    assert graded_rng.getstate() == full_rng.getstate()


def test_each_modulus_is_trial_divided_once(g2, cfg2):
    # every element checks its modulus; at p = 2^31 - 1 one trial division
    # takes ~46,000 steps, which 900 checks in this search must not repeat
    p = 2147483647
    trial_division = algebra._is_prime.__wrapped__.__code__
    algebra._is_prime.cache_clear()
    runs = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code is trial_division:
            runs.append(frame.f_locals["p"])

    sys.setprofile(count)
    try:
        hit = zero_divisor_search(g2, cfg2, p, 300, 3, 10, random.Random(0),
                                  quiet)
    finally:
        sys.setprofile(None)
    assert hit.found is None
    assert runs == [p]


def test_search_reports_progress(g2, cfg2):
    ticks = []
    assert zero_divisor_search(g2, cfg2, 2, 1000, 3, 6, random.Random(1),
                               ticks.append).found is None
    assert ticks == [1000]


def test_serialization():
    x = AlgebraElement(3, {(2, 1): 2, (1,): 1})
    assert x.to_text() == "1*1 + 2*2,1"
    assert x.to_json() == {"p": 3, "terms": [{"coef": 1, "word": "1"},
                                             {"coef": 2, "word": "2,1"}]}
    assert AlgebraElement(2, {}).to_text() == "0"
    assert "1*1" in repr(x)
    assert x == AlgebraElement(3, {(1,): 1, (2, 1): 2})
    assert x != AlgebraElement(3, {(1,): 1})
