import random
import sys

import pytest

from qsemi import algebra
from qsemi.algebra import (AlgebraElement, element_from_pairs,
                           mul_with_canon, unique_top_product,
                           zero_divisor_search)
from qsemi.quaternion import QuaternionConfig, generate_group
from qsemi.words import canonicalizer, default_config, draw, grade
from conftest import quiet
from reference_oracles import (algebra_add, collapse_canon, random_element,
                               random_word, seeded_word, support_lengths,
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


def _top_grade(side, g):
    """The words of `side` of the top grade: the longest, and of those the
    least grade."""
    longest = [w for w in side if len(w) == max(map(len, side))]
    least = min(grade(w, g) for w in longest)
    return [w for w in longest if grade(w, g) == least]


def _graded_sides(g, rng):
    """Sides whose top grades collide: half the time C holds the prefixes
    of one length j of windows whose prefixes share their letters and D
    their suffixes, else C holds windows followed by one tail, which are
    equal; each side also holds other words, of its length or one
    shorter, most of other grades."""
    n = g.n
    if rng.random() < 0.5:
        j = rng.randint(1, n - 1)
        groups = {}
        for e in g.elements:
            groups.setdefault(tuple(sorted(e[:j])), []).append(e)
        shared = [es for es in groups.values() if len(es) > 1]
        es = rng.choice(shared or list(groups.values()))[:3]
        C, D = {e[:j] for e in es}, {e[j:] for e in es}
    else:
        tail = random_word(rng, n, rng.randint(0, 2))
        C = {e + tail for e in rng.sample(g.elements, 2)}
        D = {random_word(rng, n, rng.randint(1, 3))}
    for side in (C, D):
        length = len(next(iter(side)))
        for _ in range(rng.randint(1, 3)):
            side.add(random_word(rng, n, rng.randint(max(1, length - 1),
                                                     length)))
    return sorted(C), sorted(D)


@pytest.mark.parametrize("table", ["k2", "k3", "cyclic8", "dihedral8",
                                   "poisoned8", "two_element8"])
def test_a_top_grade_product_is_unique_exactly_among_the_top_factors(
        request, table):
    # brute force: the products of C x D of the greatest (length, letter
    # counts) are those of C_top x D_top, and each is equal to no other
    # pair's product in C x D exactly when it is equal to no other pair's
    # in C_top x D_top; the sides make windows collide at the top grade
    if table.startswith("k"):
        g = generate_group(QuaternionConfig(int(table[1:])))
    else:
        g = request.getfixturevalue(table)
    n, canon = g.n, canonicalizer(g, default_config(g.n))
    rng = random.Random(0)
    cases = [_graded_sides(g, rng) for _ in range(60)]
    if table == "two_element8":  # 12 . 345678 = 21 . 345678
        cases.append(([(1, 2), (2, 1), (3, 3)], [(3, 4, 5, 6, 7, 8)]))

    def content(w):
        return len(w), [w.count(x) for x in range(1, n + 1)]

    seen = set()
    for C, D in cases:
        forms = {(c, d): canon(c + d) for c in C for d in D}
        top = max(content(c + d) for c, d in forms)
        top_pairs = [cd for cd in forms if content(cd[0] + cd[1]) == top]
        C_top, D_top = _top_grade(C, g), _top_grade(D, g)
        assert sorted(top_pairs) == [(c, d) for c in C_top for d in D_top]
        for c, d in top_pairs:
            everywhere = list(forms.values()).count(forms[c, d])
            among_top = [forms[cd] for cd in top_pairs].count(forms[c, d])
            assert (everywhere == 1) == (among_top == 1), (C, D, c, d)
            seen.add(everywhere == 1)
    assert seen == {True, False}


def test_the_top_grade_rule_rewrites_almost_nothing_at_the_bench_setting(
        g2, cfg2, monkeypatch):
    # zero-divisor --k 2 --trials 6000 --seed 0 at its defaults: grading
    # by length alone canonicalizes 1,857 products here; by content almost
    # every side has one word of the top grade, which needs no rewrite
    rewritten = []
    rule = algebra.unique_top_product

    def counted(x_top, y_top, canon):
        return rule(x_top, y_top, lambda w: rewritten.append(w) or canon(w))

    monkeypatch.setattr(algebra, "unique_top_product", counted)
    result = zero_divisor_search(g2, cfg2, 2, 6000, 3, 10, random.Random(0),
                                 quiet)
    assert (result.found, result.certified) == (None, 6000)
    assert len(rewritten) <= 10


@pytest.mark.parametrize("k, p, max_support, max_len", [
    (2, 2, 3, 10), (2, 3, 3, 6), (2, 5, 3, 4),
    (2, 2147483647, 3, 10),  # 31-bit coefficient draws
    (2, 2, 1, 10),  # draw(1, 1) still takes a bit per size
    (2, 3, 4, 10),
    (3, 2, 3, 16)],  # the bench's k=3 job
    ids=["2-10", "3-6", "5-4", "p2^31-1", "support1", "support4", "k3-len16"])
def test_grading_changes_neither_the_hits_nor_the_stream(k, p, max_support,
                                                         max_len):
    # the graded search, which draws each element in one loop, against the
    # reference that multiplies every trial over elements drawn through
    # `random_element` and `seeded_word`: same result, same trials, same
    # rng state
    g = generate_group(QuaternionConfig(k))
    cfg = default_config(g.n)
    canon = canonicalizer(g, cfg)

    def sampler(r):
        return seeded_word(r, g, draw(r, 1, max_len))

    for seed in range(3):
        graded_rng, full_rng = random.Random(seed), random.Random(seed)
        graded = zero_divisor_search(g, cfg, p, 200, max_support, max_len,
                                     graded_rng, quiet)
        full = ungraded_zero_divisor_search(canon, sampler, p, 200,
                                            max_support, full_rng)
        assert (graded.found, graded.trial) == (full.found, full.trial)
        assert (graded.certified + graded.multiplied == full.multiplied
                == 200)
        assert graded.found is None and graded.certified > 0
        assert graded_rng.getstate() == full_rng.getstate()


def test_search_elements_are_those_of_the_reference(g2, cfg2, monkeypatch):
    # every element the search draws, term for term and in term order,
    # against `random_element` over the same stream
    drawn = []
    top_words = AlgebraElement.top_words

    def recorded_top(x):
        drawn.append((x.p, list(x.terms.items())))
        return top_words(x)

    monkeypatch.setattr(AlgebraElement, "top_words", recorded_top)
    canon = canonicalizer(g2, cfg2)
    for p, max_support in ((2, 3), (7, 4)):
        drawn.clear()
        rng, ref = random.Random(p), random.Random(p)
        zero_divisor_search(g2, cfg2, p, 100, max_support, 10, rng, quiet)
        expected = [random_element(
            ref, p, canon, lambda r: seeded_word(r, g2, draw(r, 1, 10)),
            max_support) for _ in range(200)]
        assert drawn == [(p, list(x.terms.items())) for x in expected]
        assert rng.getstate() == ref.getstate()


def test_search_rejects_an_empty_support_range(g2, cfg2):
    with pytest.raises(ValueError, match="max_support 0"):
        zero_divisor_search(g2, cfg2, 2, 1, 0, 4, random.Random(0), quiet)
    with pytest.raises(ValueError, match="empty range 1..0"):
        zero_divisor_search(g2, cfg2, 2, 1, 1, 0, random.Random(0), quiet)


def test_graded_search_stops_where_the_reference_does_on_two_elements(
        two_element8, cfg2, monkeypatch):
    # support words 1,2, 2,1 and 3..8: 1,2 and 2,1 followed by 3..8 spell
    # the two elements, so some trials have no unique top product and
    # vanish over F_2; the graded search must multiply those in full
    parts = [(1, 2), (2, 1), (3, 4, 5, 6, 7, 8)]

    def part(r, g, length):
        return parts[draw(r, 0, 2)]

    def sampler(r, g, max_len):
        # word() draws its length, as `words.word_sampler`'s does
        return lambda: part(r, g, draw(r, 1, max_len))

    monkeypatch.setattr(algebra, "word_sampler", sampler)
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
    # the search checks its modulus once at entry, and its elements none;
    # at p = 2^31 - 1 one trial division takes ~46,000 steps, which no
    # element or product may repeat
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
