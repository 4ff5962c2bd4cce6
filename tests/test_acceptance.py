"""Acceptance run: one criterion per test, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.  Criteria 5 and 6 are the slow ones (sampling and sweeps); the whole
module stays well inside its stated time budgets on commodity hardware.
"""

import random
from time import perf_counter

from conftest import quiet
from qsemi.algebra import mul_with_canon, zero_divisor_search
from qsemi.lemmas import verify_step3, verify_stepss, verify_sym_step3
from qsemi.perms import identity, power
from qsemi.quaternion import QuaternionConfig, generate_group, group_checks
from qsemi.structure import canonical_ground_set, cancellation_report, run_tup_sweep
from qsemi.words import (canonical_form, canonicalizer, class_of,
                         default_config, find_relation_factors,
                         rewrite_step, words_equal)
from reference_oracles import (EXHAUSTIVE, algebra_add, collapse_canon,
                               label_mul, label_of_point, overlap_bound,
                               point_of_label, randint_seeded_word,
                               random_element, random_word, seeded_word,
                               support_lengths, ungraded_zero_divisor_search)

K2_T = (2, 3, 4, 1, 6, 7, 8, 5)
K2_U = (5, 8, 7, 6, 3, 2, 1, 4)


def _report(num: int, desc: str, ok: bool, extra: str = "") -> None:
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  [{extra}]"
    print(line)
    assert ok, line


def _groups(ks):
    return {k: generate_group(QuaternionConfig(k)) for k in ks}


def test_criterion_1_group_construction():
    t0 = perf_counter()
    gs = _groups(range(2, 6))
    elapsed = perf_counter() - t0
    ok = elapsed < 1.0
    for k, g in gs.items():
        e = identity(g.n)
        ok &= len(g) == 4 * k and len(set(g.elements)) == 4 * k
        ok &= power(g.t, 2 * k) == e
        ok &= power(g.u, 4) == e
        ok &= power(g.t, k) == power(g.u, 2)
    g2 = gs[2]
    ok &= g2.t == K2_T and g2.u == K2_U
    # the whole k=2 table must agree with the normal-form arithmetic
    for (i, j), idx in g2.labels.items():
        expect = tuple(
            point_of_label(label_mul((i, j), label_of_point(p, 2), 2), 2)
            for p in range(1, 9))
        ok &= g2.elements[idx] == expect
    _report(1, "group construction k=2..5, k=2 tables bit-exact", ok,
            f"{elapsed * 1000:.0f} ms")


def test_criterion_2_exhaustive_lemma_suite():
    t0 = perf_counter()
    ok = True
    counts = []
    for k, g in _groups(range(2, 6)).items():
        reports = [oracle(g) for oracle in EXHAUSTIVE]
        ok &= all(r.passed for r in reports)
        ok &= all(group_checks(g).values())
        counts.append(sum(r.stats["instances"] for r in reports))
    elapsed = perf_counter() - t0
    ok &= elapsed < 60.0
    _report(2, "exhaustive window lemmas + table checks, k=2..5", ok,
            f"{sum(counts)} instances, {elapsed:.1f} s")


def test_criterion_3_overlap_bound():
    ok = all(overlap_bound(g) for g in _groups(range(2, 6)).values())
    _report(3, "suffix/prefix overlap of two windows is at most 1, k=2..5", ok)


def test_criterion_4_word_problem_soundness():
    rng = random.Random(0)
    ok = True
    for k, g in _groups((2, 3)).items():
        cfg = default_config(g.n)
        for _ in range(1000):
            w = seeded_word(rng, g, rng.randint(1, 2 * g.n))
            cls = class_of(w, g, cfg)
            ok &= canonical_form(w, g, cfg) == min(cls.members)
            # every one-step rewrite of w stays in its class
            for pos, src in find_relation_factors(w, g):
                dst = g.elements[rng.randrange(len(g))]
                ok &= rewrite_step(w, pos, src, dst, g) in cls.members
            # the class is closed: members re-generate the same class
            member = sorted(cls.members)[rng.randrange(len(cls.members))]
            ok &= class_of(member, g, cfg).members == cls.members
        # substitution pairs: equal words stay equal in any context
        for _ in range(500):
            w1 = randint_seeded_word(rng, g, rng.randint(g.n, 2 * g.n),
                                     p_window=1.0)
            cls = class_of(w1, g, cfg)
            members = sorted(cls.members)
            w2 = members[rng.randrange(len(members))]
            x = random_word(rng, g.n, rng.randint(0, 4))
            ok &= words_equal(w1 + x, w2 + x, g, cfg)
            ok &= words_equal(x + w1, x + w2, g, cfg)
    _report(4, "word problem: rewrites stay in class, canonical form stable, "
               "1000 words and 1000 substitution pairs per k in {2,3}", ok)


def test_criterion_5_cancellativity():
    g = generate_group(QuaternionConfig(2))
    cfg = default_config(g.n)
    t0 = perf_counter()
    rep = cancellation_report(g, cfg, trials=10_000, max_len=12,
                              rng=random.Random(0), progress=quiet)
    elapsed = perf_counter() - t0
    ok = rep["passed"] and rep["antecedent_hits"] > 1000 and elapsed < 300.0
    _report(5, "cancellation laws, 10000 biased samples at k=2", ok,
            f"{rep['antecedent_hits']} antecedent hits, {elapsed:.1f} s")


def test_criterion_6_two_unique_products():
    g = generate_group(QuaternionConfig(2))
    cfg = default_config(g.n)
    canon = canonicalizer(g, cfg)
    t0 = perf_counter()
    ok = True
    parts = []

    # exhaustive over every canonical word of length <= 1
    reps_a = canonical_ground_set(g, cfg, 1)
    summary, failure = run_tup_sweep(g, cfg, reps_a, 3)
    ok &= failure is None and summary["specs_checked"] == 16560
    parts.append(f"short: {summary['specs_checked']} specs "
                 f"min {summary['min_unique_count']}")

    # exhaustive over the sixteen half-window words, where products are
    # full windows and the relations genuinely fire
    halves = sorted({e[:g.n // 2] for e in g.elements}
                    | {e[g.n // 2:] for e in g.elements})
    summary, failure = run_tup_sweep(g, cfg, halves, 3)
    ok &= failure is None and summary["specs_checked"] == 484160
    ok &= summary["min_unique_count"] == 2  # the bound is tight
    parts.append(f"halves: {summary['specs_checked']} specs "
                 f"min {summary['min_unique_count']}")

    # targeted: length-n class representatives (the window class plus the
    # rotated windows, which are canonical singletons)
    raw = [tuple(range(1, g.n + 1))] + [e[1:] + e[:1] for e in g.elements]
    reps_c = sorted({canon(w) for w in raw})
    summary, failure = run_tup_sweep(g, cfg, reps_c, 3)
    ok &= failure is None and summary["specs_checked"] == 16560
    parts.append(f"length-n: {summary['specs_checked']} specs "
                 f"min {summary['min_unique_count']}")

    elapsed = perf_counter() - t0
    ok &= elapsed < 1800.0
    _report(6, "two unique products in every subset pair with |C|+|D| > 2",
            ok, "; ".join(parts) + f", {elapsed:.1f} s")


def test_criterion_7_prefix_shape_oracles():
    g = generate_group(QuaternionConfig(2))
    cfg = default_config(g.n)
    r1 = verify_stepss(g, cfg)  # every window and its chains
    r2 = verify_step3(g, cfg)  # every cell's chain tail
    r3 = verify_sym_step3(g, cfg)
    ok = r1.passed and r2.passed and r3.passed
    ok &= all(c > 0 for c in r1.stats["condition_counts"])
    ok &= r2.stats["covered"] == r2.stats["family"] == g.n * (g.n - 1)
    ok &= r3.stats["covered"] == r3.stats["family"] == g.n * (g.n - 1)
    _report(7, "equivalent-pair prefix shapes over window chains and "
               "Step3's tail family at k=2, zero anomalies", ok,
            f"pairs {r1.stats['pairs']}, conditions "
            f"{r1.stats['condition_counts']}, "
            f"step3 members {r2.stats['members_checked']}")


def test_criterion_8_algebra_domain():
    g = generate_group(QuaternionConfig(2))
    cfg = default_config(g.n)
    search = zero_divisor_search(g, cfg, p=2, trials=10_000, max_support=3,
                                 max_len=10, rng=random.Random(0),
                                 progress=quiet)
    ok = search.found is None

    planted = ungraded_zero_divisor_search(
        collapse_canon, lambda r: random_word(r, 2, r.randint(1, 2)), p=2,
        trials=3000, max_support=3, rng=random.Random(0))
    ok &= planted.found is not None

    rng = random.Random(1)
    canon = canonicalizer(g, cfg)

    def sampler(r):
        return seeded_word(r, g, r.randint(1, 8))

    laws = 0
    for _ in range(1000):
        p = rng.choice((2, 3))
        x = random_element(rng, p, canon, sampler, 2)
        y = random_element(rng, p, canon, sampler, 2)
        z = random_element(rng, p, canon, sampler, 2)
        assoc = (mul_with_canon(mul_with_canon(x, y, canon), z, canon)
                 == mul_with_canon(x, mul_with_canon(y, z, canon), canon))
        dist = (mul_with_canon(x, algebra_add(y, z), canon)
                == algebra_add(mul_with_canon(x, y, canon),
                               mul_with_canon(x, z, canon)))
        prod = mul_with_canon(x, y, canon)
        sums = {a + b for a in support_lengths(x)
                for b in support_lengths(y)}
        graded = support_lengths(prod) <= sums
        laws += assoc and dist and graded
    ok &= laws == 1000
    _report(8, "monoid algebra over F_2 shows no zero divisor in 10000 "
               "trials; planted control is found; ring laws hold", ok,
            f"{laws}/1000 triples")
