"""Finite-subset product bookkeeping: counting how many products of two
subsets have a unique presentation, sweeping subset pairs exhaustively, and
sampling the cancellation laws."""

from __future__ import annotations

import itertools
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .quaternion import GroupTable
from .words import (Canon, RewriteConfig, Word, canonicalizer, class_of,
                    concat, format_word, random_member, seeded_word,
                    words_equal)


@dataclass(frozen=True)
class SubsetSpec:
    """Two finite subsets of the monoid, each given by canonical words that
    are pairwise inequivalent within a side."""

    C: tuple[Word, ...]
    D: tuple[Word, ...]


def make_subset_spec(C: Sequence[Word], D: Sequence[Word],
                     g: GroupTable, cfg: RewriteConfig) -> SubsetSpec:
    """Canonicalize both sides; equivalent duplicates within a side are
    rejected because the subsets live in the monoid, not in the free one."""
    canon = canonicalizer(g, cfg)
    sides = []
    for name, side in (("C", C), ("D", D)):
        reps = tuple(canon(w) for w in side)
        if len(set(reps)) != len(reps):
            raise ValueError(f"side {name} contains equivalent words")
        sides.append(reps)
    return SubsetSpec(C=sides[0], D=sides[1])


@dataclass
class ProductReport:
    """products maps each canonical product to the (ci, di) index pairs that
    produce it; unique_count is the number of singleton fibers."""

    products: dict[Word, list[tuple[int, int]]]
    unique_count: int


def product_report(spec: SubsetSpec, canon: Canon) -> ProductReport:
    products: dict[Word, list[tuple[int, int]]] = {}
    for ci, c in enumerate(spec.C):
        for di, d in enumerate(spec.D):
            w = canon(concat(c, d))
            assert len(w) == len(c) + len(d)  # relations preserve length
            products.setdefault(w, []).append((ci, di))
    unique = sum(1 for fibre in products.values() if len(fibre) == 1)
    return ProductReport(products=products, unique_count=unique)


def check_tup(spec: SubsetSpec, canon: Canon) -> bool:
    """True iff at least two products of C x D have a unique presentation.

    Subset pairs with |C| + |D| <= 2 are rejected: the property is only
    claimed for larger pairs.  A False return means a genuine counterexample
    to the two-unique-products property, so the full report is dumped to
    stderr.
    """
    if len(spec.C) + len(spec.D) <= 2:
        raise ValueError("|C| + |D| must exceed 2")
    report = product_report(spec, canon)
    if report.unique_count >= 2:
        return True
    print("two-unique-products failure:", file=sys.stderr)
    print(f"  C = {[format_word(w) for w in spec.C]}", file=sys.stderr)
    print(f"  D = {[format_word(w) for w in spec.D]}", file=sys.stderr)
    for w, fibre in sorted(report.products.items()):
        print(f"  {format_word(w)} <- {fibre}", file=sys.stderr)
    return False


def canonical_ground_set(g: GroupTable, cfg: RewriteConfig,
                         max_len: int) -> list[Word]:
    """Sorted canonical representatives of all words of length <= max_len.

    Feasible only for small max_len; the count grows like n^max_len.
    """
    canon = canonicalizer(g, cfg)
    reps: set[Word] = set()
    for length in range(max_len + 1):
        for letters in itertools.product(range(1, g.n + 1), repeat=length):
            reps.add(canon(letters))
    return sorted(reps)


def subsets_colex(m: int, max_size: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of range(m) with at most max_size members, by size
    and then in colexicographic order, so a failure index is reproducible."""
    for size in range(1, max_size + 1):
        yield from _colex(m, size)


def _colex(m: int, size: int) -> Iterator[tuple[int, ...]]:
    if size == 0:
        yield ()
        return
    for last in range(size - 1, m):
        for rest in _colex(last, size - 1):
            yield rest + (last,)


def subset_specs_over(reps: Sequence[Word],
                      max_size: int) -> Iterator[SubsetSpec]:
    sides = list(subsets_colex(len(reps), max_size))
    for cidx in sides:
        C = tuple(reps[i] for i in cidx)
        for didx in sides:
            if len(cidx) + len(didx) <= 2:
                continue
            yield SubsetSpec(C=C, D=tuple(reps[i] for i in didx))


def run_tup_sweep(g: GroupTable, cfg: RewriteConfig, reps: Sequence[Word],
                  max_size: int, limit: int | None = None,
                  progress: Callable[[int], None] | None = None
                  ) -> tuple[dict, dict | None]:
    """Check every streamed SubsetSpec over `reps`; stop at the cap or at the
    first failure.  Returns (summary, failure-or-None)."""
    t0 = time.perf_counter()
    canon = canonicalizer(g, cfg)
    checked = 0
    min_unique: int | None = None
    failure: dict | None = None
    for spec in subset_specs_over(reps, max_size):
        if limit is not None and checked >= limit:
            break
        checked += 1
        report = product_report(spec, canon)
        if min_unique is None or report.unique_count < min_unique:
            min_unique = report.unique_count
        if report.unique_count < 2:
            failure = {
                "C": [format_word(w) for w in spec.C],
                "D": [format_word(w) for w in spec.D],
                "unique_count": report.unique_count,
                "spec_index": checked - 1,
            }
            break
        if progress is not None and checked % 50000 == 0:
            progress(checked)
    summary = {
        "k": g.k,
        "max_len": max((len(r) for r in reps), default=0),
        "max_size": max_size,
        "specs_checked": checked,
        "min_unique_count": min_unique,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    return summary, failure


def cancellation_report(g: GroupTable, cfg: RewriteConfig, trials: int,
                        max_len: int, rng: random.Random | None = None,
                        progress: Callable[[int], None] | None = None,
                        triples: Sequence[tuple[Word, Word, Word]] | None = None,
                        ) -> dict:
    """Sampled test of both cancellation laws: ac = bc implies a = b, and
    ca = cb implies a = b.

    Half the time b is drawn from the class of a, so the antecedent is
    frequently true instead of almost never.  Explicit (a, b, c) triples, if
    given, replace the sampling.
    """
    rng = rng if rng is not None else random.Random(0)
    if triples is not None:
        trials = len(triples)
    violations: list[dict] = []
    antecedent_hits = 0
    for trial in range(trials):
        if triples is not None:
            a, b, c = triples[trial]
        else:
            la = rng.randint(1, max_len)
            a = seeded_word(rng, g, la)
            if rng.random() < 0.5:
                b = random_member(rng, class_of(a, g, cfg))
            else:
                b = seeded_word(rng, g, la)
            c = seeded_word(rng, g, rng.randint(1, max_len))
        ab_equal: bool | None = None
        for side, x, y in (("right", concat(a, c), concat(b, c)),
                           ("left", concat(c, a), concat(c, b))):
            if not words_equal(x, y, g, cfg):
                continue
            antecedent_hits += 1
            if ab_equal is None:
                ab_equal = words_equal(a, b, g, cfg)
            if not ab_equal:
                violations.append({
                    "side": side,
                    "a": format_word(a), "b": format_word(b),
                    "c": format_word(c),
                })
        if progress is not None and (trial + 1) % 1000 == 0:
            progress(trial + 1)
    return {
        "trials": trials,
        "max_len": max_len,
        "antecedent_hits": antecedent_hits,
        "violations": violations,
        "passed": not violations,
    }

