"""Finite-subset product bookkeeping: counting how many products of two
subsets have a unique presentation, sweeping subset pairs exhaustively, and
sampling the cancellation laws."""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .quaternion import GroupTable
from .words import (Canon, RewriteConfig, Word, canonicalizer, class_of,
                    format_word, random_member, seeded_word, words_equal)


@dataclass(frozen=True)
class SubsetSpec:
    """Two finite subsets of the monoid, each given by canonical words that
    are pairwise inequivalent within a side."""

    C: tuple[Word, ...]
    D: tuple[Word, ...]


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
            w = canon(c + d)
            assert len(w) == len(c) + len(d)  # relations preserve length
            products.setdefault(w, []).append((ci, di))
    unique = sum(1 for fibre in products.values() if len(fibre) == 1)
    return ProductReport(products=products, unique_count=unique)


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
        yield from sorted(itertools.combinations(range(m), size),
                          key=lambda s: s[::-1])


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
    first failure.  Returns (summary, failure-or-None); the summary's
    `capped` is True when the cap stopped the sweep with specs left."""
    t0 = time.perf_counter()
    canon = canonicalizer(g, cfg)
    checked = 0
    capped = False
    min_unique: int | None = None
    failure: dict | None = None
    for spec in subset_specs_over(reps, max_size):
        if limit is not None and checked >= limit:
            capped = True
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
        "capped": capped,
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
        for side, x, y in (("right", a + c, b + c), ("left", c + a, c + b)):
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

