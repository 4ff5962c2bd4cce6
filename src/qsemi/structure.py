"""Finite-subset product bookkeeping: counting how many products of two
subsets have a unique presentation, sweeping subset pairs exhaustively, and
sampling the cancellation laws, where only pairs of one `words.grade` fail.

The sweep interns every rep product to a small int id once; a side C
becomes one bitmask column per rep d (the ids of c d, c in C), and all of
C's partners D are counted in one walk over their colex order: D's masks
are those of its parent, D without its largest member, folded with one
column by integer ORs and ANDs, so each pair costs one fold."""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable, Iterator, Sequence
from math import comb

from .quaternion import GroupTable, relabellings
from .words import (RewriteConfig, Word, canonicalizer,
                    check_product_length, class_of, format_word, grade,
                    random_member, word_sampler, words_equal)

Side = tuple[int, ...]  # a subset of the ground set, as sorted rep indices


def product_report(C: Sequence[int], product: Sequence[Sequence[int]],
                   first: int, take: int) -> list[int]:
    """The unique counts of the first `take` partners D of the side C: for
    each D, the number of products c d, c in C and d in D, that no other
    pair of C x D presents.  C indexes the rows of `product`, whose
    product[c][d] interns c d; the partners are the sides over its columns
    in `subsets_colex` order from the first side of size `first`
    (ValueError when there are fewer than `take`).

    C becomes one bitmask column per d: cols[d] has bit product[c][d] set
    for each c in C, and dups[d] the bits that two members of C hit
    (c1 d = c2 d, only on a non-cancellative table).  A product id is
    repeated when a column hits it twice or two columns of D share it.  In
    colex order the side of size s at position i of the run with largest
    member t is the side of size s - 1 at position i plus t, for
    i < comb(t, s - 1), so each side's (seen, repeated) pair of masks is its
    parent's folded with one column.  Each size's runs are counted up to
    the cut, and the next size's parents grown only as far as the sides the
    cut still needs."""
    if take <= 0:
        return []
    cols, dups = [], []
    for column in zip(*(product[c] for c in C)):
        col = dup = 0
        for p in column:
            bit = 1 << p
            dup |= col & bit
            col |= bit
        cols.append(col)
        dups.append(dup)
    m = len(cols)
    # filled in place: a list grown run by run peaks higher in memory
    counts, done = [0] * take, 0
    states = [(0, 0)]  # the empty side, parent of each singleton
    for s in range(1, m + 1):
        # the runs of size s, if partners have that size, up to the cut
        for t in range(s - 1, m) if s >= first else ():
            run = comb(t, s - 1)
            if run > take - done:  # the last run taken
                run = take - done
            col, dup = cols[t], dups[t]
            # unique: seen by exactly one of the parent and the column, and
            # repeated by neither
            counts[done:done + run] = [
                (((a ^ col) | (rep := b | dup)) ^ rep).bit_count()
                for a, b in states[:run]]
            done += run
            if done == take:
                return counts
        # the runs whose sides parent the next size's up to the cut
        top = s
        while top < m - 1 and comb(top + 1, s + 1) < take - done:
            top += 1
        states = [(a | cols[t], b | (a & cols[t]) | dups[t])
                  for t in range(s - 1, top)
                  for a, b in states[:comb(t, s - 1)]]
    raise ValueError(f"{take} partners from size {first}, over {m} columns")


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


def subsets_colex(m: int, max_size: int) -> Iterator[Side]:
    """Nonempty subsets of range(m) with at most max_size members, by size
    and then in colexicographic order, so a failure index is reproducible;
    each is yielded as it is built, so a prefix costs only its own length."""
    smaller: list[Side] = [()]
    for size in range(1, max_size + 1):
        # the colex order of the subsets of range(top) is a prefix of that of
        # range(m), so each subset is a smaller one with a new largest member
        current: list[Side] = []
        for top in range(m):
            for rest in itertools.islice(smaller, comb(top, size - 1)):
                current.append(rest + (top,))
                yield current[-1]
        smaller = current


def subset_specs_over(reps: Sequence[Word], max_size: int
                      ) -> Iterator[tuple[Side, int]]:
    """Subset pairs with |C| + |D| > 2 over indices into `reps`, grouped
    as (C, first): each side C, in the order of `subsets_colex`, with the
    size of its first partner D.  C's partners are every side of that size
    or more in that order: all sides, or for a singleton C the wider ones.
    Each C is built as the stream reaches it."""
    for C in subsets_colex(len(reps), max_size):
        first = 1 if len(C) > 1 else 2
        if first <= min(max_size, len(reps)):
            yield C, first


def _rep_permutations(g: GroupTable, reps: Sequence[Word],
                      index: dict[Word, int]) -> list[tuple[int, ...]]:
    """The distinct rep-index permutations that the relabellings induce, in
    their order, if each maps every rep to a rep; else the identity alone."""
    images = [tuple(index.get(tuple(pi[a - 1] for a in r)) for r in reps)
              for pi in relabellings(g) or ()]
    if not images or any(None in perm for perm in images):
        return [tuple(range(len(reps)))]
    return list(dict.fromkeys(images))


def run_tup_sweep(g: GroupTable, cfg: RewriteConfig, reps: Sequence[Word],
                  max_size: int, limit: int | None = None,
                  progress: Callable[[int], None] | None = None
                  ) -> tuple[dict, dict | None]:
    """Check every subset pair over `reps`, which must be canonical and
    pairwise distinct (ValueError otherwise); stop at the cap or at the first
    failure.  Returns (summary, failure-or-None); the summary's `capped` is
    True when the cap stopped the sweep with specs left.  The sweep builds
    each side C as the stream reaches it (`subset_specs_over`) and no list of
    partners: `product_report` walks C's partners in colex order, and a
    failing D is read off `subsets_colex` at its position.

    Each relabelling of the letters is an automorphism of the monoid
    (`quaternion.relabellings`); when each sends every rep to a rep, it maps
    every pair to one with the same unique count (else the group is the
    identity alone).  Only the sides C that come first in their orbit are
    decided, each with every partner D up to the cap.  A pair whose C comes
    later counts as checked when the stream passes it: some relabelling
    moves C to the side leading its orbit, so the image pair, of the same
    sizes, came earlier in the stream with the same verdict.  The first
    failing pair, the minimum and the cap are thus those of deciding every
    pair.  `relabellings` is the number of permutations used, `specs_decided`
    the pairs decided and `products` the number of distinct interned rep
    products."""
    t0 = time.perf_counter()
    canon = canonicalizer(g, cfg)
    index: dict[Word, int] = {}
    for i, r in enumerate(reps):
        if canon(r) != r:
            raise ValueError(f"rep {format_word(r)} is not its canonical form")
        if r in index:
            raise ValueError(f"rep {format_word(r)} repeats an earlier rep")
        index[r] = i
    ids: dict[Word, int] = {}

    def intern(c: Word, d: Word) -> int:
        w = canon(c + d)
        assert len(w) == len(c) + len(d)  # relations preserve length
        return ids.setdefault(w, len(ids))

    product = [[intern(c, d) for d in reps] for c in reps]
    group = _rep_permutations(g, reps, index)
    checked = decided = 0
    tick = 50000
    capped = False
    min_unique: int | None = None
    failure: dict | None = None
    m = len(reps)
    for C, first in subset_specs_over(reps, max_size):
        total = sum(comb(m, s) for s in range(first, max_size + 1))
        take = total if limit is None else max(0, min(total, limit - checked))
        # sides of one size compare in colex order by their reversed members
        lead = sorted(C, reverse=True)
        if all(sorted((sigma[i] for i in C), reverse=True) >= lead
               for sigma in group):
            counts = product_report(C, product, first, take)
            if counts:
                low = min(counts)
                if low < 2:  # the first failing pair ends the sweep
                    j = next(j for j, u in enumerate(counts) if u < 2)
                    del counts[j + 1:]
                    low = counts[j]
                    # C's partners start after the sides smaller than first
                    D = next(itertools.islice(subsets_colex(m, max_size),
                                              (first - 1) * m + j, None))
                    failure = {
                        "C": [format_word(reps[i]) for i in C],
                        "D": [format_word(reps[i]) for i in D],
                        "unique_count": counts[j],
                        "spec_index": checked + j,
                    }
                if min_unique is None or low < min_unique:
                    min_unique = low
            decided += len(counts)
        checked = failure["spec_index"] + 1 if failure else checked + take
        # a tick per multiple of 50,000 passing pairs, as if counted singly
        while progress is not None and tick <= checked - (failure is not None):
            progress(tick)
            tick += 50000
        if failure is not None:
            break
        if take < total:
            capped = True
            break
    summary = {
        "k": g.k,
        "max_len": max((len(r) for r in reps), default=0),
        "max_size": max_size,
        "specs_checked": checked,
        "capped": capped,
        "min_unique_count": min_unique,
        "relabellings": len(group),
        "specs_decided": decided,
        "products": len(ids),
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    return summary, failure


def _sampled_triples(g: GroupTable, cfg: RewriteConfig, trials: int,
                     max_len: int, rng: random.Random
                     ) -> Iterator[tuple[Word, Word, Word]]:
    """`trials` random (a, b, c) from one `word_sampler`; half the time b
    is drawn from the class of a, so the antecedent is frequently true
    instead of almost never."""
    word, coin = word_sampler(rng, g, max_len), rng.random
    for _ in range(trials):
        a = word()
        if coin() < 0.5:
            b = random_member(rng, class_of(a, g, cfg))
        else:
            b = word(len(a))
        yield a, b, word()


def cancellation_report(g: GroupTable, cfg: RewriteConfig, trials: int,
                        max_len: int, rng: random.Random,
                        progress: Callable[[int], None]) -> dict:
    """Sampled test of both cancellation laws: ac = bc implies a = b, and
    ca = cb implies a = b.  Each violation names its 0-based trial, so the
    same seed run for trial + 1 trials ends on it.  ValueError if
    2 * max_len exceeds the cap.

    Each trial decides a = b first.  When it holds, ac = bc and ca = cb
    follow by congruence: both antecedents count as hits, nothing can
    fail, and no product is compared.  When a != b and their grades
    (`words.grade`) differ, so do those of ac and bc and of ca and cb, and
    neither antecedent can hold.  Only the trials with a != b and one grade,
    counted as `unequal_same_letters`, compare the two sides, right then
    left, and only they can fail.

    The sample is blind where it matters.  Those trials are few (26 of
    12,000 at k=2 and 3 of 12,000 at k=3, seed 0), every antecedent hit
    comes from a pair equal by construction, and at 2,000 trials with
    seeds 0-2 the sample flags neither non-cancellative planted table of
    the tests (the k=2 table with one window made a transposition, and
    the two-element table).  A pass is a smoke test; the route to a proof
    is Adjan's theorem on the left and right graphs of the windows.
    """
    check_product_length(max_len, cfg)
    triples = _sampled_triples(g, cfg, trials, max_len, rng)
    violations: list[dict] = []
    antecedent_hits = unequal_same_letters = 0
    for trial, (a, b, c) in enumerate(triples):
        if words_equal(a, b, g, cfg):
            antecedent_hits += 2
        elif grade(a, g) == grade(b, g):
            unequal_same_letters += 1
            for side, x, y in (("right", a + c, b + c),
                               ("left", c + a, c + b)):
                if words_equal(x, y, g, cfg):
                    antecedent_hits += 1
                    violations.append({
                        "trial": trial, "side": side,
                        "a": format_word(a), "b": format_word(b),
                        "c": format_word(c),
                    })
        if (trial + 1) % 1000 == 0:
            progress(trial + 1)
    return {
        "trials": trials,
        "max_len": max_len,
        "antecedent_hits": antecedent_hits,
        "unequal_same_letters": unequal_same_letters,
        "violations": violations,
        "passed": not violations,
    }
