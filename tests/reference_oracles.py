"""Brute-force scans of the four forward window lemmas, of the overlap
bound and of Stepss: the slow reference that the pair-index oracles in
`qsemi.lemmas` and `qsemi.words.check_overlap_bound` are tested against.

Each lemma scan walks its quantifier range in the order of the statement and
returns `(holds, instances, unsatisfiable)`.  It stops at the first
violation, so the two counts are the size of the whole range only when the
lemma holds.
"""

from __future__ import annotations

import random

from qsemi.lemmas import default_stepss_seeds
from qsemi.quaternion import GroupTable
from qsemi.words import class_of


def reversed_table(g):
    """The same table with every image tuple read right to left."""
    return GroupTable(k=g.k, n=g.n, elements=tuple(e[::-1] for e in g.elements),
                      labels=g.labels, t=g.t, u=g.u)


def not_possible(g):
    n, half = g.n, g.n // 2
    instances = 0
    for s in g.elements:
        for t in g.elements:
            for p in range(1, half):            # 1 <= p <= n/2 - 1
                for q in range(half + 1, n):    # n/2 < q <= n - 1
                    instances += 1
                    if s[p - 1:p + 1] == t[q - 1:q + 1]:
                        return False, instances, 0
    return True, instances, 0


def max_one(g):
    n, half = g.n, g.n // 2
    instances = 0
    for si, s in enumerate(g.elements):
        for ti, t in enumerate(g.elements):
            for i in range(1, half - 1):        # 1 <= i < n/2 - 1
                for j in range(i, n + 1):
                    instances += 1
                    if (s[n - j + i - 1:] == t[i - 1:j]
                            and not (j == i or (j == n and si == ti))):
                        return False, instances, 0
    return True, instances, 0


def big(g):
    half = g.n // 2
    instances = 0
    for si, s in enumerate(g.elements):
        for ti, t in enumerate(g.elements):
            for j in range(1, half + 1):
                for i in range(1, half + 1):
                    instances += 1
                    if (s[j - 1:j + half] == t[i - 1:i + half]
                            and not (i == j and si == ti)):
                        return False, instances, 0
    return True, instances, 0


def overlapp(g):
    n = g.n
    # factors of the windows by (start, end) position, for the lambda side
    factors = {(i, end): {lam[i - 1:end] for lam in g.elements}
               for i in (1, 2) for end in range(i, n + 1)}
    instances = unsatisfiable = 0
    for si, s in enumerate(g.elements):
        for ti, t in enumerate(g.elements):
            if si == ti:
                continue
            for m in (n - 1, n):
                for l in range(1, m):
                    for j in range(1, l + 1):
                        lhs = s[j - 1:l] + t[l:m]
                        for i in (1, 2):
                            instances += 1
                            end = m - j + i
                            if end > n:
                                unsatisfiable += 1
                            elif (lhs in factors[(i, end)]
                                  and not (j == l and l + 1 == m)):
                                return False, instances, unsatisfiable
    return True, instances, unsatisfiable


FORWARD = {"NotPossible": not_possible, "MaxOne": max_one, "Big": big,
           "Overlapp": overlapp}


def overlap_bound(g):
    n = g.n
    return not any(s[n - j:] == t[:j] and not (j == n and s == t)
                   for s in g.elements for t in g.elements
                   for j in range(2, n + 1))


def stepss(g, cfg, max_extra=None, rng=None):
    """Every ordered pair of members with distinct first letters, in every
    class of the default Stepss seeds: `(holds, pairs, condition_counts)`,
    the counts being both / only the first / only the second word keeping
    its window at letter n.  Stops at the first pair, in sorted order, that
    breaks Stepss."""
    n = g.n
    seeds = default_stepss_seeds(g, n if max_extra is None else max_extra,
                                 rng if rng is not None else random.Random(0))
    prefixes = {e[:n - 1] for e in g.elements}
    pairs, counts = 0, [0, 0, 0]
    for seed in seeds:
        members = sorted(class_of(seed, g, cfg).members)
        for w1 in members:
            for w2 in members:
                if w1[0] == w2[0]:
                    continue
                pairs += 1
                if w1[:n - 1] not in prefixes or w2[:n - 1] not in prefixes:
                    return False, pairs, counts
                c1, c2 = w1[:n] in g.index, w2[:n] in g.index
                if not (c1 or c2):
                    return False, pairs, counts
                counts[0 if c1 and c2 else 1 if c1 else 2] += 1
    return True, pairs, counts
