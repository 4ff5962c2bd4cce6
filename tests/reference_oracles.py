"""Reference models that the package is tested against.

- Brute-force scans of the four forward window lemmas, of the overlap bound,
  of Stepss and of Step3 over every cell: the slow reference for the
  searching, counting and orbit-cut oracles in `qsemi.lemmas`.  With
  `wide`, Step3 also takes `step3_tails`' wider radius: each chain tail
  followed by a tail of at most one letter, and every window.
- `chain_tails`, the tails that chain a second window onto a window, by
  slicing every image tuple at every overlap, the reference for
  `lemmas._chain_tails`; `stepss_seeds` builds on it the classes Stepss
  decides on every row, and with `wide` also chains of three windows and
  tails of up to one letter, the radius that `lemmas.verify_stepss` argues
  adds nothing.
- `relation_factors`, the windows of a word by slicing at every position,
  the reference for `words.find_relation_factors`;
  `factor_occurrences`, the starts of a factor by slicing every image tuple
  at every position, the reference for `GroupTable.occurrences`; and
  `max_overlap`, every window's proper suffixes sliced against every
  window's prefixes, the reference for `GroupTable.max_overlap`.
- `naive_class`, congruence classes by brute slice comparison, the
  reference for `words.class_of`, and `tup_sweep`, the two unique products
  sweep by pairwise class membership, the reference for
  `structure.run_tup_sweep`.  `unique_product_count`, the count over
  interned product ids with two sets, is the reference for the bitmask
  kernel `structure.product_report`.  Each lemma scan walks its
  quantifier range in the order of the statement and returns
  `(holds, instances, unsatisfiable)`.  It stops at the first violation,
  so the two counts are the size of the whole range only when the lemma
  holds.
- The normal-form arithmetic on labels t^i u^j, which the group table is
  checked against point by point.
- Addition and support lengths in the monoid algebra, for the ring laws;
  `ungraded_zero_divisor_search`, the search that multiplies every trial
  under any canonicalizer, the reference for the graded
  `algebra.zero_divisor_search`; and `collapse_canon`, the degenerate
  quotient that the ungraded search must find a hit in, its control.
- `compared_cancellation_report`, the sampled cancellation check that
  compares ac with bc and ca with cb on every trial and decides a = b
  only after an antecedent hit: the reference for
  `structure.cancellation_report`, which settles a = b first.
- `critical_pairs`, every overlap of two left sides of a table's rewrite
  rules and every left side inside another, found by slicing each left
  side at every letter against the left sides that start with it, the
  reference for `words._critical_pairs`; and
  `certify`, which joins all of them up to chain length 3, each reduct
  rewritten from its first letter: the full join that the reference for
  `words._certify` keeps, which needs chains of 3 on any table.
- `normal_form`, one rewrite under a table's certified rules, which
  `words.canonical_form` inlines.
- The samplers in slow form: `random_word` and `seeded_word`, one word
  through a frame per draw, the reference for `words.word_sampler`, which
  inlines them; `random_element`, an element through `element_from_pairs`,
  the reference for the elements `algebra.zero_divisor_search` draws in
  one loop; and the word samplers as they were drawn through `randint`
  and `randrange`, the stream that `words.draw` must reproduce bit for
  bit.  `randint_seeded_word` also takes the window probability that
  `words.word_sampler` fixes at 1/2, for the tests that want windows more
  often.  The tests also draw their own random words through these.
"""

from __future__ import annotations

import itertools

from qsemi import algebra, structure, words
from qsemi.algebra import AlgebraElement, SearchResult, element_from_pairs
from qsemi.lemmas import (verify_big, verify_max_one, verify_not_possible,
                          verify_overlapp, verify_sym_max_one,
                          verify_sym_not_possible, verify_sym_overlapp)
from qsemi.quaternion import GroupTable, Label
from qsemi.words import (check_product_length, class_of, draw, format_word,
                         words_equal)

# the oracles that scan their whole quantifier range, in suite order
EXHAUSTIVE = (verify_not_possible, verify_max_one, verify_big,
              verify_overlapp, verify_sym_not_possible, verify_sym_max_one,
              verify_sym_overlapp)


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
    """A suffix of one window matches a prefix of another in at most one
    letter: for 2 <= j <= n the length-j suffix of one image tuple is never
    the length-j prefix of another (at j = n the two may be one tuple)."""
    n = g.n
    return not any(s[n - j:] == t[:j] and not (j == n and s == t)
                   for s in g.elements for t in g.elements
                   for j in range(2, n + 1))


def chain_tails(g, t):
    """f(s+1..n) for every window f and every s from 1 to n-1 where f's
    first s letters are t's last s, in s order then element order, by
    `factor_occurrences`: the reference for `lemmas._chain_tails`, which
    stops at `max_overlap`."""
    return [g.elements[idx][s:] for s in range(1, g.n)
            for idx, _ in factor_occurrences(g, t[-s:], 1)]


def stepss_seeds(g, wide=False):
    """Each window t, then each chain t v (v in `chain_tails`), for every
    row in element order, no orbit cut: the classes `lemmas.verify_stepss`
    decides.  With `wide`, also each chain of three windows t v v', and
    each chain followed by every tail of at most one letter."""
    tails = [()] + ([(a,) for a in range(1, g.n + 1)] if wide else [])
    seeds = []
    for t in g.elements:
        chains = [t] + [t + v for v in chain_tails(g, t)]
        if wide:
            chains += [c + v for c in chains[1:]
                       for v in chain_tails(g, c[-g.n:])]
        seeds += [c + x for c in chains for x in tails]
    return seeds


def stepss(g, cfg, wide=False):
    """Every ordered pair of members with distinct first letters, in every
    class of `stepss_seeds(g, wide)`: `(holds, pairs, condition_counts,
    counterexample)`, the counts being both / only the first / only the
    second word keeping its window at letter n.  Stops at the first pair,
    in sorted order, that breaks Stepss; the counterexample is that pair
    and its reason in the report's keys, None where Stepss holds."""
    n = g.n
    prefixes = {e[:n - 1] for e in g.elements}
    pairs, counts = 0, [0, 0, 0]
    for seed in stepss_seeds(g, wide):
        members = sorted(class_of(seed, g, cfg).members)
        # (word, first letter, window prefix?, window kept?) per member
        marked = [(w, w[0], w[:n - 1] in prefixes, w[:n] in g.index)
                  for w in members]
        for w1, a1, p1, c1 in marked:
            for w2, a2, p2, c2 in marked:
                if a1 == a2:
                    continue
                pairs += 1
                if not (p1 and p2):
                    reason = "first n-1 letters are not a window prefix"
                elif not (c1 or c2):
                    reason = "both words break their window at letter n"
                else:
                    counts[0 if c1 and c2 else 1 if c1 else 2] += 1
                    continue
                return False, pairs, counts, {
                    "w1": format_word(w1), "w2": format_word(w2),
                    "reason": reason}
    return True, pairs, counts, None


def relation_factors(w, g):
    """(1-based position, window) for every length-n slice of w that is an
    image tuple, no pair filter."""
    n = g.n
    return [(p0 + 1, w[p0:p0 + n]) for p0 in range(len(w) - n + 1)
            if w[p0:p0 + n] in g.elements]


def factor_occurrences(g, factor, at=None):
    """(element index, 1-based start) of every occurrence of factor in an
    image tuple, in element order, no index; with `at`, only the starts at
    `at`."""
    m = len(factor)
    return [(idx, p) for idx, e in enumerate(g.elements)
            for p in range(1, len(e) - m + 2)
            if e[p - 1:p - 1 + m] == factor and at in (None, p)]


def max_overlap(g):
    """The longest proper suffix, 1 to n-1 letters, of an image tuple that
    is a prefix of an image tuple, the same one included; 0 if none."""
    n = g.n
    return max((j for s in g.elements for t in g.elements
                for j in range(1, n) if s[n - j:] == t[:j]), default=0)


def naive_class(w, g, rounds=50):
    """Fixed-point closure by brute slice comparison, no index lookups: each
    round rewrites every window of the words the last round found."""
    members = frontier = {w}
    n = g.n
    for _ in range(rounds):
        new = set()
        for word in frontier:
            for p0 in range(len(word) - n + 1):
                if word[p0:p0 + n] in g.elements:
                    for repl in g.elements:
                        new.add(word[:p0] + repl + word[p0 + n:])
        frontier = new - members
        if not frontier:
            return members
        members = members | frontier
    raise AssertionError("no fixed point reached")


def tup_sweep(g, cfg, reps, max_size, limit=None):
    """Every subset pair (C, D) of `reps` with |C| + |D| > 2, C-major, each
    side by size and then sorted by its reversed index tuple (colex).  A
    product c d counts as unique when its class holds no other product of
    C x D.  Stops at `limit` specs or at the first with fewer than two:
    `(specs_checked, min_unique, failure)`, failure as `run_tup_sweep`
    reports it.  Products must fit cfg's word-length cap, as they must to
    be canonicalized."""
    sides = [s for size in range(1, max_size + 1)
             for s in sorted(itertools.combinations(range(len(reps)), size),
                             key=lambda s: s[::-1])]
    classes = {}
    checked, min_unique = 0, None
    for C in sides:
        for D in sides:
            if len(C) + len(D) <= 2:
                continue
            if limit is not None and checked >= limit:
                return checked, min_unique, None
            checked += 1
            products = [reps[c] + reps[d] for c in C for d in D]
            assert all(len(w) <= cfg.max_word_length for w in products)
            unique = 0
            for i, w in enumerate(products):
                if w not in classes:
                    classes[w] = naive_class(w, g)
                if not any(v in classes[w] for j, v in enumerate(products)
                           if j != i):
                    unique += 1
            if min_unique is None or unique < min_unique:
                min_unique = unique
            if unique < 2:
                return checked, min_unique, {
                    "C": [format_word(reps[c]) for c in C],
                    "D": [format_word(reps[d]) for d in D],
                    "unique_count": unique,
                    "spec_index": checked - 1,
                }
    return checked, min_unique, None


def unique_product_count(C, D, product):
    """The number of products c d, c in C and d in D, that no other pair
    of C x D presents, counted over the ids product[c][d] with a set of
    ids seen and a set of ids seen again."""
    seen, repeated = set(), set()
    for c in C:
        for d in D:
            p = product[c][d]
            if p in seen:
                repeated.add(p)
            else:
                seen.add(p)
    return len(seen) - len(repeated)


def step3_tails(g, t, wide=False):
    """The tails v of each Step3 cell (t, i): `chain_tails`, the family
    `lemmas.verify_step3` checks.  With `wide`, each chain tail followed
    by every tail of at most one letter, and then every window: the tails
    of up to n letters that let t(i+1..n) v hold a window, the radius that
    `lemmas.verify_step3` argues adds nothing."""
    tails = chain_tails(g, t)
    if not wide:
        return tails
    xs = [()] + [(a,) for a in range(1, g.n + 1)]
    return list(dict.fromkeys([v + x for v in tails for x in xs]
                              + list(g.elements)))


def step3_every_cell(g, wide=False):
    """Step3 over every element t, every i and every tail v of
    `step3_tails(g, t, wide)`, with no orbit cut, each class's members in
    sorted order: `(holds, members, failure)`, members counting every
    class member checked.  Stops at the first member of t(i+1..n) v that
    neither keeps t(i+1..n) nor reads t(i+1..n-1) and then a window
    prefix; failure is that member, its reason, cell and seed in the
    report's keys, None where Step3 holds."""
    n = g.n
    prefixes = {e[:n - 1] for e in g.elements}
    members = 0
    for ti, t in enumerate(g.elements):
        tails = step3_tails(g, t, wide)
        for i in range(1, n):
            for v in tails:
                seed = t[i:] + v
                for w in sorted(naive_class(seed, g)):
                    members += 1
                    if w[:n - i] == t[i:]:
                        continue
                    if w[:n - 1 - i] != t[i:n - 1]:
                        reason = "prefix leaves t(i+1..n-1) before letter n"
                    elif len(w) < 2 * n - 2 - i:
                        reason = "too short for the alternative prefix shape"
                    elif w[n - 1 - i:2 * n - 2 - i] not in prefixes:
                        reason = "no window prefix after t(i+1..n-1)"
                    else:
                        continue
                    return False, members, {
                        "w1": format_word(w), "reason": reason,
                        "tau": g.label_name(ti), "i": i,
                        "seed": format_word(seed)}
    return True, members, None


def point_of_label(label: Label, k: int) -> int:
    """The point standing for the element t^i u^j."""
    i, j = label
    return i + 1 if j == 0 else 2 * k + i + 1


def label_of_point(p: int, k: int) -> Label:
    if 1 <= p <= 2 * k:
        return (p - 1, 0)
    if 2 * k < p <= 4 * k:
        return (p - 2 * k - 1, 1)
    raise ValueError(f"point {p} out of range 1..{4 * k}")


def label_mul(a: Label, b: Label, k: int) -> Label:
    """Product of two elements in (i, j) normal form."""
    i1, j1 = a
    i2, j2 = b
    i = i1 + (i2 if j1 == 0 else -i2)
    if j1 == 1 and j2 == 1:
        i += k
    return (i % (2 * k), (j1 + j2) % 2)


def algebra_add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    if x.p != y.p:
        raise ValueError("mixed moduli")
    terms = dict(x.terms)
    for w, c in y.terms.items():
        s = (terms.get(w, 0) + c) % x.p
        if s:
            terms[w] = s
        else:
            terms.pop(w, None)
    return AlgebraElement(x.p, terms)


def support_lengths(x: AlgebraElement) -> set[int]:
    return {len(w) for w in x.terms}


def collapse_canon(w):
    """Degenerate control quotient: letter 2 equals letter 1, and runs of
    three or more 1s drop two letters (so 1 + 1,1 squares to zero mod 2)."""
    w = tuple(1 if x == 2 else x for x in w)
    out = []
    i = 0
    while i < len(w):
        if w[i] == 1:
            j = i
            while j < len(w) and w[j] == 1:
                j += 1
            run = j - i
            if run >= 3:
                run = (run - 1) % 2 + 1
            out.extend([1] * run)
            i = j
        else:
            out.append(w[i])
            i += 1
    return tuple(out)


def ungraded_zero_divisor_search(canon, word_sampler, p, trials, max_support,
                                 rng):
    """The zero-divisor search with every trial multiplied in full under
    `canon`, support words drawn by `word_sampler`; stops at the first
    hit.  It draws the stream the graded search draws.  Each product goes
    through the module attribute `algebra.mul_with_canon`, the name the
    benchmark traces."""
    for trial in range(trials):
        x = random_element(rng, p, canon, word_sampler, max_support)
        y = random_element(rng, p, canon, word_sampler, max_support)
        if algebra.mul_with_canon(x, y, canon).is_zero():
            return SearchResult((x, y), trial, 0, trial + 1)
    return SearchResult(None, None, 0, trials)


def compared_cancellation_report(g, cfg, trials, max_len, rng):
    """The cancellation report with both sides of every trial compared,
    and a = b decided at the first antecedent hit.  It draws its triples
    through the module attribute `structure._sampled_triples`, so a test
    that patches the stream patches this reference too."""
    check_product_length(max_len, cfg)
    triples = structure._sampled_triples(g, cfg, trials, max_len, rng)
    violations: list[dict] = []
    antecedent_hits = 0
    for trial, (a, b, c) in enumerate(triples):
        ab_equal: bool | None = None
        for side, x, y in (("right", a + c, b + c), ("left", c + a, c + b)):
            if not words_equal(x, y, g, cfg):
                continue
            antecedent_hits += 1
            if ab_equal is None:
                ab_equal = words_equal(a, b, g, cfg)
            if not ab_equal:
                violations.append({
                    "trial": trial, "side": side,
                    "a": format_word(a), "b": format_word(b),
                    "c": format_word(c),
                })
    return {
        "trials": trials,
        "max_len": max_len,
        "antecedent_hits": antecedent_hits,
        "violations": violations,
        "passed": not violations,
    }


def critical_pairs(rules, max_m):
    """(word, reduct, reduct) for every overlap of two left sides among
    `words._rule_list(rules, max_m)` and every left side inside another."""
    listed = words._rule_list(rules, max_m)
    by_first = {}
    for rule in listed:
        by_first.setdefault(rule[0][0], []).append(rule)
    for outer in listed:
        left, right = outer
        for i, x in enumerate(left):
            for inner in by_first.get(x, ()):
                if i == 0 and inner is outer:
                    continue
                l2, r2 = inner
                cut = len(left) - i
                if len(l2) <= cut:
                    if left[i:i + len(l2)] == l2:
                        yield left, right, left[:i] + r2 + left[i + len(l2):]
                elif i and left[i:] == l2[:cut]:
                    yield left + l2[cut:], right + l2[cut:], left[:i] + r2


def certify(g):
    """The rules of g when every critical pair with chains up to 3 joins,
    each reduct rewritten from its first letter, else None."""
    rules = words._rule_table(g)
    if rules is None or any(rules.rewrite(a) != rules.rewrite(b)
                            for _, a, b in critical_pairs(rules, 3)):
        return None
    return rules


def normal_form(w, g):
    """The irreducible form of w under the certified rules of g, which is
    the lex-least member of its class.  ValueError when g fails the
    certificate."""
    rules = words._certify(g)
    if rules is None:
        raise ValueError("the table's rewriting system is not certified complete")
    return rules.rewrite(w)


def random_word(rng, n_letters, length):
    """`length` letters, each `draw(rng, 1, n_letters)` inlined."""
    if n_letters < 1:
        raise ValueError("no letters to draw from")
    bits, k = rng.getrandbits, n_letters.bit_length()
    word = []
    for _ in range(length):
        r = bits(k)
        while r >= n_letters:
            r = bits(k)
        word.append(r + 1)
    return tuple(word)


def seeded_word(rng, g, length):
    """Random word that, with probability 1/2 and room permitting, contains
    some element's image tuple as a factor."""
    n = g.n
    if length >= n and rng.random() < 0.5:
        e = g.elements[draw(rng, 0, len(g.elements) - 1)]
        off = draw(rng, 0, length - n)
        # one draw of head and tail: the same letters as two in a row
        pad = random_word(rng, n, length - n)
        return pad[:off] + e + pad[off:]
    return random_word(rng, n, length)


def random_element(rng, p, canon, word_sampler, max_support):
    """Random nonzero element; resamples if everything cancels."""
    while True:
        size = draw(rng, 1, max_support)
        pairs = [(word_sampler(rng), draw(rng, 1, p - 1))
                 for _ in range(size)]
        x = element_from_pairs(pairs, p, canon)
        if not x.is_zero():
            return x


def randint_word(rng, n_letters, length):
    return tuple(rng.randint(1, n_letters) for _ in range(length))


def randint_seeded_word(rng, g, length, p_window=0.5):
    n = g.n
    if length >= n and rng.random() < p_window:
        e = g.elements[rng.randrange(len(g.elements))]
        off = rng.randint(0, length - n)
        head = randint_word(rng, n, off)
        tail = randint_word(rng, n, length - n - off)
        return head + e + tail
    return randint_word(rng, n, length)


def randint_member(rng, cls):
    members = sorted(cls.members)
    return members[rng.randrange(len(members))]
