"""Words over n generators and the congruence generated by window rewrites.

A word is a tuple of 1-based letters.  The monoid is presented by equating,
for every table element s, the word s(1) s(2) ... s(n) with the word
1 2 ... n; equivalently any length-n factor spelling out one element's image
tuple may be replaced by any other element's image tuple.  All relations
preserve length, so each congruence class is finite; the canonical form of
a word is the lexicographically least member of its class.

Canonical forms and equality come from a rewriting system whose rules each
replace a factor by a lexicographically smaller one of the same class:

- any window other than the identity becomes 1..n;
- s[:n-1] (1..n-1)^(m-1) (1..n), for s not the identity, s(n) != 1 and
  m >= 1, becomes (1..n) e[2..n] c^(m-1), where e(1) = s(n) and
  c = f[2..n] with f(1) = n.

`_Rules.rewrite` applies them in one left-to-right scan, which after each
rewrite backs up over the whole run of 1..n-1 blocks to its left.  Its
result is the lex-least member of the class when the table passes a
completeness certificate (`_certify`): the table contains the identity, its
elements are permutations, each letter starts exactly one of them, and
every critical pair of the rules with m <= 3 joins.  The certificate is
computed on the first canonical form a table needs and cached per table
(`generate_group` builds one table per k).  `canonical_form` looks the
rules up at each call and rewrites with them on certified tables; on any
other it takes the first member from `class_of`, the one class enumerator,
which sorts the members and is also the tests' reference, with the bare
rewrite they keep as `normal_form`.  It writes a class down in closed form,
{h e' t : e' a window}, when w = h e t holds one window e and two lookups
show that no e' can chain with h or t; otherwise, and on tables whose
windows overlap in two letters or more, it runs a breadth-first closure, the
closed form's reference.  `words_equal` compares the canonical forms of
words of one `grade`, under the same word-length cap.

The samplers draw each integer with `draw`, which makes exactly the
`getrandbits` calls `random.Random.randint` makes, so a seed gives the
same words as it did through `randint` and `randrange`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .errors import BadFactor, ClassTooLarge
from .perms import Perm
from .quaternion import GroupTable

Word = tuple[int, ...]
Canon = Callable[[Word], Word]  # word -> canonical form of its class


@dataclass(frozen=True)
class RewriteConfig:
    """Hard caps: members of an enumerated class, and letters of a word
    that is enumerated, canonicalized or compared.  The word cap binds
    words of n letters or more: a shorter word is alone in its class, so
    `class_of` and `canonical_form` return it with nothing enumerated or
    rewritten, whatever the cap."""

    max_class_size: int
    max_word_length: int

    def __post_init__(self) -> None:
        if self.max_class_size < 1 or self.max_word_length < 1:
            raise ValueError("caps must be positive")


def default_config(n: int) -> RewriteConfig:
    """Desk-scale caps: classes up to 10^6 members, words up to 3n letters."""
    return RewriteConfig(max_class_size=1_000_000, max_word_length=3 * n)


def check_product_length(max_len: int, cfg: RewriteConfig) -> None:
    """ValueError unless the product of two words of up to max_len letters
    fits the word-length cap."""
    if 2 * max_len > cfg.max_word_length:
        raise ValueError(f"max_len {max_len} gives products of {2 * max_len} "
                         f"letters, over the word-length cap {cfg.max_word_length}")


@dataclass(frozen=True)
class CongruenceClass:
    """The members of one class, sorted in ascending order, no repeats."""

    members: tuple[Word, ...]


def check_word(w: Word, n: int) -> None:
    for x in w:
        if not 1 <= x <= n:
            raise ValueError(f"letter {x} out of range 1..{n}")


def parse_word(text: str, n: int) -> Word:
    """Parse the comma form '1,2,3'; the empty string is the empty word."""
    text = text.strip()
    if not text:
        return ()
    try:
        w = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"not a comma-separated word: {text!r}") from exc
    check_word(w, n)
    return w


def format_word(w: Word) -> str:
    return ",".join(str(x) for x in w)


def find_relation_factors(w: Word, g: GroupTable) -> list[tuple[int, Perm]]:
    """All (position, element) pairs where a length-n window of w spells out
    a table element's image tuple.  Positions are 1-based.  A factor is
    sliced only against the windows that start with its first letter
    (`GroupTable.starting`) and share its second."""
    n, starting = g.n, g.starting
    return [(p0 + 1, e) for p0 in range(len(w) - n + 1)
            for e in starting[w[p0]] if e[1] == w[p0 + 1] and w[p0:p0 + n] == e]


def rewrite_step(w: Word, position: int, src: Perm, dst: Perm, g: GroupTable) -> Word:
    """Replace the window at `position` spelling src's images by dst's images."""
    n = g.n
    if not 1 <= position <= len(w) - n + 1:
        raise BadFactor(f"position {position} does not fit a length-{n} window")
    if src not in g.index:
        raise BadFactor("source factor is not a table element")
    if dst not in g.index:
        raise BadFactor("target factor is not a table element")
    p0 = position - 1
    if w[p0:p0 + n] != src:
        raise BadFactor(f"window at position {position} does not spell the source factor")
    return w[:p0] + dst + w[p0 + n:]


def _check_length(w: Word, cfg: RewriteConfig) -> None:
    if len(w) > cfg.max_word_length:
        raise ValueError(
            f"word of length {len(w)} exceeds the cap {cfg.max_word_length}")


def _too_large(w: Word, cfg: RewriteConfig) -> ClassTooLarge:
    return ClassTooLarge(f"class of {format_word(w)} exceeded "
                         f"{cfg.max_class_size} members")


def class_of(w: Word, g: GroupTable, cfg: RewriteConfig) -> CongruenceClass:
    """The full congruence class of w: in closed form when w holds one
    window whose orbit gains no other, else by breadth-first closure under
    window rewrites.

    Closed form: let w = h e t hold its only window e.  A window of
    h e' t (e' in the table) that is not e' itself lies partly in e',
    since one inside h or t would be a window of w; being n letters long,
    it shares a proper prefix or suffix with e'.  When no window's suffix
    meets another's prefix in more than one letter (`max_overlap` <= 1),
    that is e'(1), with the last n-1 letters of h before it, or e'(n), with
    the first n-1 letters of t after it.  So when neither the end of h is
    in `prefixes` nor the start of t in `suffixes`, every h e' t holds e'
    alone, and the class is {h e' t}, which sorts as its windows do and
    trips the cap exactly where the closure would.

    Otherwise the closure runs.  Each window orbit is expanded once: a
    frontier word carries the 1-based position of the rewrite that made it
    (0 for w), and expanding it skips that position, since its parent's
    loop there already put every word with the same head and tail in
    `seen`.  The skip adds and drops no word, so the members and the
    member count at which the cap trips are those of the plain BFS.
    """
    n = g.n
    if len(w) < n:
        return CongruenceClass((w,))
    _check_length(w, cfg)
    factors = find_relation_factors(w, g)
    if not factors:
        return CongruenceClass((w,))
    elements = g.elements
    if len(factors) == 1:
        p0 = factors[0][0] - 1
        if (g.max_overlap <= 1
                and w[max(p0 - n + 1, 0):p0] not in g.prefixes
                and w[p0 + n:p0 + 2 * n - 1] not in g.suffixes):
            if len(elements) > cfg.max_class_size:
                raise _too_large(w, cfg)
            head, tail = w[:p0], w[p0 + n:]
            # a list: tuple(generator) resizes, filling the n-tuple free list
            return CongruenceClass(tuple([head + e + tail for e in sorted(elements)]))
    seen: set[Word] = {w}
    frontier = [(w, 0)]
    while frontier:
        nxt = []
        for word, made_at in frontier:
            for pos, win in find_relation_factors(word, g):
                if pos == made_at:
                    continue
                head, tail = word[:pos - 1], word[pos - 1 + n:]
                for repl in elements:
                    if repl == win:
                        continue
                    new = head + repl + tail
                    if new in seen:
                        continue
                    seen.add(new)
                    if len(seen) > cfg.max_class_size:
                        raise _too_large(w, cfg)
                    nxt.append((new, pos))
        frontier = nxt
    return CongruenceClass(tuple(sorted(seen)))


class _Rules:
    """The length-preserving rewriting system of one table, oriented toward
    the lexicographically smaller side (see the module docstring).

    `starts[x]` is the element s whose image tuple starts with the letter
    x, None for the identity (which is no left side); `heads[x]` is the
    first 2n-1 letters `(1..n) e[2..n]` of the right side of s's schema
    rules, None when s has none; `cycle` is c = f[2..n] with f(1) = n.  (A
    plain class: building a dataclass would add to the import time of
    every command.)
    """

    __slots__ = ("n", "starts", "heads", "cycle")

    def __init__(self, n: int, starts: tuple[Perm | None, ...],
                 heads: tuple[Word | None, ...], cycle: Word) -> None:
        self.n, self.starts, self.heads, self.cycle = n, starts, heads, cycle

    def rewrite(self, w: Word) -> Word:
        """Rewrite w until no left side occurs: scan left to right, rewrite
        the redex starting at the scan position, and rescan from where the
        leftmost redex the rewrite can have created would start."""
        n, starts, heads, cycle = self.n, self.starts, self.heads, self.cycle
        ident = tuple(range(1, n + 1))
        block = ident[:-1]
        size, p = len(w), 0
        while p <= size - n:
            # every left side starting at p begins with s[:n-1]
            s, end = starts[w[p]], 0
            if s is None or w[p + 1] != s[1]:
                p += 1
                continue
            if w[p:p + n] == s:
                new, end = ident, p + n
            elif (head := heads[w[p]]) is not None and w[p:p + n - 1] == s[:-1]:
                # a run of `1..n-1` blocks, the last followed by n
                q, m = p + n - 1, 0
                while w[q:q + n - 1] == block:
                    q, m = q + n - 1, m + 1
                    if q < size and w[q] == n:
                        new, end = head + cycle * (m - 1), q + 1
                        break
            if not end:
                p += 1
                continue
            w = w[:p] + new + w[end:]
            # No redex starts left of p, so a new one reaches past p.  A
            # window starts at most n-1 letters back.  Every right side
            # starts with 1..n, so a schema left side reaching past p holds
            # the whole run of blocks that ends at p, and n-1 letters of s
            # before it.
            while p >= n - 1 and w[p - n + 1:p] == block:
                p -= n - 1
            p = max(0, p - (n - 1))
        return w


# bound on the chain length m of the schema rules whose critical pairs the
# certificate joins; see `_certify` for why it carries to every m
_SCHEMA_BOUND = 3


def _rule_table(g: GroupTable) -> _Rules | None:
    """The rules of g, or None unless g contains the identity, its elements
    are permutations of 1..n and each letter starts exactly one of them."""
    n = g.n
    ident = tuple(range(1, n + 1))
    if (ident not in g.index or not g.permutes
            or any(len(s) != 1 for s in g.starting[1:])):
        return None
    starts = (None, None) + tuple(s for s, in g.starting[2:])
    heads = tuple(None if s is None or s[-1] == 1
                  else ident + g.starting[s[-1]][0][1:] for s in starts)
    return _Rules(n, starts, heads, g.starting[n][0][1:])


def _rule_list(rules: _Rules, max_m: int) -> list[tuple[Word, Word]]:
    """(left, right) of the base rules and of the schema rules up to chain
    length max_m."""
    n = rules.n
    ident, block = tuple(range(1, n + 1)), tuple(range(1, n))
    listed = [(s, ident) for s in rules.starts if s is not None]
    for s, head in zip(rules.starts, rules.heads):
        if head is not None:
            listed += [(s[:-1] + block * (m - 1) + ident,
                        head + rules.cycle * (m - 1)) for m in range(1, max_m + 1)]
    return listed


def _critical_pairs(rules: _Rules, max_m: int):
    """(word, reduct, reduct) for every overlap of two left sides among
    `_rule_list(rules, max_m)` and every left side inside another."""
    listed = _rule_list(rules, max_m)
    by_first: dict[int, list[tuple[Word, Word]]] = {}
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


@cache
def _certify(g: GroupTable) -> _Rules | None:
    """The rules of g when they are a complete system for its monoid, else
    None; computed once per table.

    Every rule is a consequence of the relations and shrinks its word in
    the lexicographic order, which is well founded on words of one length,
    so rewriting terminates; it then decides the word problem, with the
    lex-least member of each class as the class's only irreducible word,
    exactly when every critical pair joins.  The pairs are checked for
    chain lengths m <= 3, and that stands for every m because the pairs
    are periodic in m.  A schema left side is S B^(m-1) (1..n), with
    S = s[:n-1] and B = 1..n-1.  From any point of its run B^(m-1) (1..n)
    on, the letters are a rotation of B repeated, then n: the same for
    every m up to the number of blocks.  So where another left side can
    start inside it, counted from either end, does not depend on m once
    the run holds a block on each side of that point, and the pairs of
    chain m+1 > 3 are those of chain m with one more B in the run.  Both
    sides of such a pair rewrite by the same steps as at m, the extra B
    carried along until a schema right side turns the run into c^m, so a
    pair that joins at m joins at m+1.  Chains 1 and 2 are the ends where
    the run holds no whole block or one; chain 3 is the first whose pairs
    have the generic shape.  (On the quaternion tables no left side lies
    inside another and every overlap joins the last n letters of one to
    the first n-1 of the next, so chains a, b >= 1 share the same n-2
    pairs whatever a and b.)
    """
    rules = _rule_table(g)
    if rules is None:
        return None
    for _, a, b in _critical_pairs(rules, _SCHEMA_BOUND):
        if rules.rewrite(a) != rules.rewrite(b):
            return None
    return rules


def canonical_form(w: Word, g: GroupTable, cfg: RewriteConfig) -> Word:
    """Lexicographically least member of the class of w."""
    if len(w) < g.n:
        return w
    rules = _certify(g)
    if rules is None:
        return class_of(w, g, cfg).members[0]
    _check_length(w, cfg)
    return rules.rewrite(w)


def grade(w: Word, g: GroupTable) -> list[int] | int:
    """w's sorted letters where every window of g permutes 1..n, else its
    length: each relation keeps it, so equal words have one grade.  Grades
    are ordered by length, then by least sorted letters (the lexicographic
    order on letter counts), an order that a common factor on either side
    keeps: only the top grades of C and D multiply into that of C D."""
    return sorted(w) if g.permutes else len(w)


def words_equal(w1: Word, w2: Word, g: GroupTable, cfg: RewriteConfig) -> bool:
    """Decide w1 = w2 in the monoid: words of one grade are equal exactly
    when their canonical forms are, and others never, with no rewrite.  The
    word-length cap binds each word as it binds `canonical_form`, first."""
    cap = cfg.max_word_length  # one comparison per word when both fit
    if len(w1) > cap or len(w2) > cap:
        for w in (w1, w2):
            if len(w) >= g.n:
                _check_length(w, cfg)
    return w1 == w2 or (
        grade(w1, g) == grade(w2, g)
        and canonical_form(w1, g, cfg) == canonical_form(w2, g, cfg))


def canonicalizer(g: GroupTable, cfg: RewriteConfig) -> Canon:
    """canonical_form bound to (g, cfg), looked up at each call."""
    return lambda w: canonical_form(w, g, cfg)


def draw(rng: random.Random, lo: int, hi: int) -> int:
    """`rng.randint(lo, hi)` without its three Python frames: the same
    `getrandbits` calls, retried while the bits overshoot, so the value and
    the state left in rng are those of randint."""
    n = hi - lo + 1
    if n < 1:  # getrandbits(0) is always 0, which would retry forever
        raise ValueError(f"empty range {lo}..{hi}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def random_word(rng: random.Random, n_letters: int, length: int) -> Word:
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


def seeded_word(rng: random.Random, g: GroupTable, length: int) -> Word:
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


def random_member(rng: random.Random, cls: CongruenceClass) -> Word:
    return cls.members[draw(rng, 0, len(cls.members) - 1)]
