"""Words over n generators and the congruence generated by window rewrites.

A word is a tuple of 1-based letters.  The monoid is presented by equating,
for every table element s, the word s(1) s(2) ... s(n) with 1 2 ... n: any
length-n factor spelling out one element's image tuple may be replaced by
any other's.  All relations preserve length, so each congruence class is
finite; the canonical form of a word is the lex-least member of its class.

Canonical forms and equality come from a rewriting system whose rules each
replace a factor by a lexicographically smaller one of the same class:

- any window other than the identity becomes 1..n;
- s[:n-1] (1..n-1)^(m-1) (1..n), for s not the identity, s(n) != 1 and
  m >= 1, becomes (1..n) e[2..n] c^(m-1), where e(1) = s(n) and
  c = f[2..n] with f(1) = n.

`_Rules.rewrite` applies them in one left-to-right scan, which after each
rewrite backs up over the whole run of 1..n-1 blocks to its left.  Its
result is the lex-least member of the class when the table passes a
completeness certificate (`_certify`, computed on the first canonical form
a table needs and cached per table): the table contains the identity, its
elements are permutations, each letter starts exactly one of them, and
every critical pair of the rules with m <= 2 joins where windows overlap
in one letter at most, m <= 3 elsewhere.  On any other table
`canonical_form` takes the first member from `class_of`, the one class
enumerator, which is also the tests' reference, with the bare rewrite
they keep as `normal_form`.  `words_equal` compares the canonical forms
of words of one `grade`, under the same word-length cap.

A run's words come from one `word_sampler`, which draws each word in one
Python frame: its length and letters by the rejection loop of `draw`
inlined, and its window and offset by `draw`, which makes exactly the
`getrandbits` calls `random.Random.randint` makes.  So a seed gives the
same words as it did through `randint` and `randrange`.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache

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

    Closed form: let w = h e t hold its only window e.  A window of h e' t
    (e' in the table) other than e' lies partly in e', since one inside h
    or t would be a window of w; being n letters long, it shares a proper
    prefix or suffix with e'.  Where windows overlap in one letter at most
    (`max_overlap` <= 1), that is e'(1), after the last n-1 letters of h,
    or e'(n), before the first n-1 letters of t.  So when neither the end
    of h is in `prefixes` nor the start of t in `suffixes`, the class is
    {h e' t}, which sorts as its windows do and trips the cap exactly
    where the closure would.

    Otherwise the closure runs.  Each window orbit is expanded once: a
    frontier word carries the 1-based position of the rewrite that made it
    (0 for w), and expanding it skips that position, since its parent's
    loop there already put every word with the same head and tail in
    `seen`; the members and the cap's trip point are those of plain BFS.
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
    the lexicographically smaller side (the module docstring lists it):
    `starts[x]` is the element s whose image tuple starts with the letter
    x, None for the identity (which is no left side); `heads[x]` is the
    first 2n-1 letters `(1..n) e[2..n]` of the right side of s's schema
    rules, None when s has none; `cycle` is c = f[2..n] with f(1) = n.  (A
    plain class: a dataclass would add to every command's import time.)
    """

    __slots__ = ("n", "starts", "heads", "cycle")

    def __init__(self, n: int, starts: tuple[Perm | None, ...],
                 heads: tuple[Word | None, ...], cycle: Word) -> None:
        self.n, self.starts, self.heads, self.cycle = n, starts, heads, cycle

    def rewrite(self, w: Word, p: int = 0) -> Word:
        """Rewrite w until no left side occurs, given that w[:p] holds
        none: scan from where the leftmost redex reaching past p would
        start, rewrite the first redex found, and rescan the same way."""
        n, starts, heads, cycle = self.n, self.starts, self.heads, self.cycle
        ident, size = tuple(range(1, n + 1)), len(w)
        block = ident[:-1]
        if p and w[p - (j := w[p - 1]):p] == ident[:j]:
            p -= j  # back to the start of a block that p cuts
        while True:
            # No redex starts left of p, so one reaches past p: a window at
            # most n-1 letters back, a schema left side n-1 letters before
            # the whole run of blocks that ends at p, which cuts none of its
            # blocks (a right side's 1..n starts at p, or the step above).
            while p >= n - 1 and w[p - n + 1:p] == block:
                p -= n - 1
            p = max(0, p - (n - 1))
            while p <= size - n:
                # each left side at p begins with s[:n-1]: check two letters
                s, end = starts[w[p]], 0
                if s is None or w[p + 1] != s[1] or w[p + n - 2] != s[-2]:
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
                if end:
                    break
                p += 1
            else:
                return w
            w = w[:p] + new + w[end:]


def _rule_table(g: GroupTable) -> _Rules | None:
    """The rules of g, or None unless g contains the identity, its elements
    are permutations of 1..n and each letter starts exactly one of them."""
    n, ident = g.n, tuple(range(1, g.n + 1))
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
    ident, block = tuple(range(1, rules.n + 1)), tuple(range(1, rules.n))
    listed = [(s, ident) for s in rules.starts if s is not None]
    for s, head in zip(rules.starts, rules.heads):
        if head is not None:
            listed += [(s[:-1] + block * (m - 1) + ident,
                        head + rules.cycle * (m - 1)) for m in range(1, max_m + 1)]
    return listed


def _critical_pairs(rules: _Rules, max_m: int):
    """(left, right, tail, reduct) for every overlap of two left sides
    among `_rule_list(rules, max_m)` and every left side inside another:
    left + tail rewrites to right + tail and to reduct.  Each left side
    starting with x starts with s[:n-1], s = starts[x]: a start is checked
    against those letters once, first the last that the outer side holds."""
    n, starts, listed = rules.n, rules.starts, _rule_list(rules, max_m)
    by_first: dict[int, list[tuple[Word, Word]]] = {}
    for rule in listed:
        by_first.setdefault(rule[0][0], []).append(rule)
    for outer in listed:
        left, right = outer
        for i, x in enumerate(left):
            j = min(len(left), i + n - 1)
            if ((s := starts[x]) is None or left[j - 1] != s[j - i - 1]
                    or left[i:j] != s[:j - i]):
                continue
            for inner in by_first[x]:
                if i == 0 and inner is outer:
                    continue
                l2, r2 = inner
                cut = len(left) - i
                if len(l2) <= cut:
                    if left[i:i + len(l2)] == l2:
                        yield left, right, (), left[:i] + r2 + left[i + len(l2):]
                elif i and left[i:] == l2[:cut]:
                    yield left, right, l2[cut:], left[:i] + r2


@cache
def _certify(g: GroupTable) -> _Rules | None:
    """The rules of g when they are a complete system for its monoid, else
    None; computed once per table.

    Every rule is a consequence of the relations and shrinks its word in
    the lexicographic order, well founded on words of one length, so
    rewriting terminates, and it decides the word problem (each class's
    lex-least member its only irreducible word) exactly when every
    critical pair joins; any reductions of both reducts to irreducible
    words then meet, so each right side is rewritten once, and right + tail
    resumes after its normal form.

    The pairs are periodic in the chain length m.  A schema left side is
    S B^(m-1) (1..n), with S = s[:n-1] and B = 1..n-1, and from any point
    of its run on, the letters are a rotation of B repeated, then n.  So
    where another left side can start inside it, counted from either end,
    does not depend on m once the run holds a block on each side of that
    point: the pairs of chain m+1 are those of chain m with one more B in
    the run, both sides rewrite by the same steps, the extra B carried
    along until a schema right side turns the run into c^m, and a pair
    that joins at m joins at m+1.  Chain 3 is the first with a block on
    each side of every point, so m <= 3 stands for every m, and m <= 2
    where windows share one letter at most (`max_overlap` <= 1, every
    quaternion table).  There a left side at i inside S is the window
    S[i:] 1..i+1 (a schema side has 1 where the run has i+1), whose last
    i+1 letters begin 1..n; one starting in the run meets it in a suffix of
    1..n, as n letters of the run repeat one unless they end it and
    S' = B would make s' the identity.  So every overlap is the outer
    side's last letter, no left side lies inside another, and the one
    point, the end of the run, has a block before it from chain 2 on
    (chain 1 has S there); the inner side's run lies past it.
    """
    if (rules := _rule_table(g)) is None:
        return None
    normal = cache(rules.rewrite)  # each right side rewritten once
    for _, right, tail, reduct in _critical_pairs(
            rules, 2 if g.max_overlap <= 1 else 3):
        head = normal(right)
        if rules.rewrite(head + tail, len(head)) != rules.rewrite(reduct):
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
    the state left in rng are those of randint.  The samplers' hot draws
    (`word_sampler`'s lengths and letters, the zero-divisor search's sizes
    and coefficients) inline this loop."""
    n = hi - lo + 1
    if n < 1:  # getrandbits(0) is always 0, which would retry forever
        raise ValueError(f"empty range {lo}..{hi}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def word_sampler(rng: random.Random, g: GroupTable,
                 max_len: int) -> Callable[..., Word]:
    """The sampler of one run's words over g: `word(length)` draws a word
    of `length` letters, which with probability 1/2 and room permitting
    contains some element's image tuple as a factor, and `word()` first
    draws its length as `draw(rng, 1, max_len)`.  Each word is one Python
    frame: the length and every letter are `draw`'s rejection loop inlined
    on one bound `getrandbits`, and only the window and its offset call
    `draw`.  The letters around the window are drawn in one run, the same
    bits as head then tail."""
    if max_len < 1:  # getrandbits(0) is always 0, which would retry forever
        raise ValueError(f"empty range 1..{max_len}")
    n, elements = g.n, g.elements
    bits, coin = rng.getrandbits, rng.random
    k, k_len, last = n.bit_length(), max_len.bit_length(), len(elements) - 1

    def word(length: int | None = None) -> Word:
        if length is None:
            length = bits(k_len)
            while length >= max_len:
                length = bits(k_len)
            length += 1
        window = length >= n and coin() < 0.5
        if window:
            e = elements[draw(rng, 0, last)]
            off = draw(rng, 0, length - n)
            length -= n
        letters = []
        for _ in range(length):
            r = bits(k)
            while r >= n:
                r = bits(k)
            letters.append(r + 1)
        if window:
            return (*letters[:off], *e, *letters[off:])
        return tuple(letters)

    return word


def random_member(rng: random.Random, cls: CongruenceClass) -> Word:
    return cls.members[draw(rng, 0, len(cls.members) - 1)]
