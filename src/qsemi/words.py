"""Words over n generators and the congruence generated by window rewrites.

A word is a tuple of 1-based letters.  The monoid is presented by equating,
for every table element s, the word s(1) s(2) ... s(n) with the word
1 2 ... n; equivalently any length-n factor spelling out one element's image
tuple may be replaced by any other element's image tuple.  All relations
preserve length, so each congruence class is finite and can be enumerated
outright by breadth-first closure; the canonical form of a word is the
lexicographically least member of its class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .errors import BadFactor, ClassTooLarge
from .perms import Perm
from .quaternion import GroupTable

Word = tuple[int, ...]
Canon = Callable[[Word], Word]  # word -> canonical form of its class


@dataclass(frozen=True)
class RewriteConfig:
    """Hard caps on class enumeration."""

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
    members: frozenset[Word]


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
    a table element's image tuple.  Positions are 1-based."""
    n, index = g.n, g.index
    return [(p0 + 1, win) for p0 in range(len(w) - n + 1)
            if (win := w[p0:p0 + n]) in index]


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


def _closure(w: Word, g: GroupTable, cfg: RewriteConfig,
             target: Word | None = None) -> tuple[set[Word], bool]:
    """BFS closure of {w} under window rewrites.

    Stops early (second item True) as soon as `target` shows up.
    """
    n = g.n
    if len(w) > cfg.max_word_length:
        raise ValueError(
            f"word of length {len(w)} exceeds the cap {cfg.max_word_length}")
    if target is not None and w == target:
        return {w}, True
    seen: set[Word] = {w}
    frontier = [w]
    elements = g.elements
    while frontier:
        nxt = []
        for word in frontier:
            for pos, win in find_relation_factors(word, g):
                head, tail = word[:pos - 1], word[pos - 1 + n:]
                for repl in elements:
                    if repl == win:
                        continue
                    new = head + repl + tail
                    if new in seen:
                        continue
                    seen.add(new)
                    if len(seen) > cfg.max_class_size:
                        raise ClassTooLarge(
                            f"class of {format_word(w)} exceeded "
                            f"{cfg.max_class_size} members")
                    if target is not None and new == target:
                        return seen, True
                    nxt.append(new)
        frontier = nxt
    return seen, False


def class_of(w: Word, g: GroupTable, cfg: RewriteConfig) -> CongruenceClass:
    """The full congruence class of w."""
    if len(w) < g.n:
        return CongruenceClass(frozenset((w,)))
    members, _ = _closure(w, g, cfg)
    return CongruenceClass(frozenset(members))


def words_equal(w1: Word, w2: Word, g: GroupTable, cfg: RewriteConfig) -> bool:
    """Decide w1 = w2 in the monoid.  Relations preserve length, so words of
    different lengths are never equal."""
    if len(w1) != len(w2):
        return False
    if w1 == w2:
        return True
    if len(w1) < g.n:
        return False
    _, found = _closure(w1, g, cfg, target=w2)
    return found


def canonical_form(w: Word, g: GroupTable, cfg: RewriteConfig) -> Word:
    """Lexicographically least member of the class of w."""
    if len(w) < g.n:
        return w
    members, _ = _closure(w, g, cfg)
    return min(members)


def canonicalizer(g: GroupTable, cfg: RewriteConfig) -> Canon:
    """Memoizing wrapper around canonical_form."""
    memo: dict[Word, Word] = {}

    def canon(w: Word) -> Word:
        r = memo.get(w)
        if r is None:
            r = canonical_form(w, g, cfg)
            memo[w] = r
        return r

    return canon


def random_word(rng: random.Random, n_letters: int, length: int) -> Word:
    return tuple(rng.randint(1, n_letters) for _ in range(length))


def seeded_word(rng: random.Random, g: GroupTable, length: int,
                p_window: float = 0.5) -> Word:
    """Random word that, with probability p_window and room permitting,
    contains some element's image tuple as a factor."""
    n = g.n
    if length >= n and rng.random() < p_window:
        e = g.elements[rng.randrange(len(g.elements))]
        off = rng.randint(0, length - n)
        head = random_word(rng, n, off)
        tail = random_word(rng, n, length - n - off)
        return head + e + tail
    return random_word(rng, n, length)


def random_member(rng: random.Random, cls: CongruenceClass) -> Word:
    members = sorted(cls.members)
    return members[rng.randrange(len(members))]
