"""Sparse elements of the monoid algebra over a prime field F_p.

Elements are dictionaries from canonical word forms to nonzero coefficients
mod p.  Multiplication concatenates supports pairwise and hands the pairs to
`element_from_pairs`, which canonicalizes each word, so coefficients of
equivalent products merge (and may cancel mod p).  The zero-divisor search
draws random nonzero elements looking for a vanishing product, each in one
loop that merges its terms the same way.

The relations of the monoid keep each word's `words.grade`, so the
products of x's and y's support words of the top grade are the only terms
of x*y of the top grade.  If one of them is equal to no other
(`unique_top_product`), its coefficient is the product of two nonzero
coefficients and x*y != 0 over every field.  The search decides each such
trial by that rule alone and multiplies in full only the trials it leaves
open.  Its control, the same search multiplying every trial over a
degenerate quotient that shortens words, lives with the tests as their
slow reference (`tests/reference_oracles.py`).
"""

from __future__ import annotations

import functools
import random
from collections import Counter, namedtuple
from collections.abc import Callable, Iterable

from .quaternion import GroupTable
from .words import (Canon, RewriteConfig, Word, canonicalizer,
                    check_product_length, format_word, grade, word_sampler)


@functools.cache
def _is_prime(p: int) -> bool:
    """Trial division, run once per modulus: every element built by
    `AlgebraElement` or `element_from_pairs`, and every search, checks its
    own."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class AlgebraElement:
    """Finitely supported map from canonical words to F_p minus zero."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: dict[Word, int]):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        for w, c in terms.items():
            if not 1 <= c <= p - 1:
                raise ValueError(f"coefficient {c} of {w} not reduced mod {p}")
        self.p = p
        self.terms = dict(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def top_words(self) -> list[Word]:
        """The support words of the greatest length; none on zero."""
        top = max(map(len, self.terms), default=0)
        return [w for w in self.terms if len(w) == top]

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgebraElement)
                and self.p == other.p and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"AlgebraElement(p={self.p}, {self.to_text()!r})"

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"{c}*{format_word(w)}" for w, c in sorted(self.terms.items())]
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "terms": [{"coef": c, "word": format_word(w)}
                      for w, c in sorted(self.terms.items())],
        }


def element_from_pairs(pairs: Iterable[tuple[Word, int]], p: int,
                       canon: Canon) -> AlgebraElement:
    """Build an element, canonicalizing words and merging coefficients.
    ValueError if p is not prime.  The merged coefficients are reduced
    and nonzero by construction, so they skip `__init__`'s checks."""
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    terms: dict[Word, int] = {}
    for w, c in pairs:
        key = canon(w)
        terms[key] = (terms.get(key, 0) + c) % p
    if 0 in terms.values():
        terms = {w: c for w, c in terms.items() if c}
    x = AlgebraElement.__new__(AlgebraElement)
    x.p, x.terms = p, terms
    return x


def mul_with_canon(x: AlgebraElement, y: AlgebraElement,
                   canon: Canon) -> AlgebraElement:
    if x.p != y.p:
        raise ValueError("mixed moduli")
    return element_from_pairs(((w1 + w2, c1 * c2) for w1, c1 in x.terms.items()
                               for w2, c2 in y.terms.items()), x.p, canon)


def unique_top_product(x_top: list[Word], y_top: list[Word],
                       canon: Canon) -> bool:
    """True when some product u + v, u in x_top and v in y_top, has a
    canonical form that no other such pair gives; with one word on each
    side that holds without a rewrite.  For x's and y's support words of
    the top grade, under a canon that keeps grades, True means x*y != 0."""
    if len(x_top) == 1 and len(y_top) == 1:
        return True
    counts = Counter(canon(u + v) for u in x_top for v in y_top)
    return 1 in counts.values()


SearchResult = namedtuple("SearchResult",
                          ("found", "trial", "certified", "multiplied"))
SearchResult.__doc__ = """The first vanishing product (x, y) and its 0-based
trial, or None and None; and the trials run, split into those certified by
a unique top-grade product and those multiplied in full."""


def zero_divisor_search(g: GroupTable, cfg: RewriteConfig, p: int,
                        trials: int, max_support: int, max_len: int,
                        rng: random.Random,
                        progress: Callable[[int], None]) -> SearchResult:
    """Random search of the monoid algebra for x, y != 0 with x*y = 0;
    stops at the first hit.  Support words are biased to contain defining
    windows so products actually merge terms.  A trial with a unique
    top-grade product is certified without the multiplication; the rule
    draws nothing, so the stream of trials is that of multiplying every
    one.  ValueError if 2 * max_len exceeds the word-length cap, or else if
    p is not prime or max_support or max_len is not positive.  p is checked
    here once, so the elements drawn skip `AlgebraElement`'s checks."""
    check_product_length(max_len, cfg)
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if max_support < 1:  # getrandbits(0) is always 0: no size would do
        raise ValueError(f"max_support {max_support} is not positive")
    canon = canonicalizer(g, cfg)
    word = word_sampler(rng, g, max_len)
    bits = rng.getrandbits
    k_size, k_coef = max_support.bit_length(), (p - 1).bit_length()

    def element() -> AlgebraElement:
        # a nonzero element, redrawn if everything cancels: its size, then
        # each term's word and coefficient, `draw`'s loop inlined
        while True:
            size = bits(k_size)
            while size >= max_support:
                size = bits(k_size)
            terms: dict[Word, int] = {}
            for _ in range(size + 1):
                key = canon(word())
                c = bits(k_coef)
                while c >= p - 1:
                    c = bits(k_coef)
                terms[key] = (terms.get(key, 0) + c + 1) % p
            if 0 in terms.values():
                terms = {w: c for w, c in terms.items() if c}
            if terms:
                x = AlgebraElement.__new__(AlgebraElement)
                x.p, x.terms = p, terms
                return x

    def top(x: AlgebraElement) -> list[Word]:
        # graded only on a tie: grading every word costs more than it saves
        words = x.top_words()
        if len(words) > 1:
            least = min(grade(w, g) for w in words)
            words = [w for w in words if grade(w, g) == least]
        return words

    certified = multiplied = 0
    for trial in range(trials):
        x = element()
        y = element()
        if unique_top_product(top(x), top(y), canon):
            certified += 1
        else:
            multiplied += 1
            if mul_with_canon(x, y, canon).is_zero():
                return SearchResult((x, y), trial, certified, multiplied)
        if (trial + 1) % 1000 == 0:
            progress(trial + 1)
    return SearchResult(None, None, certified, multiplied)
