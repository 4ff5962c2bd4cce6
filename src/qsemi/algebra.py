"""Sparse elements of the monoid algebra over a prime field F_p.

Elements are dictionaries from canonical word forms to nonzero coefficients
mod p.  Multiplication concatenates supports pairwise and re-canonicalizes,
so coefficients of equivalent products merge (and may cancel mod p).  The
zero-divisor search repeatedly multiplies random nonzero elements looking
for a vanishing product; the canonicalizer is a parameter so the identical
search can run against a deliberately degenerate quotient as a control.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Iterable

from .quaternion import GroupTable
from .words import (Canon, RewriteConfig, Word, canonicalizer,
                    check_product_length, draw, format_word, seeded_word)


@functools.cache
def _is_prime(p: int) -> bool:
    """Trial division, run once per modulus: every element checks its own."""
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
    """Build an element, canonicalizing words and merging coefficients."""
    terms: dict[Word, int] = {}
    for w, c in pairs:
        key = canon(tuple(w))
        terms[key] = (terms.get(key, 0) + c) % p
    return AlgebraElement(p, {w: c for w, c in terms.items() if c})


def mul_with_canon(x: AlgebraElement, y: AlgebraElement,
                   canon: Canon) -> AlgebraElement:
    if x.p != y.p:
        raise ValueError("mixed moduli")
    p = x.p
    terms: dict[Word, int] = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            key = canon(w1 + w2)
            s = (terms.get(key, 0) + c1 * c2) % p
            if s:
                terms[key] = s
            else:
                terms.pop(key, None)
    return AlgebraElement(p, terms)


def random_element(rng: random.Random, p: int, canon: Canon,
                   word_sampler: Callable[[random.Random], Word],
                   max_support: int) -> AlgebraElement:
    """Random nonzero element; resamples if everything cancels."""
    while True:
        size = draw(rng, 1, max_support)
        pairs = [(word_sampler(rng), draw(rng, 1, p - 1))
                 for _ in range(size)]
        x = element_from_pairs(pairs, p, canon)
        if not x.is_zero():
            return x


def zero_divisor_search_with_canon(
        canon: Canon, word_sampler: Callable[[random.Random], Word], p: int,
        trials: int, max_support: int, rng: random.Random | None = None,
        progress: Callable[[int], None] | None = None,
) -> tuple[AlgebraElement, AlgebraElement] | None:
    """Random search for x, y != 0 with x*y = 0 under the given
    canonicalizer, support words drawn by `word_sampler`.  Returns the
    first hit or None; ValueError if p is not prime."""
    if not _is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    rng = rng if rng is not None else random.Random(0)
    for trial in range(trials):
        x = random_element(rng, p, canon, word_sampler, max_support)
        y = random_element(rng, p, canon, word_sampler, max_support)
        if mul_with_canon(x, y, canon).is_zero():
            return x, y
        if progress is not None and (trial + 1) % 1000 == 0:
            progress(trial + 1)
    return None


def zero_divisor_search(g: GroupTable, cfg: RewriteConfig, p: int = 2,
                        trials: int = 10000, max_support: int = 3,
                        max_len: int = 10,
                        rng: random.Random | None = None,
                        progress: Callable[[int], None] | None = None,
                        ) -> tuple[AlgebraElement, AlgebraElement] | None:
    """Search the monoid algebra itself.  Support words are biased to
    contain defining windows so products actually merge terms; ValueError
    if 2 * max_len exceeds the word-length cap."""
    check_product_length(max_len, cfg)

    def sampler(r: random.Random) -> Word:
        return seeded_word(r, g, draw(r, 1, max_len))

    return zero_divisor_search_with_canon(
        canonicalizer(g, cfg), sampler, p, trials, max_support, rng, progress)
