"""Permutations of {1, ..., n} stored as 1-based image tuples."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

Perm = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(p: Perm, q: Perm) -> Perm:
    """(p o q)(x) = p(q(x)): q acts first."""
    return tuple([p[x - 1] for x in q])


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, img in enumerate(p):
        inv[img - 1] = i + 1
    return tuple(inv)


def power(p: Perm, e: int) -> Perm:
    if e < 0:
        return power(inverse(p), -e)
    out = identity(len(p))
    for _ in range(e):
        out = compose(p, out)
    return out


def from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> Perm:
    """Permutation given by disjoint cycles; unmentioned points stay fixed."""
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for cyc in cycles:
        for a in cyc:
            if not 1 <= a <= n:
                raise ValueError(f"point {a} out of range 1..{n}")
            if a in seen:
                raise ValueError(f"point {a} appears in two cycles")
            seen.add(a)
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            images[a - 1] = b
    return tuple(images)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles of p, each starting at its least point."""
    out = []
    done: set[int] = set()
    for start in range(1, len(p) + 1):
        if start in done or p[start - 1] == start:
            continue
        cyc = [start]
        x = p[start - 1]
        while x != start:
            cyc.append(x)
            x = p[x - 1]
        done.update(cyc)
        out.append(tuple(cyc))
    return out


def cycle_string(p: Perm) -> str:
    cycs = cycles(p)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)
