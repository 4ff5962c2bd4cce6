"""Regular permutation model of the generalized quaternion group of order 4k.

The group is generated by t (order 2k) and u, subject to

    t^(2k) = 1,   u^2 = t^k,   u^(-1) t u = t^(-1).

Writing every element as t^i or t^i u, the point i+1 stands for t^i and the
point 2k+i+1 stands for t^i u (0 <= i < 2k).  Each group element then acts on
the n = 4k points by left multiplication, which makes t a pair of 2k-cycles
and u a product of k disjoint 4-cycles.  Both generators are built from the
left-multiplication rule and u is cross-checked against its explicit cycle
form; any disagreement raises ConsistencyError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

from .errors import ClosureError, ConsistencyError
from .perms import (Perm, compose, cycle_string, from_cycles, identity,
                    inverse, power)

Label = tuple[int, int]  # (i, j) stands for t^i u^j with 0 <= i < 2k, j in {0, 1}


@dataclass(frozen=True)
class QuaternionConfig:
    """Size parameter; the group has order n = 4k and acts on n points."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be at least 2, got {self.k}")

    @property
    def n(self) -> int:
        return 4 * self.k


@dataclass(frozen=True, eq=False)
class GroupTable:
    """The group as an indexed list of image tuples.

    `elements[i]` is the image tuple of element number i, and `labels` maps
    the normal form (i, j) of t^i u^j to that number.

    Tables hash by identity (`eq=False`): the cached properties and the
    `functools.cache`d `relabellings`, `self_dual` and `words._certify`
    are computed once per table object, and a cache holds the table it
    keys on, so no id is recycled under a live entry.
    """

    k: int
    n: int
    elements: tuple[Perm, ...]
    labels: dict[Label, int]
    t: Perm
    u: Perm

    def __len__(self) -> int:
        return len(self.elements)

    def label_name(self, idx: int) -> str:
        """The label t^i u^j of element number idx, or `#idx` when the
        table carries no label for it."""
        for lab, i in self.labels.items():
            if i == idx:
                return format_label(lab)
        return f"#{idx}"

    @cached_property
    def index(self) -> dict[Perm, int]:
        """`elements` inverted, for O(1) membership tests on candidate windows."""
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def starting(self) -> tuple[tuple[Perm, ...], ...]:
        """`starting[x]`: the image tuples whose first letter is x, in
        element order; `starting[0]` is empty."""
        starting: list[list[Perm]] = [[] for _ in range(self.n + 1)]
        for e in self.elements:
            starting[e[0]].append(e)
        return tuple(map(tuple, starting))

    @cached_property
    def mirrored(self) -> GroupTable:
        """Every image tuple reversed; element numbers and labels unchanged."""
        return replace(self, elements=tuple(e[::-1] for e in self.elements))

    @cached_property
    def permutes(self) -> bool:
        """Whether every image tuple is a permutation of 1..n."""
        ident = list(range(1, self.n + 1))
        return all(sorted(e) == ident for e in self.elements)

    @cached_property
    def prefixes(self) -> frozenset[Perm]:
        """The first n-1 letters of every image tuple."""
        return frozenset(e[:-1] for e in self.elements)

    @cached_property
    def suffixes(self) -> frozenset[Perm]:
        """The last n-1 letters of every image tuple."""
        return frozenset(e[1:] for e in self.elements)

    @cached_property
    def spelled(self) -> tuple[str, ...]:
        """Each image tuple as a string of chr(letter): string positions are
        tuple positions, and slices, unlike tuples', fit a few memory size
        classes."""
        return tuple("".join(map(chr, e)) for e in self.elements)

    @cached_property
    def max_overlap(self) -> int:
        """The most letters, 1 to n-1, that a proper suffix of one image
        tuple shares with a prefix of any image tuple, itself included; 0
        when no two overlap: a set of suffixes and one of prefixes per
        length, longest first, of the `spelled` tuples."""
        els = self.spelled
        return next((s for s in range(self.n - 1, 0, -1)
                     if {e[-s:] for e in els} & {e[:s] for e in els}), 0)

    def occurrences(self, factor: tuple[int, ...],
                    at: int | None = None) -> list[tuple[int, int]]:
        """(element index, 1-based start) of every occurrence of a nonempty
        factor in a `spelled` tuple, in element order, then start order; with
        `at`, only those that start at position `at`.  A search resumes past
        each hit, so a tuple that repeats letters reports every start."""
        f = "".join(map(chr, factor))
        if at is not None:
            return [(idx, at) for idx, e in enumerate(self.spelled)
                    if at > 0 and e.startswith(f, at - 1)]
        found = []
        for idx, e in enumerate(self.spelled):
            p = e.find(f)
            while p >= 0:
                found.append((idx, p + 1))
                p = e.find(f, p + 1)
        return found


@cache
def relabellings(g: GroupTable) -> tuple[Perm, ...] | None:
    """The maps s o t0^-1 (s running over the elements, t0 the first), when
    the elements are permutations and relabelling letters by each of them
    maps windows to windows; None otherwise.

    Each then carries the window of t0 onto that of s and is an automorphism
    of the monoid, and together they form a group of order len(g): s o t0^-1
    composed with s' o t0^-1 sends t0 to a window, so it is one of the maps.
    `lemmas._rows` uses them to decide the exhaustive window oracles and
    Step3 on t0's rows alone; `structure.run_tup_sweep` to decide only the
    sides that lead their orbit.
    """
    if not g.permutes:
        return None
    t0_inv = inverse(g.elements[0])
    pis = tuple(compose(s, t0_inv) for s in g.elements)
    if not all(compose(pi, e) in g.index for pi in pis for e in g.elements):
        return None
    return pis


@cache
def self_dual(g: GroupTable) -> bool:
    """Whether delta maps windows to windows, where delta(w) reverses w
    and then maps each letter x to n+1-x.

    delta then reverses products, so it is an anti-automorphism of the
    monoid, and the mirrored table (every image tuple reversed) is the
    table relabelled by rho(x) = n+1-x: a statement about windows read
    right to left holds exactly when it holds read left to right.
    """
    top = g.n + 1
    return all(tuple(top - x for x in reversed(e)) in g.index
               for e in g.elements)


def format_label(label: Label) -> str:
    i, j = label
    ti = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
    uj = "" if j == 0 else "u"
    if not ti and not uj:
        return "e"
    if ti and uj:
        return f"{ti} {uj}"
    return ti or uj


def build_t(cfg: QuaternionConfig) -> Perm:
    """The generator t: one 2k-cycle on each half of the points."""
    k = cfg.k
    first = tuple(range(1, 2 * k + 1))
    second = tuple(range(2 * k + 1, 4 * k + 1))
    return from_cycles(cfg.n, [first, second])


def _u_from_action(cfg: QuaternionConfig) -> Perm:
    # Left multiplication by u: u * t^e = t^(-e) u and u * t^e u = t^(k-e).
    k, n = cfg.k, cfg.n
    images = [0] * n
    for p in range(1, 2 * k + 1):
        e = p - 1
        images[p - 1] = 2 * k + 1 + ((-e) % (2 * k))
    for p in range(2 * k + 1, n + 1):
        e = p - 2 * k - 1
        images[p - 1] = 1 + ((k - e) % (2 * k))
    return tuple(images)


def _u_from_cycle_form(cfg: QuaternionConfig) -> Perm:
    # The k disjoint 4-cycles of u written out directly.  The second and
    # fourth entries live in the upper half, so they wrap modulo 2k there.
    k = cfg.k
    cycs = []
    for j in range(1, k + 1):
        second = 2 * k + 1 + ((2 * k + 1 - j) % (2 * k))
        fourth = 2 * k + 1 + ((k + 1 - j) % (2 * k))
        cycs.append((j, second, j + k, fourth))
    return from_cycles(cfg.n, cycs)


def build_u(cfg: QuaternionConfig) -> Perm:
    """The generator u, from the left-multiplication rule.

    The explicit cycle form is computed independently and must agree.
    """
    u_act = _u_from_action(cfg)
    u_cyc = _u_from_cycle_form(cfg)
    if u_act != u_cyc:
        raise ConsistencyError(
            f"u built from the group action disagrees with its cycle form at k={cfg.k}: "
            f"{u_act} vs {u_cyc}"
        )
    return u_act


@cache
def generate_group(cfg: QuaternionConfig) -> GroupTable:
    """Close {t, u} under composition and label every element t^i u^j.
    Built and checked once per config; a failed build caches nothing."""
    k, n = cfg.k, cfg.n
    t = build_t(cfg)
    u = build_u(cfg)

    elements: list[Perm] = []
    labels: dict[Label, int] = {}
    ti = identity(n)
    for i in range(2 * k):
        for j, p in ((0, ti), (1, compose(ti, u))):
            labels[(i, j)] = len(elements)
            elements.append(p)
        ti = compose(t, ti)

    if len(set(elements)) != n:
        raise ClosureError(
            f"expected {n} distinct elements, got {len(set(elements))}")

    # Independent closure of the generating set: it holds the n labelled
    # elements, distinct by the check above, so it equals them unless it
    # grows past n.
    closure = {t, u}
    frontier = [t, u]
    while frontier:
        nxt = []
        for a in frontier:
            for b in (t, u):
                c = compose(a, b)
                if c not in closure:
                    closure.add(c)
                    if len(closure) > n:
                        raise ClosureError(
                            f"closure of t, u exceeded {n} elements at k={k}"
                        )
                    nxt.append(c)
        frontier = nxt

    _validate(cfg, t, u)
    g = GroupTable(k=k, n=n, elements=tuple(elements), labels=labels, t=t, u=u)
    if not check_stabilizer_free(g):
        raise ConsistencyError(f"non-identity element with a fixed point at k={k}")
    return g


def _validate(cfg: QuaternionConfig, t: Perm, u: Perm) -> None:
    k, n = cfg.k, cfg.n
    e = identity(n)
    u2 = compose(u, u)
    checks = [
        (power(t, 2 * k) == e, "t^(2k) = 1"),
        (compose(u2, u2) == e, "u^4 = 1"),
        (u2 == power(t, k), "u^2 = t^k"),
        (compose(compose(inverse(u), t), u) == inverse(t), "u^-1 t u = t^-1"),
    ]
    for ok, name in checks:
        if not ok:
            raise ConsistencyError(f"defining relation {name} fails at k={k}")


def check_other(g: GroupTable) -> bool:
    """u sends at least one point of the lower half into the upper half."""
    return any(g.u[p - 1] > 2 * g.k for p in range(1, 2 * g.k + 1))


def check_disjoi(g: GroupTable) -> bool:
    """Every element preserves the two halves setwise or swaps them."""
    lower = set(range(1, 2 * g.k + 1))
    upper = set(range(2 * g.k + 1, g.n + 1))
    for p in g.elements:
        img_lower = {p[x - 1] for x in lower}
        if not (img_lower == lower or img_lower == upper):
            return False
    return True


def check_stabilizer_free(g: GroupTable) -> bool:
    """No non-identity element fixes a point."""
    e = identity(g.n)
    for p in g.elements:
        if p == e:
            continue
        if any(p[i] == i + 1 for i in range(g.n)):
            return False
    return True


def group_checks(g: GroupTable) -> dict[str, bool]:
    return {
        "other": check_other(g),
        "disjoint_halves": check_disjoi(g),
        "stabilizer_free": check_stabilizer_free(g),
    }


def describe_elements(g: GroupTable) -> list[dict]:
    """Rows for display: index, label, cycle form, images."""
    rows = []
    for idx, p in enumerate(g.elements):
        rows.append({
            "index": idx,
            "label": g.label_name(idx),
            "cycles": cycle_string(p),
            "images": list(p),
        })
    return rows
