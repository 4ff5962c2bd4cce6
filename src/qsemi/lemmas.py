"""Finite checks of the window combinatorics behind the rewriting system.

The first group of oracles is exhaustive: each decides its whole quantifier
range and confirms that short factors of defining windows cannot collide
except in the trivial ways (NotPossible, MaxOne, Big, Overlapp).  They are
queries for where a factor starts in the windows, answered by string search
over the table's one spelling of them (`GroupTable.occurrences`).  Where
`quaternion.relabellings` applies, t0's rows decide the range (`_rows`);
`stats["instances"]` still counts all of it.

The second group (Stepss, Step3) is empirical: it enumerates members of
congruence classes built on the windows that chain onto a window
(`_chain_tails`) and confirms the forced prefix shapes of equivalent words
in them, so it is evidence, not proof.  Stepss decides every pair of its
classes; Step3 every member of the classes of t(i+1..n) v for the same
tails v.  Both walk classes in `class_of`'s order, reporting the least
failure; they read `GroupTable.prefixes` and draw nothing.

The mirror-image oracles (SymNotPossible, SymMaxOne, SymOverlapp, SymStep3)
state the same lemmas read right to left.  Each runs its forward oracle on
the mirrored table (image tuples reversed, labels unchanged) through
`_on_mirror`, with the counterexample mapped back: words reversed,
positions p to n+1-p, pair starts p to n-p, and for Overlapp sigma and tau
swapped.  Where the table is `self_dual` (delta, reversal followed by
x -> n+1-x, maps windows to windows, as on every quaternion table) the
mirrored table is the table with its letters relabelled, so a mirror lemma
holds exactly when its forward lemma does: `run_lemma_suite` carries a
passing forward report over, stats included, marked `by_duality`, and runs
the mirror oracle only otherwise.

Every oracle returns a LemmaReport; a planted violation (a table that is not
a regular quaternion group) must surface as passed=False with a populated
counterexample.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from .perms import Perm
from .quaternion import GroupTable, relabellings, self_dual
from .words import RewriteConfig, Word, class_of, format_word


class LemmaId(str, Enum):
    NOT_POSSIBLE = "NotPossible"
    MAX_ONE = "MaxOne"
    BIG = "Big"
    OVERLAPP = "Overlapp"
    STEPSS = "Stepss"
    STEP3 = "Step3"
    SYM_NOT_POSSIBLE = "SymNotPossible"
    SYM_MAX_ONE = "SymMaxOne"
    SYM_STEP3 = "SymStep3"
    SYM_OVERLAPP = "SymOverlapp"


@dataclass
class LemmaReport:
    lemma_id: LemmaId
    k: int
    passed: bool
    counterexample: dict | None = None
    stats: dict = field(default_factory=dict)
    # carried over from the forward report by duality (see `run_lemma_suite`)
    by_duality: bool = False

    def __post_init__(self) -> None:
        if self.passed and self.counterexample is not None:
            raise ValueError("a passing report cannot carry a counterexample")

    def to_json(self) -> dict:
        return {"lemma_id": self.lemma_id.value, "k": self.k, "passed": self.passed,
                "counterexample": self.counterexample, "stats": self.stats}


def _failed(g: GroupTable, lemma_id: LemmaId, si: int, ti: int,
            **cx) -> LemmaReport:
    """A failed report whose counterexample names elements si and ti as
    sigma and tau, followed by the entries of `cx`."""
    return LemmaReport(lemma_id, g.k, False, counterexample={
        "sigma": g.label_name(si), "tau": g.label_name(ti), **cx})


def _rows(g: GroupTable) -> enumerate[Perm]:
    """(index, image tuple) of the rows that decide g: t0's alone where each
    s o t0^-1 in `relabellings` carries them, violations too, onto s's."""
    return enumerate(g.elements[:1] if relabellings(g) is not None else g.elements)


def verify_not_possible(g: GroupTable) -> LemmaReport:
    """Adjacent pairs from the lower-half positions of one window never match
    adjacent pairs from the upper-half positions of another."""
    half = g.n // 2
    for si, s in _rows(g):
        for p in range(1, half):                        # 1 <= p <= n/2 - 1
            for ti, q in g.occurrences(s[p - 1:p + 1]):
                if q > half:                            # n/2 < q <= n - 1
                    return _failed(g, LemmaId.NOT_POSSIBLE, si, ti, p=p, q=q,
                                   pair=list(s[p - 1:p + 1]))
    return LemmaReport(LemmaId.NOT_POSSIBLE, g.k, True,
                       stats={"instances": len(g) ** 2 * (half - 1) ** 2})


def verify_max_one(g: GroupTable) -> LemmaReport:
    """A suffix of one window matches an interior factor t(i..j) of another,
    1 <= i < n/2 - 1, only trivially: the factor has length 1, or it is the
    whole tail of the same element."""
    n, half = g.n, g.n // 2
    for si, s in _rows(g):
        for r in range(1, n):                           # suffix s(r..n)
            for ti, i in g.occurrences(s[r - 1:]):
                j = i + n - r
                if i < half - 1 and not (j == n and ti == si):
                    return _failed(g, LemmaId.MAX_ONE, si, ti, i=i, j=j,
                                   factor=list(s[r - 1:]))
    return LemmaReport(LemmaId.MAX_ONE, g.k, True, stats={
        "instances": len(g) ** 2 * sum(n - i + 1 for i in range(1, half - 1))})


def verify_big(g: GroupTable) -> LemmaReport:
    """Windows of length n/2 + 1 inside defining words determine both the
    element and the offset."""
    half = g.n // 2
    for si, s in _rows(g):
        for j in range(1, half + 1):
            for ti, i in g.occurrences(s[j - 1:j + half]):
                if not (i == j and ti == si):
                    return _failed(g, LemmaId.BIG, si, ti, i=i, j=j,
                                   factor=list(s[j - 1:j + half]))
    return LemmaReport(LemmaId.BIG, g.k, True,
                       stats={"instances": len(g) ** 2 * half * half})


def verify_overlapp(g: GroupTable) -> LemmaReport:
    """A tail-anchored mixed word s(j..l) t(l+1..m), s != t, m >= n-1,
    matches lambda(i..m-j+i) for i = 1 or 2 only when both parts are single
    letters (j = l and l + 1 = m).

    The search runs over (lambda, i, s): j is where s holds lambda(i), and
    the s part is as long as s and lambda agree, since every t holding a
    longer t part also holds a shorter one.  `instances` counts every
    (s, t, m, l, j, i), and `unsatisfiable` those needing positions past n.
    """
    n, els = g.n, g.elements
    for li, lam in _rows(g):
        for i in (1, 2):
            for si, s in enumerate(els):
                j = s.index(lam[i - 1]) + 1
                for m in (n - 1, n):
                    end = m - j + i
                    if j > m - 2 or end > n:  # trivial match or unsatisfiable
                        continue
                    a = 1                     # length of the s part
                    while a < m - j and s[j - 1 + a] == lam[i - 1 + a]:
                        a += 1
                    l = j + a - 1
                    for ti, _ in g.occurrences(lam[i - 1 + a:end], l + 1):
                        if ti != si:
                            return _failed(
                                g, LemmaId.OVERLAPP, si, ti,
                                **{"lambda": g.label_name(li)}, j=j, l=l, m=m,
                                i=i, word=list(lam[i - 1:end]))
    mixed = len(g) * (len(g) - 1)
    return LemmaReport(LemmaId.OVERLAPP, g.k, True,
                       stats={"instances": 2 * mixed * (n - 1) ** 2,
                              "unsatisfiable": mixed * (n - 1)})


def _on_mirror(g: GroupTable, lemma_id: LemmaId, oracle: Callable[..., LemmaReport],
               back: Callable[[dict], dict], **kwargs) -> LemmaReport:
    """`oracle` run on `g.mirrored` and reported as `lemma_id`, its
    counterexample mapped back to original coordinates by `back`."""
    r = oracle(g.mirrored, **kwargs)
    return LemmaReport(lemma_id, g.k, r.passed,
                       r.counterexample and back(r.counterexample), r.stats)


def verify_sym_not_possible(g: GroupTable) -> LemmaReport:
    """Mirror of NotPossible: upper-half pairs of one window against
    lower-half pairs of another."""
    n = g.n
    return _on_mirror(g, LemmaId.SYM_NOT_POSSIBLE, verify_not_possible, lambda c: {
        **c, "p": n - c["p"], "q": n - c["q"], "pair": c["pair"][::-1]})


def verify_sym_max_one(g: GroupTable) -> LemmaReport:
    """Mirror of MaxOne: a prefix of one window against an interior factor
    t(j..i) anchored past position n/2 + 2."""
    n = g.n
    return _on_mirror(g, LemmaId.SYM_MAX_ONE, verify_max_one, lambda c: {
        **c, "i": n + 1 - c["i"], "j": n + 1 - c["j"],
        "factor": c["factor"][::-1]})


def verify_sym_overlapp(g: GroupTable) -> LemmaReport:
    """Mirror of Overlapp: the mixed word s(j..l) t(l+1..m) starts at
    position 1 or 2 and the matching factor of a single window ends at
    position `end`, n-1 or n."""
    n = g.n
    return _on_mirror(g, LemmaId.SYM_OVERLAPP, verify_overlapp, lambda c: {
        "sigma": c["tau"], "tau": c["sigma"], "lambda": c["lambda"],
        "j": n + 1 - c["m"], "l": n - c["l"], "m": n + 1 - c["j"],
        "end": n + 1 - c["i"], "word": c["word"][::-1]})


def _chain_tails(g: GroupTable, t: Perm) -> list[Word]:
    """f(s+1..n) for each window f whose first s letters are t's last s,
    s = 1..`GroupTable.max_overlap`, in s order then element order: the
    tails v for which t v holds a second window that overlaps t."""
    return [g.elements[fi][s:] for s in range(1, g.max_overlap + 1)
            for fi, _ in g.occurrences(t[-s:], 1)]


def verify_stepss(g: GroupTable, cfg: RewriteConfig) -> LemmaReport:
    """Equivalent words of equal length whose first letters differ must each
    start with the first n-1 letters of some window, and at most one of the
    two may break the window at its n-th letter.

    The pairs come from the classes of each window t and of each chain t v
    (v in `_chain_tails`); a chain mixes rewrites at both ends, so the two
    words of a pair can break their windows at letter n in different ways.
    Tails after a window or chain are left out: where `max_overlap` <= 1, a
    letter after a chain cannot start a window that reaches back into it, so
    the letter multiplies members without changing any member's first n
    letters.  Chains of three windows are left out as a measured radius:
    the tests' every-row reference takes them, and those tails, and gives
    the same verdicts.

    The pair condition is a conjunction of single-word properties, so each
    class is decided by tallying its members by first letter: K_a keep the
    window at letter n, B_a break it.  `pairs` and `condition_counts` count
    every ordered pair with first letters a != b: both keep sum K_a K_b,
    only the first keeps sum K_a B_b, and only the second as many.  As in
    `verify_step3`, each of t0's classes counts for its orbit.
    """
    n = g.n
    rows = [t for _, t in _rows(g)]
    orbit = len(g) // len(rows)
    pairs = classes = 0
    cond_counts = [0, 0, 0]  # both letters match / only first / only second
    for seed in [t + v for t in rows for v in [()] + _chain_tails(g, t)]:
        members = class_of(seed, g, cfg).members
        classes += orbit
        keep: dict[int, int] = {}
        brk: dict[int, int] = {}
        for w in members:
            tally = keep if w[:n] in g.index else brk
            tally[w[0]] = tally.get(w[0], 0) + 1
        if len(keep.keys() | brk.keys()) < 2:
            continue  # one first letter: no pair
        if len(brk) > 1 or not all(w[:n - 1] in g.prefixes for w in members):
            return _stepss_failure(g, members, classes, pairs)
        nk, nb = sum(keep.values()), sum(brk.values())
        both = orbit * (nk * nk - sum(v * v for v in keep.values()))
        one = orbit * sum(v * (nb - brk.get(a, 0)) for a, v in keep.items())
        pairs += both + 2 * one
        cond_counts = [c + d for c, d in zip(cond_counts, (both, one, one))]
    return LemmaReport(LemmaId.STEPSS, g.k, True,
                       stats={"classes": classes, "pairs": pairs,
                              "condition_counts": cond_counts})


def _stepss_failure(g: GroupTable, members: tuple[Word, ...], classes: int,
                    pairs: int) -> LemmaReport:
    """The first pair of the sorted class that breaks Stepss; `pairs` counts
    the pairs decided before it, that one included."""
    n = g.n
    for w1 in members:
        for w2 in members:
            if w1[0] == w2[0]:
                continue
            pairs += 1
            if w1[:n - 1] not in g.prefixes or w2[:n - 1] not in g.prefixes:
                reason = "first n-1 letters are not a window prefix"
            elif w1[:n] not in g.index and w2[:n] not in g.index:
                reason = "both words break their window at letter n"
            else:
                continue
            return LemmaReport(LemmaId.STEPSS, g.k, False, counterexample={
                "w1": format_word(w1), "w2": format_word(w2), "reason": reason},
                stats={"classes": classes, "pairs": pairs})


def verify_step3(g: GroupTable, cfg: RewriteConfig) -> LemmaReport:
    """Every member of the class of t(i+1..n) v keeps that exact prefix or
    replaces its last letter by a fresh window prefix of length n-1.

    The tails v of each (element, i) cell are `_chain_tails`, as for
    Stepss.  Where `max_overlap` <= 1 the other tails that let t(i+1..n) v
    hold a window add nothing.  A window e that does not chain onto t gives
    the class {t(i+1..n) e'}: a window reaching back into t(i+1..n) would
    share two letters or more with t or with e.  A letter after a chain
    cannot start a window that reaches back into the chain, and it lies
    past the 2n-2-i letters that `_step3_member_check` reads.  On the
    planted tables the tests' every-cell reference over those tails too
    gives the same verdicts.

    The relabelling by s o t0^-1 (t0 the first element) carries the cell
    (t0, i), its tails, classes and checks onto (s, i); so where
    `relabellings` applies, `_rows` gives t0's cells alone, each counting
    for its orbit."""
    cells = [(ti, t, _chain_tails(g, t)) for ti, t in _rows(g)]
    orbit = len(g) // len(cells)
    stats = {"family": orbit * (g.n - 1) * sum(len(c[2]) for c in cells),
             "covered": 0, "members_checked": 0}
    for ti, t, tails in cells:
        for i in range(1, g.n):
            for v in tails:
                w = t[i:] + v
                stats["covered"] += orbit
                for w1 in class_of(w, g, cfg).members:
                    stats["members_checked"] += 1
                    reason = _step3_member_check(g, t, i, w1)
                    if reason is not None:
                        return LemmaReport(LemmaId.STEP3, g.k, False, counterexample={
                            "w1": format_word(w1), "reason": reason,
                            "tau": g.label_name(ti), "i": i, "seed": format_word(w)},
                            stats=stats)
    return LemmaReport(LemmaId.STEP3, g.k, True, stats=stats)


def _step3_member_check(g: GroupTable, t: Perm, i: int,
                        w1: Word) -> str | None:
    """The reason w1 has neither prefix shape, or None."""
    n = g.n
    if w1[:n - i] == t[i:]:
        return None
    head_len = n - 1 - i
    if w1[:head_len] != t[i:n - 1]:
        return "prefix leaves t(i+1..n-1) before letter n"
    if len(w1) < head_len + n - 1:
        return "too short for the alternative prefix shape"
    if w1[head_len:head_len + n - 1] not in g.prefixes:
        return "no window prefix after t(i+1..n-1)"
    return None


_SYM_STEP3_REASONS = {
    "prefix leaves t(i+1..n-1) before letter n":
        "suffix leaves t(2..i) after letter 1",
    "too short for the alternative prefix shape":
        "too short for the alternative suffix shape",
    "no window prefix after t(i+1..n-1)": "no window suffix before t(2..i)",
}


def verify_sym_step3(g: GroupTable, cfg: RewriteConfig) -> LemmaReport:
    """Mirror of Step3 for suffixes: every member of the class of
    w2 t(1..i) either keeps that exact suffix or replaces the first letter
    of the t-part by a fresh length n-1 window suffix."""
    n = g.n
    return _on_mirror(g, LemmaId.SYM_STEP3, verify_step3, lambda c: {
        "w1": _reversed_word(c["w1"]), "reason": _SYM_STEP3_REASONS[c["reason"]],
        "tau": c["tau"], "i": n - c["i"], "seed": _reversed_word(c["seed"])},
        cfg=cfg)


def _reversed_word(text: str) -> str:
    return ",".join(reversed(text.split(",")))


def run_lemma_suite(g: GroupTable, cfg: RewriteConfig) -> list[LemmaReport]:
    """All ten oracles, deterministic order, none of them drawing.  On a
    `self_dual` table a passing forward report is carried over to its
    mirror lemma, stats included: delta carries each instance, class and
    tail of it onto one of the mirror lemma, so no mirror oracle runs.
    Otherwise the mirror oracle runs."""
    forward = [
        verify_not_possible(g),
        verify_max_one(g),
        verify_big(g),
        verify_overlapp(g),
        verify_stepss(g, cfg),
        verify_step3(g, cfg),
    ]
    not_possible, max_one, _, overlapp, _, step3 = forward
    mirrors = [(not_possible, verify_sym_not_possible, {}),
               (max_one, verify_sym_max_one, {}),
               (step3, verify_sym_step3, {"cfg": cfg}),
               (overlapp, verify_sym_overlapp, {})]
    return forward + [
        LemmaReport(LemmaId("Sym" + r.lemma_id.value), g.k, True,
                    stats=dict(r.stats), by_duality=True)
        if r.passed and self_dual(g) else oracle(g, **kwargs)
        for r, oracle, kwargs in mirrors]
