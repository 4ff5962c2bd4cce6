"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload is a fixed job list.  A job is either a `qsemi` command line
(run through `qsemi.cli.main` with `--format json`) or, where no subcommand
covers it, a library call.  `make_plan` builds the list from the seed; the
program only ever sees the generated inputs.  `check_round` judges one
round's outputs with the harness's own arithmetic, so a wrong answer from
the program counts as a failed operation instead of being trusted.

Plans come in two scales: `full`, which the benchmark measures, and `tiny`,
which the self-test uses to exercise every code path in a few seconds.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("word-problem", "lemma-suite", "tup-sweep", "algebra-sampling")

EXHAUSTIVE = ("NotPossible", "MaxOne", "Big", "Overlapp",
              "SymNotPossible", "SymMaxOne", "SymOverlapp")

# word-problem strata: (m windows, queries) per k, per kind (equal and
# unequal pairs get the same count).  Two k values, so 2 * 2 * 250 = 1000
# queries a round: at least ten samples lie beyond the 99th percentile.
_WORD_STRATA = {
    "full": {2: ((0, 115), (1, 115), (2, 14), (3, 6)),
             3: ((0, 117), (1, 117), (2, 14), (3, 2))},
    "tiny": {2: ((0, 3), (1, 3), (2, 1), (3, 1)),
             3: ((0, 3), (1, 3), (2, 1), (3, 1))},
}


# Seconds one round of each workload takes on the reference machine, at its
# usual speed, with the code this benchmark was written against.  A run
# makes `--seconds / ROUND_S` rounds (at least MIN_ROUNDS): a count that
# does not depend on how fast the code under test is, so that a faster
# program does not also get more chances at a fast round.
ROUND_S = {"word-problem": 2.8, "lemma-suite": 7.5, "tup-sweep": 5.5,
           "algebra-sampling": 5.5}
MIN_ROUNDS = 3

# algebra-sampling: (subcommand, k, trials, extra arguments), one call each
ALGEBRA_SAMPLERS = (("zero-divisor", 2, 6000, []),
                    ("zero-divisor", 3, 4000, ["--max-len", "16"]),
                    ("cancel-sample", 2, 12000, []),
                    ("cancel-sample", 3, 12000, []))


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, int(seconds / ROUND_S[workload]))


def make_plan(workload: str, seed: int, scale: str = "full") -> dict:
    """The plan sent to every round's child: groups to build in set-up, the
    tup-sweep ground-set order if any, and the job list.  Keys starting with
    an underscore stay with the harness (expected answers)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    if workload == "word-problem":
        return _word_problem_plan(rng, scale)
    if workload == "lemma-suite":
        small, large, large_samples = (2, 8, 1) if scale == "full" else (2, 3, 2)
        jobs = [
            {"role": "small_k", "argv": ["verify-lemmas", "--k", str(small),
                                         "--seed", str(seed)]},
            {"role": "large_k", "argv": ["verify-lemmas", "--k", str(large),
                                         "--step3-samples", str(large_samples),
                                         "--seed", str(seed)]},
        ]
        return {"workload": workload, "ks": [small, large],
                "jobs": _json_jobs(jobs)}
    if workload == "tup-sweep":
        max_size = 3 if scale == "full" else 2
        order = list(range(len(halves(_checked_group(2)))))
        rng.shuffle(order)
        return {"workload": workload, "ks": [2],
                "tup": {"k": 2, "order": order},
                "jobs": [{"tup": {"max_size": max_size}}]}
    # algebra-sampling
    f = 1 if scale == "full" else 0.01
    jobs = [{"argv": [cmd, "--k", str(k), "--trials", str(int(trials * f))]
             + extra + ["--seed", str(seed)]}
            for cmd, k, trials, extra in ALGEBRA_SAMPLERS]
    return {"workload": workload, "ks": [2, 3], "jobs": _json_jobs(jobs)}


def _json_jobs(jobs: list[dict]) -> list[dict]:
    for job in jobs:
        job["argv"] = job["argv"] + ["--format", "json"]
    return jobs


def _checked_group(k: int):
    from qsemi.quaternion import QuaternionConfig, generate_group
    g = generate_group(QuaternionConfig(k))
    n = g.n
    # the harness's own class enumeration takes the windows as given, so
    # check that they are n permutations of 1..n closed under composition
    els = set(g.elements)
    if len(els) != n or any(sorted(e) != list(range(1, n + 1)) for e in els):
        raise RuntimeError(f"the k={k} windows are not {n} permutations")
    if any(tuple(a[i - 1] for i in b) not in els for a in els for b in els):
        raise RuntimeError(f"the k={k} windows are not closed")
    return g


def halves(g) -> list[tuple]:
    """The tup-sweep ground set: every first and second half-window."""
    h = g.n // 2
    return sorted({e[:h] for e in g.elements} | {e[h:] for e in g.elements})


# ---------------------------------------------------------------- word-problem

def _word_problem_plan(rng: random.Random, scale: str) -> dict:
    from qsemi.words import rewrite_step

    jobs = []
    for k, strata in _WORD_STRATA[scale].items():
        g = _checked_group(k)
        for m, count in strata:
            for equal in (True, False):
                for i in range(count):
                    jobs.append(_word_query(rng, g, k, m, equal, i % 2 == 0,
                                            rewrite_step))
    rng.shuffle(jobs)
    return {"workload": "word-problem", "ks": [2, 3], "jobs": jobs}


def _word_query(rng, g, k: int, m: int, equal: bool, swap: bool,
                rewrite_step) -> dict:
    """A pair built from m windows with short random gaps.  Equal pairs
    follow a chain of rewrite steps from w1.  Unequal pairs then either
    swap two different letters (`swap`), so that both words keep the same
    letter multiset, or change one letter.

    `_least` holds the least member of each word's class, found by the
    harness's own enumeration (`word_class`), which also makes sure that a
    swapped word lies outside w1's class."""
    n = g.n
    els = g.elements
    gap = 0 if m == 3 else 2  # three windows fill the default 3n length cap
    if m == 0:
        w1 = _letters(rng, n, rng.randint(1, 2 * n))
        positions = []
    else:
        w1, positions = (), []
        for _ in range(m):
            w1 += _letters(rng, n, rng.randint(0, gap))
            positions.append(len(w1) + 1)
            w1 += els[rng.randrange(n)]
        w1 += _letters(rng, n, rng.randint(0, gap))
    cls1 = word_class(w1, els)
    w = w1
    # every placed window is rewritten once, so an equal pair always differs
    # in all m windows and its cost depends little on the seed
    for pos in rng.sample(positions, len(positions)):
        src = w[pos - 1:pos - 1 + n]
        dst = rng.choice([e for e in els if e != src])
        nxt = rewrite_step(w, pos, src, dst, g)
        if nxt != w[:pos - 1] + dst + w[pos - 1 + n:] or nxt not in cls1:
            raise RuntimeError("rewrite_step disagrees with the window splice")
        w = nxt
    w2 = w if equal else _unequal(rng, n, w, cls1, swap)
    cls2 = cls1 if equal else word_class(w2, els)
    return {"argv": ["word-eq", "--k", str(k), _fmt(w1), _fmt(w2),
                     "--format", "json"],
            "_equal": equal, "_least": [_fmt(min(cls1)), _fmt(min(cls2))]}


def _unequal(rng, n: int, w: tuple, cls: set, swap: bool) -> tuple:
    """A word of w's length outside the class `cls` of w: with `swap`, w
    with two different letters exchanged (if some exchange leaves the
    class); otherwise w with one letter changed, which changes the letter
    multiset that every relation keeps."""
    if swap:
        pairs = [(i, j) for i in range(len(w)) for j in range(i + 1, len(w))
                 if w[i] != w[j]]
        rng.shuffle(pairs)
        for i, j in pairs:
            v = list(w)
            v[i], v[j] = v[j], v[i]
            if tuple(v) not in cls:
                return tuple(v)
    i = rng.randrange(len(w))
    return w[:i] + (rng.choice([x for x in range(1, n + 1) if x != w[i]]),) \
        + w[i + 1:]


def word_class(w: tuple, windows) -> set:
    """All words reachable from w by replacing a length-n factor that is a
    window by another window: the congruence class of w."""
    windows = tuple(windows)
    n = len(windows[0])
    is_window = set(windows)
    seen, frontier = {w}, [w]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(len(x) - n + 1):
                if x[i:i + n] in is_window:
                    head, tail = x[:i], x[i + n:]
                    for e in windows:
                        y = head + e + tail
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
        frontier = nxt
    return seen


def _letters(rng: random.Random, n: int, length: int) -> tuple:
    return tuple(rng.randint(1, n) for _ in range(length))


def _fmt(w) -> str:
    return ",".join(str(x) for x in w)


def _parse(text: str) -> tuple:
    return tuple(int(x) for x in text.split(",")) if text else ()


def _check_word_eq(job: dict, op: dict) -> bool:
    if op.get("rc") != (0 if job["_equal"] else 1):
        return False
    d = json.loads(op["out"])["details"]
    got = [_parse(d["canonical_w1"]), _parse(d["canonical_w2"])]
    return (d["equal"] is job["_equal"]
            and got == [_parse(x) for x in job["_least"]])


# ----------------------------------------------------------------- lemma-suite

def exhaustive_instances(k: int) -> dict[str, int]:
    """Closed-form instance counts of the seven exhaustive oracles."""
    n, h = 4 * k, 2 * k
    pairs = n * n
    mixed = n * (n - 1) * 2  # ordered distinct pairs, two anchor positions
    return {
        "NotPossible": pairs * (h - 1) ** 2,
        "SymNotPossible": pairs * (h - 1) ** 2,
        "MaxOne": pairs * sum(n - i + 1 for i in range(1, h - 1)),
        "SymMaxOne": pairs * sum(range(h + 3, n + 1)),
        "Big": pairs * h * h,
        "Overlapp": mixed * ((n - 2) * (n - 1) // 2 + (n - 1) * n // 2),
        "SymOverlapp": mixed * (n * (n - 1) // 2 + (n - 1) * (n - 2) // 2),
    }


def lemma_stats(op: dict) -> dict[str, dict]:
    """lemma id -> stats block, from one verify-lemmas payload."""
    payload = json.loads(op["out"])
    return {r["lemma_id"]: r["stats"] for r in payload["details"]["lemmas"]}


def _check_verify_lemmas(job: dict, op: dict, first_op: dict | None) -> bool:
    if op.get("rc") != 0:
        return False
    payload = json.loads(op["out"])
    if not payload["passed"] or not all(payload["details"]["group_checks"].values()):
        return False
    if not all(r["passed"] for r in payload["details"]["lemmas"]):
        return False
    k = int(job["argv"][job["argv"].index("--k") + 1])
    if payload["k"] != k:
        return False
    stats = lemma_stats(op)
    if any(stats[name]["instances"] != count
           for name, count in exhaustive_instances(k).items()):
        return False
    # sampled oracles see the same seed every round, so the same counts
    return first_op is None or stats == lemma_stats(first_op)


# ------------------------------------------------------------------ tup-sweep

def expected_specs(reps: int, max_size: int) -> int:
    """Subset pairs with |C|, |D| <= max_size and |C| + |D| > 2."""
    from math import comb
    sides = sum(comb(reps, s) for s in range(1, max_size + 1))
    return sides * sides - reps * reps


def _check_tup(plan: dict, job: dict, op: dict) -> bool:
    summary = op.get("summary")
    if summary is None or op.get("failure") is not None:
        return False
    reps = len(plan["tup"]["order"])
    return (summary["specs_checked"] == expected_specs(reps, job["tup"]["max_size"])
            and summary["min_unique_count"] == 2)


# ------------------------------------------------------------ algebra-sampling

def _check_algebra(job: dict, op: dict) -> bool:
    if op.get("rc") != 0:
        return False
    payload = json.loads(op["out"])
    d = payload["details"]
    trials = int(job["argv"][job["argv"].index("--trials") + 1])
    if not payload["passed"] or d["trials"] != trials:
        return False
    if job["argv"][0] == "zero-divisor":
        return d["found"] is None
    return d["violations"] == [] and d["antecedent_hits"] > 0


# ---------------------------------------------------------------------- checks

def check_round(plan: dict, result: dict, first: dict | None) -> list[bool]:
    """One verdict per job: True when the output is right.  `first` is the
    run's first round, against which sampled counts must repeat."""
    verdicts = []
    for i, (job, op) in enumerate(zip(plan["jobs"], result["ops"])):
        try:
            if "error" in op:
                ok = False
            elif "tup" in job:
                ok = _check_tup(plan, job, op)
            elif job["argv"][0] == "word-eq":
                ok = _check_word_eq(job, op)
            elif job["argv"][0] == "verify-lemmas":
                ok = _check_verify_lemmas(
                    job, op, first["ops"][i] if first else None)
            else:
                ok = _check_algebra(job, op)
        except (ValueError, KeyError, TypeError):
            ok = False  # unparsable or incomplete output is a wrong answer
        verdicts.append(ok)
    verdicts += [False] * (len(plan["jobs"]) - len(result["ops"]))
    return verdicts
