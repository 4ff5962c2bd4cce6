#!/usr/bin/env python3
"""qsemi benchmark: time to verdict for four verification workloads.

    python3 bench/run.py --workload word-problem --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root or anywhere else; the package is loaded from
the `src/` directory next to this one.  Every round runs in a fresh
interpreter (child.py), one at a time, after one warm-up interpreter.  A
run makes a fixed number of rounds, `--seconds` over the workload's nominal
round time (workloads.rounds_for), whatever the speed of the code under
test.  Each round's outputs are checked by workloads.check_round.

`--trace 0` reports the end-to-end metrics as medians over rounds, every
timing expressed at a fixed reference speed of the CPU, measured beside it
by a calibration loop (child.Speedometer, speed_factors).
`--trace 1` alternates untraced and traced rounds and reports the per-layer
metrics from the traced ones, plus the tracing overhead; the spans of the
last traced round go to bench/out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

CHILD_TIMEOUT_S = 150
SETUP_PROBES = 2  # set-up-only interpreters after each untraced round
# One calibration chunk (child.calibrate) takes this long at the reference
# speed, about the full speed of the reference machine; timings are
# reported as if the interpreter ran at that speed throughout.
CAL_REF_S = 1.0e-3
MAX_RUN_S = 140  # start no round that would likely end past this

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
         "query_p50_ms": "ms", "query_p99_ms": "ms"}


def _load_workloads():
    if not (SRC / "qsemi" / "__init__.py").is_file():
        sys.exit(f"error: no qsemi package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qsemi
    if Path(qsemi.__file__).resolve().parent != SRC / "qsemi":
        sys.exit(f"error: imported qsemi from {qsemi.__file__}, not {SRC}")
    import workloads
    return workloads


_CPUS = sorted(os.sched_getaffinity(0))
_spawned = 0


def _spawn(plan_text: str, mode: str, spans_path: Path | None = None) -> dict:
    """Run one child interpreter and return its JSON result.

    Successive children are pinned to the CPUs in turn, so that a round
    runs on one CPU, which its speed samples then describe, and the rounds
    of a run are spread evenly over the CPUs."""
    global _spawned
    cpu = _CPUS[_spawned % len(_CPUS)]
    _spawned += 1
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    argv = [sys.executable, "-S", str(BENCH / "child.py")]
    spawned_at = perf_counter()
    argv += [repr(spawned_at), mode] + ([str(spans_path)] if spans_path else [])
    proc = subprocess.run(argv, input=plan_text, capture_output=True,
                          text=True, cwd=ROOT, env=env,
                          timeout=CHILD_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: str = "full") -> dict:
    """Run one workload and return its result object plus a report."""
    wl = _load_workloads()
    plan = wl.make_plan(workload, seed, scale)
    child_plan = dict(plan, jobs=[{k: v for k, v in job.items()
                                   if not k.startswith("_")}
                                  for job in plan["jobs"]])
    text = json.dumps(child_plan)
    spans_path = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{workload}-seed{seed}-spans.csv.gz"

    _spawn(text, "setup")  # warm-up: byte-code caches, page cache
    rounds = wl.rounds_for(workload, seconds)
    modes = ["run", "trace"] * max(1, rounds // 2) if trace else ["run"] * rounds
    t_start = perf_counter()
    plain, traced, setups = [], [], []
    attempted = failed = 0
    first = None
    for mode in modes:
        res = _spawn(text, mode, spans_path if mode == "trace" else None)
        verdicts = wl.check_round(plan, res, first)
        first = first or res
        attempted += len(verdicts)
        failed += verdicts.count(False)
        (traced if mode == "trace" else plain).append(res)
        if mode == "run":
            setups.append(res["setup_s"])
            setups += [_spawn(text, "setup")["setup_s"]
                       for _ in range(SETUP_PROBES)]
        # a far slower program gets fewer rounds rather than an overlong run
        over = perf_counter() - t_start + 2 * res["wall_s"] > MAX_RUN_S
        if over and plain and (traced or not trace):
            break

    # The host's other tenants change the speed a CPU gives the interpreter
    # by up to 2x for stretches of seconds to minutes, so every timing is
    # expressed at the reference speed (see speed_factors) before the
    # median over rounds is taken.  Set-up is too short and too unlike the
    # calibration loop to be scaled one process at a time, so its median
    # over the run is scaled by the median speed of the run.
    run_speed = CAL_REF_S / statistics.median(d for r in plain
                                              for _, d in r["cal"])
    scaled = [scaled_lats(r) for r in plain]
    walls = [r["wall_s"] for r in plain]
    lats = sorted(statistics.median(job) for job in zip(*scaled))
    wall_s = statistics.median(sum(lats_r) for lats_r in scaled)
    e2e = {
        "setup_s": statistics.median(setups) * run_speed,
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "query_p50_ms": 1000 * statistics.median(lats),
        "query_p99_ms": 1000 * _percentile(lats, 99),
    }
    report = {"workload": workload, "seed": seed, "round_walls": walls,
              "rounds": len(plain), "rounds_planned": modes.count("run"),
              "traced_rounds": len(traced), "samples": len(lats),
              "setup_samples": len(setups), "e2e": e2e,
              "fail_ratio": failed / attempted,
              "lemma_coverage": _lemma_coverage(wl, plan, first)}
    if trace:
        report["layers"] = layer_metrics(wl, plan, traced, wall_s)
        report["spans_file"] = str(spans_path)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in e2e.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"result": result, "report": report}


def _percentile(sorted_xs: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' rule)."""
    if len(sorted_xs) == 1:
        return sorted_xs[0]
    return statistics.quantiles(sorted_xs, n=100, method="inclusive")[p - 1]


def _lemma_coverage(wl, plan: dict, res: dict) -> dict[str, dict]:
    """role -> coverage counters of that verify-lemmas call, as reported in
    its JSON stats."""
    rows = {}
    for job, op in zip(plan["jobs"], res["ops"]):
        if job.get("argv", [""])[0] != "verify-lemmas" or op.get("rc") != 0:
            continue
        stats = wl.lemma_stats(op)
        rows[job["role"]] = {
            "k": int(job["argv"][2]),
            "stepss": stats["Stepss"],
            "step3": stats["Step3"]["members_checked"],
            "sym_step3": stats["SymStep3"]["members_checked"],
            "exhaustive_instances": sum(stats[name]["instances"]
                                        for name in wl.EXHAUSTIVE)}
    return rows


def scaled_lats(res: dict) -> list[float]:
    """A round's job latencies at the reference speed."""
    return [op["lat"] * f for op, f in zip(res["ops"], speed_factors(res))]


def speed_factors(res: dict) -> list[float]:
    """For each job of a round, the reference speed over the speed measured
    around it: CAL_REF_S over the mean calibration chunk sampled while the
    job ran, or, for a job without one (shorter than the sampling interval,
    or in a traced round), the chunks just before and after it."""
    starts = [t for t, _ in res["cal"]]
    durs = [d for _, d in res["cal"]]
    factors = []
    for op in res["ops"]:
        t0, t1 = op["t"]
        lo, hi = bisect_left(starts, t0), bisect_right(starts, t1)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        factors.append(CAL_REF_S / statistics.fmean(durs[lo:hi]))
    return factors


def layer_metrics(wl, plan: dict, traced: list[dict],
                  wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the median of each over the traced rounds.  The
    overhead is the traced rounds' median time to verdict minus wall_s,
    both at the reference speed."""
    per_round = [_layer_round(wl, plan, r, wall_s) for r in traced]
    out = {name: (statistics.median(row[name][0] for row in per_round), unit)
           for name, (_, unit) in per_round[0].items()}
    out["trace.overhead_s"] = (
        statistics.median(sum(scaled_lats(r)) for r in traced) - wall_s, "s")
    return out


def _layer_round(wl, plan: dict, res: dict,
                 plain_wall: float) -> dict[str, tuple[float, str]]:
    from spans import EXHAUSTIVE_ORACLES, SAMPLED_ORACLES

    spans = res["trace"]["spans"]
    counters = res["trace"]["counters"]

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    specs = hits = 0
    for job, op in zip(plan["jobs"], res["ops"]):
        if "tup" in job:
            specs += (op.get("summary") or {}).get("specs_checked", 0)
        elif job["argv"][0] == "cancel-sample" and op.get("rc") == 0:
            hits += json.loads(op["out"])["details"]["antecedent_hits"]
    coverage = _lemma_coverage(wl, plan, res)

    exhaustive_s = self_s(*(f"lemmas.{f}" for f in EXHAUSTIVE_ORACLES))
    instances = sum(c["exhaustive_instances"] for c in coverage.values())
    canon_calls = counters["canon_calls"]
    m = {
        "quaternion.generate_group_s": (self_s("quaternion.generate_group"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "words.canonical_form.calls": (calls("words.canonical_form"), "count"),
        "words.canonical_form.self_s": (self_s("words.canonical_form"), "s"),
        "words.words_equal.calls": (calls("words.words_equal"), "count"),
        "words.words_equal.self_s": (self_s("words.words_equal"), "s"),
        "words.class_of.calls": (calls("words.class_of"), "count"),
        "words.class_of.self_s": (self_s("words.class_of"), "s"),
        "words.class_of.members": (counters["class_members"], "count"),
        "words.canon_memo.hit_ratio": (
            (canon_calls - counters["canon_misses"]) / canon_calls
            if canon_calls else 0.0, "ratio"),
        "lemmas.exhaustive.self_s": (exhaustive_s, "s"),
        "lemmas.exhaustive.instances": (instances, "count"),
        "lemmas.exhaustive.instances_per_s": (
            instances / exhaustive_s if exhaustive_s else 0.0, "1/s"),
        "lemmas.sampled.self_s": (
            self_s(*(f"lemmas.{f}" for f in SAMPLED_ORACLES)), "s"),
        "structure.product_report.calls": (
            calls("structure.product_report"), "count"),
        "structure.product_report.self_s": (
            self_s("structure.product_report"), "s"),
        "structure.specs_per_s": (specs / plain_wall if specs else 0.0, "1/s"),
        "structure.cancellation_report.self_s": (
            self_s("structure.cancellation_report"), "s"),
        "structure.antecedent_hits": (hits, "count"),
        "algebra.mul_with_canon.calls": (calls("algebra.mul_with_canon"), "count"),
        "algebra.mul_with_canon.self_s": (self_s("algebra.mul_with_canon"), "s"),
        "algebra.term_products": (counters["term_products"], "count"),
    }
    for role in ("small_k", "large_k"):
        c = coverage.get(role, {})
        stepss = c.get("stepss", {})
        both, first_only, second_only = stepss.get("condition_counts", (0, 0, 0))
        m.update({
            f"lemmas.stepss.pairs.{role}": (stepss.get("pairs", 0), "count"),
            f"lemmas.stepss.condition_counts.{role}.both": (both, "count"),
            f"lemmas.stepss.condition_counts.{role}.first_only": (
                first_only, "count"),
            f"lemmas.stepss.condition_counts.{role}.second_only": (
                second_only, "count"),
            f"lemmas.step3.members_checked.{role}": (
                c.get("step3", 0) + c.get("sym_step3", 0), "count"),
        })
    return m


def _print_report(rep: dict) -> None:
    if rep["rounds"] < rep["rounds_planned"]:
        print(f"note: {rep['rounds']} of {rep['rounds_planned']} rounds run,"
              f" the rest would have passed {MAX_RUN_S} s")
    print(f"{rep['workload']} seed={rep['seed']}: {rep['rounds']} rounds"
          f" ({rep['traced_rounds']} traced), {rep['samples']} jobs a round,"
          f" fail_ratio {rep['fail_ratio']:.4g}")
    for name, value in rep["e2e"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {rep['setup_samples']} set-ups)"
        elif name.startswith("query_"):
            note = (f"  (over {rep['samples']} jobs, each the median of"
                    f" {rep['rounds']} rounds)")
        elif name == "wall_s":
            note = ("  (as measured: median round"
                    f" {statistics.median(rep['round_walls']):.3g}; rounds: "
                    + " ".join(f"{w:.3g}" for w in rep["round_walls"]) + ")")
        print(f"  {name:<14} {value:.6g} {UNITS[name]}{note}")
    print(f"  {'fail_ratio':<14} {rep['fail_ratio']:.6g} ratio")
    for row in rep["lemma_coverage"].values():
        s = row["stepss"]
        print(f"  k={row['k']} Stepss pairs={s['pairs']} classes={s['classes']}"
              f" condition_counts={s['condition_counts']};"
              f" Step3 members_checked={row['step3']};"
              f" SymStep3 members_checked={row['sym_step3']}")
    for name, (value, unit) in rep.get("layers", {}).items():
        print(f"  {name:<56} {value:.6g} {unit}")
    if "spans_file" in rep:
        print(f"  spans: {rep['spans_file']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name, or 'all' to run each in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = _load_workloads()
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    if not set(names) <= set(wl.WORKLOADS):
        ap.error(f"--workload must be one of {', '.join(wl.WORKLOADS)} or all")
    results = {}
    for name in names:
        out = measure(name, args.seed, args.seconds, bool(args.trace))
        _print_report(out["report"])
        results[name] = out["result"]
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
