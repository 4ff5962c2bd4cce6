"""One benchmark round in a fresh interpreter.

Usage (by run.py): python3 child.py SPAWNED_AT MODE [SPANS_PATH] < plan.json

SPAWNED_AT is the parent's `time.perf_counter()` just before it started
this process (CLOCK_MONOTONIC, shared by all processes on Linux), so
`setup_s` covers interpreter start, import, group builds and the tup-sweep
ground set.  MODE is `setup` (stop after set-up), `run` or `trace` (run with
spans recorded).  The result is one JSON object on stdout.

A round also samples the speed the CPU gives the interpreter: one
calibration chunk as the jobs start, one every CAL_INTERVAL_S while they
run (in a traced round, only between jobs) and one after the last (see
Speedometer).  The time spent in those chunks is left out of every job's
latency; run.py uses the samples to express each latency, and set-up
time, at the reference speed.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
from time import perf_counter

import qsemi.cli
import qsemi.quaternion
import qsemi.structure
import qsemi.words
from workloads import halves

CAL_INTERVAL_S = 0.05
_CAL_WORD = tuple(range(1, 17))


def calibrate(loops: int = 3000) -> int:
    """A fixed piece of pure-Python work of the kind qsemi does (tuple
    slices hashed into a dict, small-int arithmetic), about 1 ms at full
    speed.  Its duration tracks how fast this CPU runs the interpreter at
    the moment; it does not touch the package."""
    d: dict = {}
    w = _CAL_WORD
    s = 0
    for i in range(loops):
        j = i & 7
        t = w[j:j + 8]
        d[t] = d.get(t, 0) + 1
        s += t[3] * j % 5
    return s


def calibration_chunk() -> float:
    """Duration of one calibration chunk, with the collector held off so
    that the program's heap cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        calibrate()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Samples the speed of the CPU with calibration chunks.  With `timer`,
    a SIGALRM handler runs one every `interval` seconds, so the speed is
    sampled all through a job without touching the program.  Without it
    (traced rounds, whose spans the chunks would land in) a chunk runs only
    between jobs, once `interval` has passed since the last.  `samples`
    holds (start, duration) pairs and `spent` the time taken by the chunks,
    which job timings subtract."""

    def __init__(self, timer: bool, interval: float = CAL_INTERVAL_S) -> None:
        self.timer = timer
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        self.samples.append((t0, calibration_chunk()))
        self.spent += perf_counter() - t0

    def start(self) -> None:
        """Sample once now, then every interval."""
        self._tick()
        if self.timer:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def between_jobs(self) -> None:
        if not self.timer and perf_counter() - self.samples[-1][0] >= self.interval:
            self._tick()

    def stop(self) -> None:
        """Stop the timer and sample once more."""
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()


def run_round(plan: dict, spawned_at: float, mode: str,
              spans_path: str | None = None) -> dict:
    """Set up, then (unless mode is `setup`) run the plan's jobs once."""
    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        groups = {k: qsemi.quaternion.generate_group(
                      qsemi.quaternion.QuaternionConfig(k))
                  for k in plan["ks"]}
        reps = None
        if "tup" in plan:
            ground = halves(groups[plan["tup"]["k"]])
            reps = [ground[i] for i in plan["tup"]["order"]]
        setup_s = perf_counter() - spawned_at
        if mode == "setup":
            return {"setup_s": setup_s}
        first = perf_counter()
        meter = Speedometer(timer=tracer is None)
        meter.start()
        try:
            ops = _run_jobs(plan, groups, reps, tracer, meter)
        finally:
            meter.stop()
        wall_s = perf_counter() - first - meter.spent
        peak_rss_mb = _peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "ops": ops,
              "cal": meter.samples}
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        if spans_path:
            tracer.write(spans_path, first)
    return result


def _peak_rss_mb() -> float:
    """Peak resident set size of this process image.  On Linux, ru_maxrss
    also counts the pre-exec copy of the parent, so read VmHWM instead."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_jobs(plan, groups, reps, tracer, meter) -> list[dict]:
    ops = []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        for i, job in enumerate(plan["jobs"]):
            if tracer is not None:
                tracer.op = i + 1
            buf.seek(0)
            buf.truncate()
            op: dict = {}
            meter.between_jobs()
            spent = meter.spent
            t0 = perf_counter()
            try:
                if "tup" in job:
                    g = groups[plan["tup"]["k"]]
                    op["summary"], op["failure"] = qsemi.structure.run_tup_sweep(
                        g, qsemi.words.default_config(g.n), reps,
                        job["tup"]["max_size"])
                else:
                    op["rc"] = qsemi.cli.main(job["argv"])
            except SystemExit as exc:  # argparse rejected the command line
                op["rc"] = exc.code
            except Exception as exc:  # a crash is a failed operation
                op["error"] = repr(exc)
            t1 = perf_counter()
            op["t"] = [t0, t1]
            op["lat"] = t1 - t0 - (meter.spent - spent)
            op["out"] = buf.getvalue()
            ops.append(op)
    return ops


def main() -> None:
    spawned_at, mode = float(sys.argv[1]), sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    plan = json.load(sys.stdin)
    result = run_round(plan, spawned_at, mode, spans_path)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
