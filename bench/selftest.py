"""Self-test of the benchmark harness at tiny parameters (about a minute).

    python3 bench/selftest.py

Shows that every metric BENCHMARK.json names is emitted with its unit, in
both modes and on every workload; that a planted wrong answer from the
program raises fail_ratio; that timings are scaled by the speed sampled
around them; and that without the package the harness fails without
printing a result.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

wl = run._load_workloads()

import child  # noqa: E402  (needs qsemi on the path)
import qsemi.cli  # noqa: E402
import qsemi.lemmas  # noqa: E402
import qsemi.structure  # noqa: E402
from qsemi.words import find_relation_factors  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _in_process(plan_text: str, mode: str, spans_path=None) -> dict:
    """run._spawn without the fresh interpreter, so a test can plant faults."""
    res = child.run_round(json.loads(plan_text), perf_counter(), mode,
                          spans_path)
    return json.loads(json.dumps(res))


@contextlib.contextmanager
def _patched(module, attr: str, replacement):
    orig = getattr(module, attr)
    setattr(module, attr, replacement(orig))
    try:
        yield
    finally:
        setattr(module, attr, orig)


class MetricsEmitted(unittest.TestCase):

    def _check(self, trace: bool, key: str) -> None:
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                out = run.measure(name, seed=3, seconds=0, trace=trace,
                                  scale="tiny")
                res = out["result"]
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(out["report"]["fail_ratio"], 0)
                got = {m: v["unit"] for m, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for v in res["metrics"].values():
                    self.assertIsInstance(v["value"], (int, float))

    def test_end_to_end(self):
        self._check(False, "end_to_end")

    def test_per_layer(self):
        self._check(True, "per_layer")


class PlantedWrongAnswer(unittest.TestCase):
    """Each planted fault must surface as failed operations."""

    def _fail_ratio(self, workload: str) -> float:
        with _patched(run, "_spawn", lambda orig: _in_process):
            out = run.measure(workload, seed=4, seconds=0, trace=False,
                              scale="tiny")
        self.assertFalse(out["result"]["correct"])
        self.assertGreater(out["result"]["failed"], 0)
        return out["report"]["fail_ratio"]

    def test_baseline_in_process_passes(self):
        with _patched(run, "_spawn", lambda orig: _in_process):
            out = run.measure("word-problem", seed=4, seconds=0, trace=False,
                              scale="tiny")
        self.assertEqual(out["report"]["fail_ratio"], 0)

    def test_word_problem_non_canonical_form(self):
        # sorted letters: same length and multiset, never lexicographically
        # larger than a class member, but not a member
        with _patched(qsemi.cli, "canonical_form",
                      lambda orig: lambda w, g, cfg: tuple(sorted(w))):
            self.assertGreater(self._fail_ratio("word-problem"), 0)

    def test_word_problem_sorted_when_windowed(self):
        # sorted letters only for words holding a window, and equality as
        # equal forms: right on every pair whose classes differ in multiset
        def form(w, g, cfg):
            return tuple(sorted(w)) if find_relation_factors(w, g) else w

        with _patched(qsemi.cli, "canonical_form", lambda orig: form), \
                _patched(qsemi.cli, "words_equal", lambda orig: (
                    lambda w1, w2, g, cfg: form(w1, g, cfg) == form(w2, g, cfg))):
            self.assertGreater(self._fail_ratio("word-problem"), 0)

    def test_word_problem_merges_same_multiset(self):
        # right canonical forms, but any two words with the same letters
        # are called equal: only the swapped unequal pairs can tell
        with _patched(qsemi.cli, "words_equal", lambda orig: (
                lambda w1, w2, g, cfg: sorted(w1) == sorted(w2))):
            self.assertGreater(self._fail_ratio("word-problem"), 0)

    def test_lemma_suite_coverage_cut_short(self):
        def fewer(orig):
            def verify(g):
                report = orig(g)
                report.stats["instances"] -= 1
                return report
            return verify
        with _patched(qsemi.lemmas, "verify_big", fewer):
            self.assertGreater(self._fail_ratio("lemma-suite"), 0)

    def test_tup_sweep_skips_a_spec(self):
        def skip_last(orig):
            return lambda reps, max_size: list(orig(reps, max_size))[:-1]
        with _patched(qsemi.structure, "subset_specs_over", skip_last):
            self.assertGreater(self._fail_ratio("tup-sweep"), 0)

    def test_algebra_vacuous_cancellation(self):
        # a words_equal that never holds leaves every antecedent false
        with _patched(qsemi.structure, "words_equal",
                      lambda orig: lambda *a: False):
            self.assertGreater(self._fail_ratio("algebra-sampling"), 0)


class SpeedScaling(unittest.TestCase):

    def test_latency_scaled_by_samples_around_it(self):
        # chunks took 2 ms (half the reference speed) until t=1.5, then 1 ms
        res = {"cal": [(0.0, 2e-3), (1.0, 2e-3), (2.0, 1e-3), (3.0, 1e-3)],
               "ops": [{"t": [0.5, 1.5]},    # holds the sample at t=1
                       {"t": [2.2, 2.3]},    # none: the ones at t=2 and 3
                       {"t": [0.9, 2.1]}]}   # the ones at t=1 and 2
        got = run.speed_factors(res)
        want = [0.5, 1.0, 1 / 1.5]
        for g, w in zip(got, want):
            self.assertAlmostEqual(g, w * run.CAL_REF_S / 1e-3)

    def test_round_samples_speed_throughout(self):
        plan = wl.make_plan("tup-sweep", seed=1, scale="tiny")
        res = _in_process(json.dumps(plan), "run")
        times = [t for t, _ in res["cal"]]
        t0, t1 = res["ops"][0]["t"]
        self.assertLessEqual(times[0], t0)
        self.assertGreaterEqual(times[-1], t1)
        # the time of the chunks taken during the job is left out of it
        inside = sum(d for t, d in res["cal"] if t0 <= t <= t1)
        self.assertGreaterEqual(t1 - t0 - res["ops"][0]["lat"], inside)


class WithoutPackage(unittest.TestCase):

    def test_bare_directory_fails_without_result(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "tup-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
