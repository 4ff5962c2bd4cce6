"""Every benchmark workload runs at its tiny scale and gets right answers,
and every wrong answer the harness's self-test plants is caught.

The harness calls the package through names it does not own
(`qsemi.cli.main`, `qsemi.structure.run_tup_sweep`, `words.rewrite_step`,
`words.default_config`, ...), and its self-test patches others
(`structure.subset_specs_over`, `cli.canonical_form`, `cli.words_equal`,
`lemmas.verify_big`, ...), so a change to one of them that breaks the
benchmark fails here first.
"""

import importlib
import io
import unittest
from pathlib import Path
from time import perf_counter

import pytest

from conftest import bench_module

BENCH = Path(__file__).resolve().parents[1] / "bench"


# a traced round wraps every name in `spans.BOUNDARIES` and
# `spans.CANONICALIZERS`, so renaming one breaks these cases; the untraced
# ones keep the bare workload name as their id
@pytest.mark.parametrize("name, mode", [
    pytest.param(name, mode, id=name if mode == "run" else f"{name}-traced")
    for mode in ("run", "trace") for name in bench_module("workloads").WORKLOADS])
def test_tiny_round_is_correct(name, mode, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    child = importlib.import_module("child")
    plan = workloads.make_plan(name, seed=3, scale="tiny")
    result = child.run_round(plan, perf_counter(), mode)
    assert len(result["ops"]) == len(plan["jobs"])
    assert all(workloads.check_round(plan, result, None)), result["ops"]
    if mode == "trace":
        top = "structure.run_tup_sweep" if "tup" in plan else "cli.main"
        assert result["trace"]["spans"][top]["calls"], result["trace"]


def test_planted_wrong_answers_raise_fail_ratio(monkeypatch):
    # bench/selftest.py's in-process cases, without its slower
    # subprocess and metric-emission cases
    monkeypatch.syspath_prepend(str(BENCH))
    cases = bench_module("selftest").PlantedWrongAnswer
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(cases)
    result = unittest.TextTestRunner(stream=io.StringIO()).run(suite)
    assert result.testsRun == suite.countTestCases() >= 7
    assert result.wasSuccessful(), result.failures + result.errors
