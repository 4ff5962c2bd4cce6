"""In-memory spans recorded by wrappers around qsemi's layer boundaries.

The wrappers replace module attributes through which one layer calls
another (`qsemi.cli.words_equal`, `qsemi.structure.product_report`, ...),
so the program's own code is untouched.  A span is (operation, parent,
name, start, end); spans of one operation (one job of the workload) share
the operation id, and operation 0 is set-up.  Spans live in flat arrays
while the round runs and are aggregated and written out after it.
"""

from __future__ import annotations

import csv
import gzip
from array import array
from time import perf_counter

EXHAUSTIVE_ORACLES = ("verify_not_possible", "verify_max_one", "verify_big",
                      "verify_overlapp", "verify_sym_not_possible",
                      "verify_sym_max_one", "verify_sym_overlapp")
SAMPLED_ORACLES = ("verify_stepss", "verify_step3", "verify_sym_step3")

# (module, attribute, span name).  `qsemi.cli.generate_group` is left
# unwrapped on purpose: the per-call group build is part of the CLI's own
# fixed cost, while `quaternion.generate_group` times the set-up builds.
BOUNDARIES = (
    [("qsemi.cli", "main", "cli.main"),
     ("qsemi.quaternion", "generate_group", "quaternion.generate_group"),
     ("qsemi.cli", "words_equal", "words.words_equal"),
     ("qsemi.structure", "words_equal", "words.words_equal"),
     ("qsemi.cli", "canonical_form", "words.canonical_form"),
     ("qsemi.words", "canonical_form", "words.canonical_form"),
     ("qsemi.structure", "class_of", "words.class_of"),
     ("qsemi.lemmas", "class_of", "words.class_of"),
     ("qsemi.cli", "run_lemma_suite", "lemmas.run_lemma_suite"),
     ("qsemi.structure", "run_tup_sweep", "structure.run_tup_sweep"),
     ("qsemi.structure", "product_report", "structure.product_report"),
     ("qsemi.cli", "cancellation_report", "structure.cancellation_report"),
     ("qsemi.cli", "zero_divisor_search", "algebra.zero_divisor_search"),
     ("qsemi.algebra", "mul_with_canon", "algebra.mul_with_canon")]
    + [("qsemi.lemmas", f, f"lemmas.{f}")
       for f in EXHAUSTIVE_ORACLES + SAMPLED_ORACLES])

# canonicalizer factories whose closures are counted for the memo hit ratio
CANONICALIZERS = (("qsemi.structure", "canonicalizer"),
                  ("qsemi.algebra", "canonicalizer"))


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.op = 0
        self._name_ids: dict[str, int] = {}  # span name -> id, in id order
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.class_members = 0
        self.term_products = 0
        self.canon_calls = 0
        self.canon_misses = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import importlib
        hooks = {"words.class_of": self._count_members,
                 "algebra.mul_with_canon": self._count_terms}
        for modname, attr, name in BOUNDARIES:
            mod = importlib.import_module(modname)
            self._patch(mod, attr,
                        self._wrap(name, getattr(mod, attr), hooks.get(name)))
        for modname, attr in CANONICALIZERS:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._counting_factory(getattr(mod, attr)))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _patch(self, mod, attr: str, replacement) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        stack = self._stack
        ops, parents, names = self.span_op, self.span_parent, self.span_name
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            sid = len(starts)
            ops.append(self.op)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_members(self, args, cls) -> None:
        self.class_members += len(cls.members)

    def _count_terms(self, args, result) -> None:
        self.term_products += len(args[0].terms) * len(args[1].terms)

    def _counting_factory(self, factory):
        """Wrap a canonicalizer factory so each closure it returns counts its
        calls, and as misses the calls that reached a wrapped function (the
        closure only calls `words.canonical_form` when its memo misses)."""
        starts = self.span_start

        def counting_factory(*args, **kwargs):
            canon = factory(*args, **kwargs)

            def counted(w):
                self.canon_calls += 1
                before = len(starts)
                r = canon(w)
                if len(starts) != before:
                    self.canon_misses += 1
                return r

            return counted

        return counting_factory

    # -- results -----------------------------------------------------------

    def aggregate(self) -> dict:
        """name -> {calls, total_s, self_s}; self time is a span's duration
        minus the durations of its direct children (calls are sequential)."""
        count = len(self.span_start)
        child = [0.0] * count
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        names = list(self._name_ids)
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in names}
        for i in range(count):
            row = out[names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return {"spans": out,
                "counters": {"class_members": self.class_members,
                             "term_products": self.term_products,
                             "canon_calls": self.canon_calls,
                             "canon_misses": self.canon_misses}}

    def write(self, path, t0: float) -> None:
        """Write every span as CSV (gzip), times in seconds from t0."""
        names = list(self._name_ids)
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "span", "parent", "name", "start_s", "end_s"])
            for i in range(len(self.span_start)):
                out.writerow([self.span_op[i], i, self.span_parent[i],
                              names[self.span_name[i]],
                              f"{self.span_start[i] - t0:.9f}",
                              f"{self.span_end[i] - t0:.9f}"])
