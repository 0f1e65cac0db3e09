#!/usr/bin/env python3
"""Tests of the benchmark's traced-run hygiene and output checks.

Run from the repository root::

    python3 perfbench/selftest.py

They check that the wrappers exist only inside a traced block and are
restored afterwards (also when the block raises), that a missing entry
point is reported as absent rather than crashing, that spans stay in
memory until written, and that every wrapped entry point records at least
one call on the workload that should load it.  They also check that
fig6_static draws new mixes for each repetition and repeats them for the
same one, and that a Best-Static row beaten on an exactly solved mix fails
the run.  The workloads run on reduced inputs so the whole file takes
seconds.
"""

from __future__ import annotations

import gzip
import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.runtime.executors import framing  # noqa: E402
from repro.service import protocol  # noqa: E402

#: Entry points each workload must call at least once.
EXPECTED_CALLS = {
    "fig7_dynamic": (
        "occupancy.cache_solve",
        "estimator.evaluate_tokens",
        "engine.run",
        "driver.lfoc_sample",
        "driver.lfoc_interval",
        "driver.dunn_sample",
        "driver.dunn_interval",
        "monitor.observe_row",
        "cat.apply",
        "decide.lfoc",
        "executor.create",
        "executor.prepare",
        "executor.set_context",
        "executor.map",
    ),
    "fig6_static": (
        "occupancy.model_solve",
        "estimator.evaluate_allocation",
        "policy.lfoc",
        "policy.dunn",
        "policy.kpart",
        "policy.best_static",
        "solver.bnb",
        "solver.local_search",
        "executor.create",
        "executor.set_context",
        "executor.map",
    ),
    "service_drain": (
        "codec.pack",
        "codec.feed",
        "protocol.check",
        "session.drain",
        "decide.lfoc",
        "monitor.observe_batch",
        "replay.append",
        "snapshot.save",
    ),
    "study_tcp": (
        "executor.create",
        "executor.prepare",
        "executor.set_context",
        "executor.map",
    ),
}

#: Entry points no workload loads with the package defaults, and why.
DEFAULT_OFF = {
    "engine.multirun": "the multirun engine is not the default engine backend",
    "monitor.observe": "AppMonitor is the reference monitor; the default "
    "drivers and the service ingest through MonitorBank rows",
}

_REDUCED = {
    "FIG7_MIXES": 1,
    "FIG6_MIXES": ((6, 1), (12, 1)),
    "SERVICE_HOSTS": 4,
    "SERVICE_BATCHES": 8,
}
_saved = {}


def _scratch() -> tempfile.TemporaryDirectory:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK_DIR)


def setUpModule():
    for name, value in _REDUCED.items():
        _saved[name] = getattr(workloads, name)
        setattr(workloads, name, value)


def tearDownModule():
    for name, value in _saved.items():
        setattr(workloads, name, value)


def _slow_step() -> None:
    """Stands in for the work a caller does between two generator items."""
    time.sleep(0.01)


def _bindings():
    """Identity of every present entry point's owner attribute."""
    out = {}
    for entry in tracing.ENTRY_POINTS:
        owner, attr, raw = tracing._resolve(entry)
        out[entry.name] = (owner.__dict__.get(attr, None), raw)
    return out


class InstallTests(unittest.TestCase):
    def test_wrapped_only_inside_the_block(self):
        before = _bindings()
        for _own, raw in before.values():
            self.assertFalse(hasattr(raw, "__wrapped__"))
        with tracing.installed(tracing.Tracer()) as absent:
            self.assertEqual(absent, [])
            for entry in tracing.ENTRY_POINTS:
                _owner, _attr, raw = tracing._resolve(entry)
                self.assertTrue(hasattr(raw, "__wrapped__"), entry.name)
        after = _bindings()
        for name, (own, raw) in before.items():
            self.assertIs(after[name][0], own, name)
            self.assertIs(after[name][1], raw, name)

    def test_restored_when_the_block_raises(self):
        before = _bindings()
        with self.assertRaises(RuntimeError):
            with tracing.installed(tracing.Tracer()):
                raise RuntimeError("boom")
        after = _bindings()
        for name, (own, raw) in before.items():
            self.assertIs(after[name][0], own, name)
            self.assertIs(after[name][1], raw, name)

    def test_missing_entry_point_is_reported_absent(self):
        entries = (
            tracing.EntryPoint("gone.method", "repro.runtime.engine",
                               "RuntimeEngine.deleted_method", "engine"),
            tracing.EntryPoint("gone.module", "repro.no_such_module", "run",
                               "engine"),
            tracing.ENTRY_POINTS[0],
        )
        with tracing.installed(tracing.Tracer(), entries) as absent:
            self.assertEqual(absent, ["gone.method", "gone.module"])

    def test_spans_stay_in_memory_until_written(self):
        tracer = tracing.Tracer()
        with _scratch() as tmp:
            workload = workloads.build_workloads(tmp)["service_drain"]
            inputs = workload.setup(3)
            path = os.path.join(tmp, "spans.csv.gz")
            with tracing.installed(tracer):
                workload.job(inputs, tracer)
            self.assertFalse(os.path.exists(path))
            self.assertGreater(tracer.span_count(), 0)
            tracer.write_spans(path)
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        self.assertEqual(len(lines), tracer.span_count() + 1)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        with tracer.span("outer", "a"):
            with tracer.span("inner", "b"):
                sum(range(10000))
        self.assertAlmostEqual(
            tracer.self_time["a"] + tracer.self_time["b"],
            tracer.inclusive["outer"],
            places=9,
        )
        self.assertEqual(tracer.busy["b"], tracer.inclusive["inner"])

    def test_generator_span_excludes_the_callers_work(self):
        tracer = tracing.Tracer()
        entries = (
            next(e for e in tracing.ENTRY_POINTS if e.name == "codec.feed"),
            tracing.EntryPoint("slow", __name__, "_slow_step", "slow"),
        )
        data = b"".join(
            framing.pack_frame(protocol.host_bye(seq)) for seq in (1, 2, 3)
        )
        with tracing.installed(tracer, entries):
            for _frame in framing.FrameReader().feed(data):
                _slow_step()
        self.assertEqual(tracer.calls["slow"], 3)
        self.assertGreaterEqual(tracer.busy["slow"], 0.03)
        self.assertLess(tracer.busy["codec"], 0.01)
        self.assertEqual(tracer.counters["codec.bytes"], len(data))


class CoverageTests(unittest.TestCase):
    """Every wrapped entry point is loaded by the workload meant to load it."""

    def test_every_entry_point_is_expected_somewhere(self):
        expected = {name for names in EXPECTED_CALLS.values() for name in names}
        for entry in tracing.ENTRY_POINTS:
            self.assertTrue(
                entry.name in expected or entry.name in DEFAULT_OFF, entry.name
            )

    def _traced_calls(self, name: str):
        with _scratch() as tmp:
            workload = workloads.build_workloads(tmp)[name]
            inputs = workload.setup(3)
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                job = workload.job(inputs, tracer)
        self.assertEqual(job.failed, 0)
        return tracer.calls

    def test_workloads_load_their_layers(self):
        for name, entries in EXPECTED_CALLS.items():
            with self.subTest(workload=name):
                calls = self._traced_calls(name)
                for entry in entries:
                    self.assertGreaterEqual(calls.get(entry, 0), 1, entry)


class OutputCheckTests(unittest.TestCase):
    def test_fig6_repetitions_draw_their_own_mixes(self):
        with _scratch() as tmp:
            workload = workloads.build_workloads(tmp)["fig6_static"]
            inputs = workload.setup(3)
            first, again, other = (workload.job(inputs, rep=r) for r in (1, 1, 2))
        self.assertEqual(first.digest, again.digest)
        self.assertNotEqual(first.digest, other.digest)
        self.assertEqual(first.problems, [])

    def test_best_static_beaten_on_an_exact_mix_fails(self):
        with _scratch() as tmp:
            workload = workloads.build_workloads(tmp)["fig6_static"]
            inputs = workload.setup(3)
            job = workload.job(inputs)
        rows = [dict(row) for row in job.detail]
        exact = [r for r in rows if r["size"] == workloads.FIG6_EXACT_SIZE]
        best = next(r for r in exact if r["policy"] == "Best-Static")
        other = next(
            r for r in exact
            if r["policy"] != "Best-Static" and r["workload"] == best["workload"]
        )
        other["unfairness"] = best["unfairness"] * 0.5
        problems = workloads._row_problems(inputs["spec"], rows)
        self.assertEqual(len(problems), 1)
        self.assertIn("Best-Static", problems[0])


if __name__ == "__main__":
    unittest.main()
