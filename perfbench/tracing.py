"""In-memory span tracing around the public entry points of each layer.

The traced run of the benchmark replaces selected functions and methods of
the ``repro`` package with timing wrappers, from this file only: no source
file of the package changes.  :func:`installed` puts the wrappers in place
and always restores the originals on exit, so untraced repetitions run the
unmodified code.

Every call of a wrapped entry point records a span (entry id, start, end,
parent span, root span); a wrapped generator records one span per
resumption.  Spans stay in memory and are written out once, at
the end of the run (:meth:`Tracer.write_spans`).  Aggregates are kept per
repetition:

* per entry point: calls and inclusive seconds;
* per layer: *busy* seconds (outermost spans of the layer only, so recursion
  or one entry point calling another of the same layer is not counted
  twice) and *self* seconds (span time not covered by a child span);
* counters filled by result hooks (occupancy iterations, candidates scored,
  bytes framed, ...).

An entry point that no longer exists in the package is reported as absent,
not as a crash, so the benchmark survives deletions in later changes.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import os
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "EntryPoint", "Tracer", "installed"]

_MISSING = object()


def _iterations(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("occupancy.iterations", result.iterations)
    if not result.converged:
        tracer.count("occupancy.unconverged", 1)


def _candidates(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("solver.candidates", result.candidates_evaluated)


def _packed_bytes(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("codec.bytes", len(result))


def _fed_bytes(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("codec.bytes", len(args[1]))


def _snapshot_bytes(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("snapshot.bytes", os.path.getsize(args[1]))


def _mapped_tasks(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("executor.tasks", len(result))


def _one_run(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("engine.runs", 1)


def _member_runs(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("engine.runs", len(result))


def _replay_decision(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("replay.decisions", 1)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped public function: ``module:attr`` charged to ``layer``."""

    name: str
    module: str
    attr: str
    layer: str
    hook: Optional[Callable[["Tracer", tuple, Any], None]] = None


#: Every entry point the traced run wraps, grouped by the layer it belongs to.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("occupancy.cache_solve", "repro.simulator.occupancy",
               "OccupancyTrajectoryCache.solve", "occupancy", _iterations),
    EntryPoint("occupancy.model_solve", "repro.simulator.occupancy",
               "OccupancyModel.solve", "occupancy", _iterations),
    EntryPoint("estimator.evaluate_tokens", "repro.simulator.estimator",
               "EvaluationTables.evaluate_tokens", "estimator"),
    EntryPoint("estimator.evaluate_allocation", "repro.simulator.estimator",
               "ClusteringEstimator.evaluate_allocation", "estimator"),
    EntryPoint("engine.run", "repro.runtime.engine", "RuntimeEngine.run",
               "engine", _one_run),
    EntryPoint("engine.multirun", "repro.runtime.multirun", "MultiRunEngine.run",
               "engine", _member_runs),
    EntryPoint("driver.lfoc_sample", "repro.runtime.scheduler",
               "LfocSchedulerPlugin.on_sample", "driver"),
    EntryPoint("driver.lfoc_interval", "repro.runtime.scheduler",
               "LfocSchedulerPlugin.on_interval", "driver"),
    EntryPoint("driver.dunn_sample", "repro.runtime.scheduler",
               "DunnUserLevelDaemon.on_sample", "driver"),
    EntryPoint("driver.dunn_interval", "repro.runtime.scheduler",
               "DunnUserLevelDaemon.on_interval", "driver"),
    EntryPoint("monitor.observe_row", "repro.runtime.monitor",
               "MonitorBank.observe_row", "monitor"),
    EntryPoint("monitor.observe_batch", "repro.runtime.monitor",
               "MonitorBank.observe_batch", "monitor"),
    EntryPoint("monitor.observe", "repro.runtime.monitor",
               "AppMonitor.observe", "monitor"),
    EntryPoint("cat.apply", "repro.hardware.cat",
               "CatController.apply_allocation", "cat"),
    EntryPoint("policy.lfoc", "repro.policies.lfoc", "LfocPolicy.allocate",
               "policy"),
    EntryPoint("policy.dunn", "repro.policies.dunn", "DunnPolicy.allocate",
               "policy"),
    EntryPoint("policy.kpart", "repro.policies.kpart", "KPartPolicy.allocate",
               "policy"),
    EntryPoint("policy.best_static", "repro.policies.best_static",
               "BestStaticPolicy.allocate", "policy"),
    # Patched where Best-Static looks them up, not where they are defined.
    EntryPoint("solver.bnb", "repro.policies.best_static",
               "branch_and_bound_clustering", "solver", _candidates),
    EntryPoint("solver.local_search", "repro.policies.best_static",
               "local_search_clustering", "solver", _candidates),
    EntryPoint("executor.create", "repro.experiments.specs",
               "ExecutorSpec.create", "executor.start"),
    EntryPoint("executor.prepare", "repro.runtime.executors.base",
               "Executor.prepare", "executor.start"),
    EntryPoint("executor.set_context", "repro.runtime.executors.base",
               "Executor.set_context", "executor.start"),
    EntryPoint("executor.map", "repro.runtime.executors.base",
               "Executor.map_specs", "executor.map", _mapped_tasks),
    EntryPoint("codec.pack", "repro.runtime.executors.framing", "pack_frame",
               "codec", _packed_bytes),
    EntryPoint("codec.feed", "repro.runtime.executors.framing",
               "FrameReader.feed", "codec", _fed_bytes),
    EntryPoint("protocol.check", "repro.service.protocol", "check_frame",
               "protocol"),
    EntryPoint("session.drain", "repro.service.session",
               "ServiceCore.handle_drain", "session"),
    EntryPoint("decide.lfoc", "repro.core.lfoc",
               "LfocDecisionCache.allocation_for", "decide"),
    EntryPoint("replay.append", "repro.service.replay", "ReplayLog.append",
               "replay", _replay_decision),
    EntryPoint("snapshot.save", "repro.service.snapshot", "save_snapshot",
               "snapshot", _snapshot_bytes),
)

#: Layers that absorb every wrapped call made inside them: the load
#: generator's own framing and checks are charged to it, never to the server.
ABSORBING_LAYERS = ("loadgen",)


class Tracer:
    """Span recorder with per-repetition aggregates (see the module doc)."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._layers: Dict[str, str] = {}
        # Raw spans of the current repetition, as parallel compact arrays.
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_root = array("i")
        # Open spans: [span index, name id, layer, start, child seconds].
        self._stack: List[list] = []
        self._layer_depth: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.inclusive: Dict[str, float] = {}
        self.busy: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.counters: Dict[str, float] = {}
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = len(self._names)
            self._names.append(name)
            self._name_ids[name] = index
            self._layers[name] = layer
        return index

    def absorbed(self) -> Optional[str]:
        """The absorbing layer the current call runs inside, if any."""
        for layer in ABSORBING_LAYERS:
            if self._layer_depth.get(layer):
                return layer
        return None

    def enter(self, name: str, layer: str) -> list:
        index = len(self._span_name)
        parent = self._stack[-1][0] if self._stack else -1
        root = self._span_root[parent] if parent >= 0 else index
        name_id = self._name_id(name, layer)
        self._span_name.append(name_id)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        self._span_parent.append(parent)
        self._span_root.append(root)
        self._layer_depth[layer] = self._layer_depth.get(layer, 0) + 1
        frame = [index, name, layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, name, layer, start, children = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        duration = end - start
        self._span_start[index] = start - self.origin
        self._span_end[index] = end - self.origin
        if self._stack:
            self._stack[-1][4] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - children
        depth = self._layer_depth[layer] - 1
        self._layer_depth[layer] = depth
        if depth == 0:
            self.busy[layer] = self.busy.get(layer, 0.0) + duration

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        frame = self.enter(name, layer)
        try:
            yield
        finally:
            self.exit(frame)

    def count(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- repetitions -------------------------------------------------------------

    def reset(self) -> None:
        """Start a new repetition: clear aggregates and the raw span buffer."""
        if self._stack:
            raise RuntimeError("cannot reset a tracer with open spans")
        for buffer in (self._span_name, self._span_parent, self._span_root):
            del buffer[:]
        for buffer in (self._span_start, self._span_end):
            del buffer[:]
        self._layer_depth.clear()
        self.calls.clear()
        self.inclusive.clear()
        self.busy.clear()
        self.self_time.clear()
        self.counters.clear()

    def span_count(self) -> int:
        return len(self._span_name)

    def write_spans(self, path: str) -> None:
        """Write the buffered spans as gzip'd CSV (one line per span)."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span,name,layer,start_s,end_s,parent,root\n")
            for i in range(len(self._span_name)):
                name = self._names[self._span_name[i]]
                handle.write(
                    f"{i},{name},{self._layers[name]},{self._span_start[i]:.9f},"
                    f"{self._span_end[i]:.9f},{self._span_parent[i]},"
                    f"{self._span_root[i]}\n"
                )


# -- installing wrappers -----------------------------------------------------------


def _resolve(entry: EntryPoint) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for an entry point; raises if absent."""
    owner: Any = importlib.import_module(entry.module)
    parts = entry.attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, parts[-1])
    if not callable(raw):
        raise AttributeError(f"{entry.module}:{entry.attr} is not a plain function")
    return owner, parts[-1], raw


def _wrap(tracer: Tracer, entry: EntryPoint, fn: Callable) -> Callable:
    name, layer, hook = entry.name, entry.layer, entry.hook

    if inspect.isgeneratorfunction(fn):
        # One span per resumption, closed before each yield: the caller's
        # work between two items is not the generator's time.
        def traced_generator(*args, **kwargs):
            if tracer.absorbed():
                yield from fn(*args, **kwargs)
                return
            inner = fn(*args, **kwargs)
            while True:
                frame = tracer.enter(name, layer)
                try:
                    item = next(inner)
                except StopIteration:
                    break
                finally:
                    tracer.exit(frame)
                yield item
            if hook is not None:
                hook(tracer, args, None)

        traced_generator.__wrapped__ = fn
        return traced_generator

    def traced(*args, **kwargs):
        if tracer.absorbed():
            return fn(*args, **kwargs)
        frame = tracer.enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if hook is not None:
            hook(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(
    tracer: Tracer, entries: Tuple[EntryPoint, ...] = ENTRY_POINTS
) -> Iterator[List[str]]:
    """Wrap every present entry point for the duration of the block.

    Yields the names of absent entry points.  The originals are restored on
    exit, including when the block raises: an attribute a class only
    inherited is deleted again rather than left shadowing its base.
    """
    restore: List[Tuple[Any, str, Any]] = []
    absent: List[str] = []
    try:
        for entry in entries:
            try:
                owner, attr, raw = _resolve(entry)
            except (ImportError, AttributeError):
                absent.append(entry.name)
                continue
            own = owner.__dict__.get(attr, _MISSING)
            restore.append((owner, attr, own))
            setattr(owner, attr, _wrap(tracer, entry, raw))
        yield absent
    finally:
        for owner, attr, own in reversed(restore):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
