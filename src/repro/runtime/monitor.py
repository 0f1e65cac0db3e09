"""Per-application online monitoring and class-change detection (Section 4.2).

The OS-level LFOC implementation continuously samples hardware counters for
every application and keeps, per application:

* a **warm-up** countdown — the first few sampling intervals after a task is
  spawned are ignored so cold-start miss spikes do not pollute classification;
* a rolling window of the last few LLCMPKC and ``STALLS_L2_MISS`` samples;
* the current class (initially *unknown*), the slowdown table gathered during
  the last sampling-mode sweep, and the *critical size* of sensitive
  applications (the smallest allocation whose slowdown drops below 5 %);
* the phase-change heuristics that decide when to re-enter the sampling mode:

  - a *light sharing* application is re-sampled when it enters a
    memory-intensive phase (average LLCMPKC above ``high_threshold`` or
    average stall fraction above 25 %);
  - a *streaming* application is re-sampled when its average LLCMPKC falls
    below ``low_threshold`` (30 % of the high threshold);
  - a *sensitive* application is re-sampled when it becomes non-memory
    intensive while its effective occupancy (from CMT) is smaller than its
    critical size, or when its LLCMPKC stays above the high threshold even
    with more space than the critical size.

Two monitor implementations share these semantics:

* :class:`AppMonitor` — the original scalar state machine, one object per
  application.  It is the **scalar oracle** and has no production caller:
  every fused-path change is pinned bit-identical against it (property
  tests in ``tests/test_runtime_monitor_sampling.py``, the
  differential-oracle grid, which runs the reference LFOC driver on plain
  ``AppMonitor``\\ s, and the service's sequential ingest oracle in
  ``tests/oracles.py``).  It stays in this module only because the
  benchmark's tracer (``perfbench/tracing.py``) names
  ``AppMonitor.observe`` as an entry point; it moves to ``tests/`` when
  that list drops it.
* :class:`MonitorBank` — the fused struct-of-arrays kernel: all per-row
  monitor state lives in NumPy arrays (warm-up countdowns, class codes,
  sampling flags, and one 2-column LLCMPKC/stall ring buffer stacked along a
  leading row axis), and :meth:`MonitorBank.observe_batch` ingests one sample
  for many rows in a single vectorized call, returning the re-sampling
  trigger mask.  The incremental LFOC driver and the partitioning service
  store their monitors in banks (exposed through :class:`BankMonitor` row
  views with the ``AppMonitor`` API), and the multi-run engine stacks the
  banks of grouped runs.

A note on batching limits: inside one engine event batch a triggered sampling
sweep reprograms the cache *between* two applications' samples, which changes
the effective-ways input of every later sample in the batch.  Callers must
therefore only pass rows to one ``observe_batch`` call when no reprogram can
happen between them (the per-sample driver path ingests row by row; the
arithmetic is identical either way).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.classification import AppClass, ClassificationThresholds
from repro.errors import SimulationError
from repro.hardware.pmc import DerivedMetrics
from repro.metrics.aggregate import RollingMeanRing, short_mean

__all__ = ["MonitorConfig", "AppMonitor", "MonitorBank", "BankMonitor"]


@dataclass(frozen=True)
class MonitorConfig:
    """Tunables of the online monitoring layer."""

    #: Sampling intervals ignored after the application enters the system.
    warmup_samples: int = 3
    #: Length of the rolling window used by the phase-change heuristics
    #: ("the average LLCMPKC measured over the last five monitoring periods").
    history_window: int = 5
    #: Classification thresholds (shared with the offline classifier).
    thresholds: ClassificationThresholds = field(default_factory=ClassificationThresholds)

    def __post_init__(self) -> None:
        if self.warmup_samples < 0:
            raise SimulationError("warmup_samples must be >= 0")
        if self.history_window < 1:
            raise SimulationError("history_window must be >= 1")


class AppMonitor:
    """Online monitoring state machine for one application (scalar oracle)."""

    def __init__(self, name: str, config: Optional[MonitorConfig] = None) -> None:
        self.name = name
        self.config = config or MonitorConfig()
        self.app_class: AppClass = AppClass.UNKNOWN
        self.warmup_remaining = self.config.warmup_samples
        # Both rolling windows (LLCMPKC, stall fraction) live in one 2-column
        # ring buffer with O(1) mean reads, bit-identical per column to the
        # former pair of RollingMeanWindow deques (and to np.mean).
        self._history = RollingMeanRing(self.config.history_window, 2)
        #: Slowdown table (indexed by way count - 1) built from the last
        #: sampling-mode sweep; only meaningful for sensitive applications.
        self.slowdown_table: Optional[List[float]] = None
        #: Critical size in ways (sensitive applications only).
        self.critical_size: Optional[int] = None
        self.samples_seen = 0
        self.class_changes = 0
        self.sampling_mode_entries = 0
        #: Set by the scheduler while the application is being swept.
        self.in_sampling_mode = False
        #: Monotone counter bumped whenever :meth:`set_classification`
        #: installs a sweep outcome (even one confirming the same class: the
        #: slowdown table or critical size may still have changed).  The
        #: incremental LFOC driver compares version vectors to detect
        #: partitioning intervals whose Algorithm 1 inputs are unchanged.
        self.classification_version = 0

    # -- bookkeeping -------------------------------------------------------------

    @property
    def warmed_up(self) -> bool:
        return self.warmup_remaining == 0

    def average_llcmpkc(self) -> float:
        if not len(self._history):
            return 0.0
        return self._history.mean(0)

    def average_stall_fraction(self) -> float:
        if not len(self._history):
            return 0.0
        return self._history.mean(1)

    def set_classification(
        self,
        app_class: AppClass,
        slowdown_table: Optional[List[float]] = None,
        critical_size: Optional[int] = None,
    ) -> None:
        """Install the outcome of a sampling-mode sweep."""
        if app_class is not AppClass.UNKNOWN and app_class != self.app_class:
            self.class_changes += 1
        self.app_class = app_class
        self.slowdown_table = list(slowdown_table) if slowdown_table is not None else None
        self.critical_size = critical_size
        self.in_sampling_mode = False
        self.classification_version += 1

    def reset_for_restart(self) -> None:
        """Reset the *transient* monitoring state for a restarted application.

        Two restart flavours share this hook.  The paper's engine restarts
        programs in place (same PID from the scheduler's point of view), so
        the classification, its slowdown table and the critical size are
        kept — re-deriving them would waste a sampling sweep on an answer
        already known.  What must **not** survive is the short-term state: a
        freshly (re)started program goes through cold-start miss spikes
        again, so the warm-up countdown restarts and the rolling windows are
        cleared; stale pre-restart samples must never feed the phase-change
        heuristics of the new incarnation.  The partitioning service calls
        this when an application departs and later re-arrives on the same
        host (session churn), which is exactly such a restart.

        Cumulative counters (``samples_seen``, ``class_changes``,
        ``sampling_mode_entries``) and ``classification_version`` keep
        counting across restarts: they describe the application's lifetime,
        not one incarnation.
        """
        self.warmup_remaining = self.config.warmup_samples
        self._history.clear()
        self.in_sampling_mode = False

    # -- the heart: one monitoring sample ------------------------------------------

    def observe(self, metrics: DerivedMetrics, effective_ways: float) -> bool:
        """Ingest one normal-mode sample; returns True when a (re)classification
        through the sampling mode should be triggered."""
        self.samples_seen += 1
        if self.warmup_remaining > 0:
            # Warm-up samples are dropped entirely (cold-start spikes).
            self.warmup_remaining -= 1
            return False
        self._history.append((metrics.llcmpkc, metrics.stall_fraction))
        if self.in_sampling_mode:
            return False
        if self.app_class is AppClass.UNKNOWN:
            return True
        if len(self._history) < self.config.history_window:
            # Not enough history after the last decision to re-evaluate.
            return False
        thresholds = self.config.thresholds
        avg_mpkc = self.average_llcmpkc()
        avg_stall = self.average_stall_fraction()
        memory_intensive = (
            avg_mpkc > thresholds.streaming_llcmpkc
            or avg_stall > thresholds.stall_fraction_high
        )
        if self.app_class is AppClass.LIGHT:
            return memory_intensive
        if self.app_class is AppClass.STREAMING:
            return avg_mpkc < thresholds.low_llcmpkc
        if self.app_class is AppClass.SENSITIVE:
            critical = float(self.critical_size) if self.critical_size else 1.0
            if not memory_intensive and effective_ways < critical:
                return True
            if avg_mpkc > thresholds.streaming_llcmpkc and effective_ways > critical:
                return True
            return False
        return False

    def begin_sampling(self) -> None:
        """Mark the application as undergoing a sampling-mode sweep."""
        self.in_sampling_mode = True
        self.sampling_mode_entries += 1
        # The rolling window restarts so post-sampling decisions use fresh data.
        self._history.clear()

    # -- reporting ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        return {
            "class": self.app_class.value,
            "avg_llcmpkc": self.average_llcmpkc(),
            "avg_stall_fraction": self.average_stall_fraction(),
            "critical_size": float(self.critical_size or 0),
            "samples_seen": float(self.samples_seen),
            "class_changes": float(self.class_changes),
            "sampling_entries": float(self.sampling_mode_entries),
        }


# Class codes of the bank's int8 state column, in a fixed order so codes are
# stable across banks (UNKNOWN must be 0: rows start unknown).
_CLASS_ORDER = (AppClass.UNKNOWN, AppClass.LIGHT, AppClass.STREAMING, AppClass.SENSITIVE)
_CLASS_CODE = {app_class: code for code, app_class in enumerate(_CLASS_ORDER)}


class MonitorBank:
    """Struct-of-arrays monitor state for many rows, with a fused observe.

    One row per monitored application (and, when banks are stacked by the
    multi-run engine, per run).  All numeric state is stored in arrays along
    the leading row axis; :meth:`observe_batch` ingests one sample per
    selected row in a single vectorized pass and returns the trigger mask.
    Row views obtained from :meth:`monitor` expose the scalar
    :class:`AppMonitor` API on top of the shared arrays, so driver code (and
    tests) can keep addressing monitors individually.
    """

    def __init__(
        self, names: Sequence[str], config: Optional[MonitorConfig] = None
    ) -> None:
        if not names:
            raise SimulationError("a monitor bank needs at least one row")
        self.names = list(names)
        if len(set(self.names)) != len(self.names):
            raise SimulationError(f"duplicate monitor names: {self.names}")
        self.config = config or MonitorConfig()
        rows = len(self.names)
        window = self.config.history_window
        self._row_of = {name: row for row, name in enumerate(self.names)}
        self.warmup_remaining = np.full(rows, self.config.warmup_samples, dtype=np.int64)
        self.samples_seen = np.zeros(rows, dtype=np.int64)
        self.class_code = np.zeros(rows, dtype=np.int8)  # UNKNOWN
        self.in_sampling_mode = np.zeros(rows, dtype=bool)
        self.classification_version = np.zeros(rows, dtype=np.int64)
        self.class_changes = np.zeros(rows, dtype=np.int64)
        self.sampling_mode_entries = np.zeros(rows, dtype=np.int64)
        #: Critical size as evaluated by the sensitive heuristic (1.0 when the
        #: stored critical size is unset or zero, mirroring the scalar path).
        self.critical_eval = np.ones(rows)
        self.critical_size: List[Optional[int]] = [None] * rows
        self.slowdown_tables: List[Optional[List[float]]] = [None] * rows
        # The 2-column (LLCMPKC, stall) rolling windows of every row, stacked:
        # ring slot (start[r] + j) % window holds row r's j-th oldest sample
        # and the partial sum of the window starting there (see
        # RollingMeanRing for the exactness argument).
        self._win_values = np.zeros((rows, window, 2))
        self._win_partials = np.zeros((rows, window, 2))
        self._win_start = np.zeros(rows, dtype=np.int64)
        self._win_live = np.zeros(rows, dtype=np.int64)

    # -- row addressing ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def add_row(self, name: str) -> int:
        """Append one fresh (cold, UNKNOWN) row; returns its index.

        The partitioning service grows one shared bank as hosts register
        applications, so the bank must accept rows after construction.
        Growth re-allocates the arrays at their exact new size — rows are
        added a handful at a time and the arrays are tiny, and keeping
        ``rows == len(names)`` preserves the invariant every other bank
        consumer (the multi-run engine stacks whole banks) relies on.
        """
        if name in self._row_of:
            raise SimulationError(f"duplicate monitor row {name!r}")
        row = len(self.names)
        window = self.config.history_window
        self.names.append(name)
        self._row_of[name] = row
        self.warmup_remaining = np.append(
            self.warmup_remaining, np.int64(self.config.warmup_samples)
        )
        self.samples_seen = np.append(self.samples_seen, np.int64(0))
        self.class_code = np.append(self.class_code, np.int8(0))  # UNKNOWN
        self.in_sampling_mode = np.append(self.in_sampling_mode, False)
        self.classification_version = np.append(self.classification_version, np.int64(0))
        self.class_changes = np.append(self.class_changes, np.int64(0))
        self.sampling_mode_entries = np.append(self.sampling_mode_entries, np.int64(0))
        self.critical_eval = np.append(self.critical_eval, 1.0)
        self.critical_size.append(None)
        self.slowdown_tables.append(None)
        self._win_values = np.concatenate([self._win_values, np.zeros((1, window, 2))])
        self._win_partials = np.concatenate(
            [self._win_partials, np.zeros((1, window, 2))]
        )
        self._win_start = np.append(self._win_start, np.int64(0))
        self._win_live = np.append(self._win_live, np.int64(0))
        return row

    def row_index(self, name: str) -> int:
        try:
            return self._row_of[name]
        except KeyError:
            raise SimulationError(f"unknown monitor row {name!r}") from None

    def monitor(self, name: str) -> "BankMonitor":
        """An :class:`AppMonitor`-compatible view of one row."""
        return BankMonitor(self, self.row_index(name))

    # -- fused ingestion --------------------------------------------------------

    def observe_batch(
        self,
        llcmpkc: Sequence[float],
        stall_fraction: Sequence[float],
        effective_ways: Sequence[float],
        rows: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Ingest one sample for every selected row; returns the trigger mask.

        ``rows`` must not contain duplicates (each row ingests exactly one
        sample per call).  The returned boolean array is aligned with
        ``rows`` and reproduces :meth:`AppMonitor.observe` bit for bit on
        every row — pinned by the property tests.
        """
        if rows is None:
            rows = np.arange(len(self.names))
        else:
            rows = np.asarray(rows, dtype=np.int64)
        llc = np.asarray(llcmpkc, dtype=float)
        stl = np.asarray(stall_fraction, dtype=float)
        eff = np.asarray(effective_ways, dtype=float)
        if not (rows.shape == llc.shape == stl.shape == eff.shape):
            raise SimulationError(
                "observe_batch inputs must be 1-D and equally long, got "
                f"rows{rows.shape} llcmpkc{llc.shape} stall{stl.shape} "
                f"ways{eff.shape}"
            )
        self.samples_seen[rows] += 1
        trigger = np.zeros(rows.shape[0], dtype=bool)
        warm = self.warmup_remaining[rows] > 0
        if warm.any():
            # Warm-up samples are dropped entirely (cold-start spikes).
            self.warmup_remaining[rows[warm]] -= 1
            if warm.all():
                return trigger
            keep = ~warm
            rows, llc, stl, eff = rows[keep], llc[keep], stl[keep], eff[keep]
        else:
            keep = None

        means = self._append(rows, llc, stl)

        # Decision masks replicate the scalar branch ladder; every comparison
        # is the same float comparison the scalar path performs.
        thresholds = self.config.thresholds
        code = self.class_code[rows]
        sampling = self.in_sampling_mode[rows]
        enough = self.live_counts(rows) >= self.config.history_window
        avg_mpkc = means[:, 0]
        avg_stall = means[:, 1]
        memory_intensive = (avg_mpkc > thresholds.streaming_llcmpkc) | (
            avg_stall > thresholds.stall_fraction_high
        )
        decide = np.zeros(rows.shape[0], dtype=bool)
        decide[code == _CLASS_CODE[AppClass.UNKNOWN]] = True
        light = enough & (code == _CLASS_CODE[AppClass.LIGHT])
        decide[light] = memory_intensive[light]
        streaming = enough & (code == _CLASS_CODE[AppClass.STREAMING])
        decide[streaming] = (avg_mpkc < thresholds.low_llcmpkc)[streaming]
        sensitive = enough & (code == _CLASS_CODE[AppClass.SENSITIVE])
        if sensitive.any():
            critical = self.critical_eval[rows]
            wants = (~memory_intensive & (eff < critical)) | (
                (avg_mpkc > thresholds.streaming_llcmpkc) & (eff > critical)
            )
            decide[sensitive] = wants[sensitive]
        decide &= ~sampling
        if keep is None:
            return decide
        trigger[keep] = decide
        return trigger

    def observe_row(
        self, row: int, llcmpkc: float, stall_fraction: float, effective_ways: float
    ) -> bool:
        """Scalar single-row ingestion, bit-identical to a one-row
        :meth:`observe_batch`.

        Driver counter-sample callbacks ingest one row at a time, where the
        batch kernel's array plumbing (input coercion, mask allocation,
        fancy indexing) would cost far more than the actual arithmetic.
        Every float operation below — the ring partial additions, the
        ``+ 0.0`` seed normalisation, the mean division, the threshold
        comparisons — is the same IEEE-754 operation the batch path
        performs, in the same order; the property suite pins the
        equivalence against :meth:`observe_batch`.
        """
        self.samples_seen[row] += 1
        if self.warmup_remaining[row] > 0:
            self.warmup_remaining[row] -= 1
            return False
        window = self.config.history_window
        start = int(self._win_start[row])
        live = int(self._win_live[row])
        if live == window:
            start = (start + 1) % window
            self._win_start[row] = start
            live -= 1
        partials = self._win_partials[row]
        # The live slots are start..start+live-1 (mod window); each receives
        # one independent addition, so updating them one by one produces the
        # same bits as the batch kernel's masked add — without building the
        # mask (windows are tiny: the default history is 5 slots).
        for k in range(live):
            slot = (start + k) % window
            partials[slot, 0] += llcmpkc
            partials[slot, 1] += stall_fraction
        slot = (start + live) % window
        partials[slot, 0] = llcmpkc + 0.0
        partials[slot, 1] = stall_fraction + 0.0
        values = self._win_values[row]
        values[slot, 0] = llcmpkc
        values[slot, 1] = stall_fraction
        live += 1
        self._win_live[row] = live
        if window < RollingMeanRing._PAIRWISE_CUTOVER:
            avg_mpkc = float(partials[start, 0]) / live
            avg_stall = float(partials[start, 1]) / live
        else:
            avg_mpkc = short_mean(self.window(row, 0))
            avg_stall = short_mean(self.window(row, 1))
        thresholds = self.config.thresholds
        code = int(self.class_code[row])
        enough = live >= window
        memory_intensive = (avg_mpkc > thresholds.streaming_llcmpkc) or (
            avg_stall > thresholds.stall_fraction_high
        )
        if code == _CLASS_CODE[AppClass.UNKNOWN]:
            decide = True
        elif not enough:
            decide = False
        elif code == _CLASS_CODE[AppClass.LIGHT]:
            decide = memory_intensive
        elif code == _CLASS_CODE[AppClass.STREAMING]:
            decide = avg_mpkc < thresholds.low_llcmpkc
        elif code == _CLASS_CODE[AppClass.SENSITIVE]:
            critical = float(self.critical_eval[row])
            decide = ((not memory_intensive) and effective_ways < critical) or (
                (avg_mpkc > thresholds.streaming_llcmpkc)
                and effective_ways > critical
            )
        else:  # pragma: no cover - no further class codes exist
            decide = False
        if self.in_sampling_mode[row]:
            return False
        return bool(decide)

    def live_counts(self, rows: np.ndarray) -> np.ndarray:
        return self._win_live[rows]

    def _append(self, rows: np.ndarray, llc: np.ndarray, stl: np.ndarray) -> np.ndarray:
        """Ring-append one (llcmpkc, stall) sample per row; returns the new
        per-row column means (same division as the scalar mean reads)."""
        window = self.config.history_window
        full = self._win_live[rows] == window
        if full.any():
            # The evicted sample's window start dies with it.
            evict = rows[full]
            self._win_start[evict] = (self._win_start[evict] + 1) % window
            self._win_live[evict] -= 1
        start = self._win_start[rows]
        live = self._win_live[rows]
        sample = np.stack((llc, stl), axis=1)  # (k, 2)
        # One true addition per live partial (invalid slots receive + 0.0,
        # which leaves their unused contents numerically intact).
        valid = ((np.arange(window)[None, :] - start[:, None]) % window) < live[:, None]
        self._win_partials[rows] += np.where(valid[:, :, None], sample[:, None, :], 0.0)
        slot = (start + live) % window
        # Seed with sample + 0.0 (not sample) to mirror the reduction's
        # zero-initialised accumulator (normalises -0.0 to +0.0).
        self._win_partials[rows, slot] = sample + 0.0
        self._win_values[rows, slot] = sample
        self._win_live[rows] += 1
        live = self._win_live[rows]
        if window < RollingMeanRing._PAIRWISE_CUTOVER:
            return self._win_partials[rows, self._win_start[rows]] / live[:, None]
        return np.array(
            [
                [short_mean(self.window(int(row), column)) for column in (0, 1)]
                for row in rows
            ]
        )

    # -- scalar row operations --------------------------------------------------

    def window(self, row: int, column: int) -> List[float]:
        """Row ``row``'s live samples of ``column``, oldest first."""
        window = self.config.history_window
        order = (self._win_start[row] + np.arange(self._win_live[row])) % window
        return [float(v) for v in self._win_values[row, order, column]]

    def row_mean(self, row: int, column: int) -> float:
        live = int(self._win_live[row])
        if live == 0:
            return 0.0
        if self.config.history_window < RollingMeanRing._PAIRWISE_CUTOVER:
            return float(self._win_partials[row, self._win_start[row], column]) / live
        return short_mean(self.window(row, column))

    def begin_sampling(self, row: int) -> None:
        self.in_sampling_mode[row] = True
        self.sampling_mode_entries[row] += 1
        self._win_start[row] = 0
        self._win_live[row] = 0

    def set_classification(
        self,
        row: int,
        app_class: AppClass,
        slowdown_table: Optional[List[float]] = None,
        critical_size: Optional[int] = None,
    ) -> None:
        if (
            app_class is not AppClass.UNKNOWN
            and _CLASS_CODE[app_class] != self.class_code[row]
        ):
            self.class_changes[row] += 1
        self.class_code[row] = _CLASS_CODE[app_class]
        self.slowdown_tables[row] = (
            list(slowdown_table) if slowdown_table is not None else None
        )
        self.critical_size[row] = critical_size
        self.critical_eval[row] = float(critical_size) if critical_size else 1.0
        self.in_sampling_mode[row] = False
        self.classification_version[row] += 1

    def reset_for_restart(self, row: int) -> None:
        """Row-level :meth:`AppMonitor.reset_for_restart`: drop the warm-up
        countdown back to its initial value, clear the rolling window and
        leave classification state and lifetime counters untouched."""
        self.warmup_remaining[row] = self.config.warmup_samples
        self._win_start[row] = 0
        self._win_live[row] = 0
        self.in_sampling_mode[row] = False

    def snapshot(self, row: int) -> Dict[str, float]:
        return {
            "class": _CLASS_ORDER[self.class_code[row]].value,
            "avg_llcmpkc": self.row_mean(row, 0),
            "avg_stall_fraction": self.row_mean(row, 1),
            "critical_size": float(self.critical_size[row] or 0),
            "samples_seen": float(self.samples_seen[row]),
            "class_changes": float(self.class_changes[row]),
            "sampling_entries": float(self.sampling_mode_entries[row]),
        }

    # -- persistence --------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable image of every row's full state.

        Floats round-trip exactly through JSON (``repr`` emits the shortest
        string that parses back to the same double), so a restored bank
        continues producing bit-identical window means and trigger masks —
        the property the daemon snapshot/restore pin depends on.
        """
        thresholds = {
            f.name: getattr(self.config.thresholds, f.name)
            for f in dataclass_fields(self.config.thresholds)
        }
        return {
            "names": list(self.names),
            "config": {
                "warmup_samples": self.config.warmup_samples,
                "history_window": self.config.history_window,
                "thresholds": thresholds,
            },
            "warmup_remaining": [int(x) for x in self.warmup_remaining],
            "samples_seen": [int(x) for x in self.samples_seen],
            "class_code": [int(x) for x in self.class_code],
            "in_sampling_mode": [bool(x) for x in self.in_sampling_mode],
            "classification_version": [int(x) for x in self.classification_version],
            "class_changes": [int(x) for x in self.class_changes],
            "sampling_mode_entries": [int(x) for x in self.sampling_mode_entries],
            "critical_eval": [float(x) for x in self.critical_eval],
            "critical_size": list(self.critical_size),
            "slowdown_tables": [
                list(t) if t is not None else None for t in self.slowdown_tables
            ],
            "win_values": self._win_values.tolist(),
            "win_partials": self._win_partials.tolist(),
            "win_start": [int(x) for x in self._win_start],
            "win_live": [int(x) for x in self._win_live],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "MonitorBank":
        """Rebuild a bank from :meth:`state_dict` output (exact restore)."""
        try:
            cfg = state["config"]
            config = MonitorConfig(
                warmup_samples=int(cfg["warmup_samples"]),
                history_window=int(cfg["history_window"]),
                thresholds=ClassificationThresholds(**cfg["thresholds"]),
            )
            bank = cls(state["names"], config)
            rows, window = len(bank.names), config.history_window
            bank.warmup_remaining = np.array(state["warmup_remaining"], dtype=np.int64)
            bank.samples_seen = np.array(state["samples_seen"], dtype=np.int64)
            bank.class_code = np.array(state["class_code"], dtype=np.int8)
            bank.in_sampling_mode = np.array(state["in_sampling_mode"], dtype=bool)
            bank.classification_version = np.array(
                state["classification_version"], dtype=np.int64
            )
            bank.class_changes = np.array(state["class_changes"], dtype=np.int64)
            bank.sampling_mode_entries = np.array(
                state["sampling_mode_entries"], dtype=np.int64
            )
            bank.critical_eval = np.array(state["critical_eval"], dtype=float)
            bank.critical_size = [
                int(x) if x is not None else None for x in state["critical_size"]
            ]
            bank.slowdown_tables = [
                [float(v) for v in t] if t is not None else None
                for t in state["slowdown_tables"]
            ]
            bank._win_values = np.array(state["win_values"], dtype=float).reshape(
                rows, window, 2
            )
            bank._win_partials = np.array(state["win_partials"], dtype=float).reshape(
                rows, window, 2
            )
            bank._win_start = np.array(state["win_start"], dtype=np.int64)
            bank._win_live = np.array(state["win_live"], dtype=np.int64)
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed monitor bank state: {exc}") from exc
        for name, arr in (
            ("warmup_remaining", bank.warmup_remaining),
            ("win_start", bank._win_start),
            ("win_live", bank._win_live),
        ):
            if arr.shape[0] != rows:
                raise SimulationError(
                    f"monitor bank state {name} has {arr.shape[0]} rows, "
                    f"expected {rows}"
                )
        return bank


class BankMonitor:
    """One :class:`MonitorBank` row behind the :class:`AppMonitor` API.

    The incremental LFOC driver hands these out as ``driver.monitors[app]``;
    all state lives in the bank's arrays, so per-row reads/writes and the
    fused :meth:`MonitorBank.observe_batch` always agree.
    """

    __slots__ = ("bank", "row")

    def __init__(self, bank: MonitorBank, row: int) -> None:
        self.bank = bank
        self.row = row

    # -- identity / config ------------------------------------------------------

    @property
    def name(self) -> str:
        return self.bank.names[self.row]

    @property
    def config(self) -> MonitorConfig:
        return self.bank.config

    # -- mirrored scalar state --------------------------------------------------

    @property
    def app_class(self) -> AppClass:
        return _CLASS_ORDER[self.bank.class_code[self.row]]

    @property
    def warmup_remaining(self) -> int:
        return int(self.bank.warmup_remaining[self.row])

    @property
    def warmed_up(self) -> bool:
        return self.warmup_remaining == 0

    @property
    def in_sampling_mode(self) -> bool:
        return bool(self.bank.in_sampling_mode[self.row])

    @property
    def classification_version(self) -> int:
        return int(self.bank.classification_version[self.row])

    @property
    def samples_seen(self) -> int:
        return int(self.bank.samples_seen[self.row])

    @property
    def class_changes(self) -> int:
        return int(self.bank.class_changes[self.row])

    @property
    def sampling_mode_entries(self) -> int:
        return int(self.bank.sampling_mode_entries[self.row])

    @property
    def slowdown_table(self) -> Optional[List[float]]:
        return self.bank.slowdown_tables[self.row]

    @property
    def critical_size(self) -> Optional[int]:
        return self.bank.critical_size[self.row]

    # -- behaviour --------------------------------------------------------------

    def average_llcmpkc(self) -> float:
        return self.bank.row_mean(self.row, 0)

    def average_stall_fraction(self) -> float:
        return self.bank.row_mean(self.row, 1)

    def observe(self, metrics: DerivedMetrics, effective_ways: float) -> bool:
        return self.bank.observe_row(
            self.row, metrics.llcmpkc, metrics.stall_fraction, float(effective_ways)
        )

    def begin_sampling(self) -> None:
        self.bank.begin_sampling(self.row)

    def set_classification(
        self,
        app_class: AppClass,
        slowdown_table: Optional[List[float]] = None,
        critical_size: Optional[int] = None,
    ) -> None:
        self.bank.set_classification(
            self.row, app_class, slowdown_table=slowdown_table, critical_size=critical_size
        )

    def reset_for_restart(self) -> None:
        """See :meth:`AppMonitor.reset_for_restart` (classification is kept,
        warm-up and rolling windows restart)."""
        self.bank.reset_for_restart(self.row)

    def snapshot(self) -> Dict[str, float]:
        return self.bank.snapshot(self.row)
