"""Event-driven runtime engine: executes a workload under a dynamic policy.

This is the reproduction's substitute for the paper's real-machine runs
(Section 5.2).  The engine advances simulated time from event to event:

* **counter samples** — each application is sampled every 100 M retired
  instructions during normal operation and every 10 M while it is being swept
  by the sampling mode (the windows come from the policy driver);
* **partitioning intervals** — the policy driver is invoked every 500 ms, as
  in the paper's evaluation of both Dunn and LFOC;
* **phase boundaries** — phased applications switch behaviour at instruction
  counts defined by their :class:`~repro.apps.phases.PhasedProfile`;
* **completions / restarts** — every application runs a fixed instruction
  budget and is restarted immediately, and the run ends when every application
  has completed at least ``min_completions`` times (the paper restarts until
  the longest application finishes three times).

Between two consecutive events every application's IPC is constant, so
instruction progress is linear and no finer time step is needed.  The IPCs
come from the contention estimator applied to the allocation currently
programmed in the (simulated) CAT hardware and to each application's current
phase profile; whenever the allocation or any phase changes the rates are
recomputed.

Per-application state is kept as NumPy struct-of-arrays vectors, events
are searched and advanced with array arithmetic, and rate recomputations
are answered from shared
:class:`~repro.simulator.estimator.EvaluationTables` — an event only pays for
evaluation when its ``(allocation, phase epochs)`` combination has never been
seen.  The original per-application dict loop, which re-runs the full
contention estimator on every rate change, lives on as the test oracle
``run_reference`` in ``tests/oracles.py``; the differential tests and the
engine benchmark pin this engine against it bit for bit.

The instruction budget defaults to a scaled-down value (the paper runs 150 G
instructions per application; simulating that faithfully is unnecessary since
every reported metric is a ratio).  The scale factor is recorded in the run
result and in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.apps.phases import PhasedProfile
from repro.core.types import WayAllocation
from repro.errors import SimulationError
from repro.hardware.cat import CatController
from repro.hardware.cmt import CmtMonitor
from repro.hardware.platform import PlatformSpec
from repro.hardware.pmc import CounterDelta, derive_metrics
from repro.runtime.results import AppRunStats, RepartitionEvent, RunResult, TracePoint
from repro.runtime.scheduler import PolicyDriver
from repro.simulator.estimator import (
    EvaluationTables,
    ProfileSnapshot,
    allocation_token,
)

__all__ = ["EngineConfig", "RuntimeEngine", "alone_completion_time"]

#: Safety margin (instructions) for treating a single-phase application as
#: phase-inert: its only boundary must sit at least this far beyond the run
#: budget so that neither the next-event search nor the boundary check could
#: ever observe it (completions reset the phase position first).  The margin
#: absorbs the worst-case overshoot of one clamped 1-nanosecond event.
_INERT_PHASE_MARGIN = 64.0


@dataclass(frozen=True)
class EngineConfig:
    """Execution parameters of the runtime engine."""

    #: Instructions each application retires per completion.  The paper uses
    #: 150e9; the default here is 150e9 / `instruction_scale`.
    instructions_per_run: float = 2.0e9
    #: Number of completions every application must reach before the run ends.
    min_completions: int = 3
    #: Partitioning interval in seconds (500 ms in the paper).
    partition_interval_s: float = 0.5
    #: Record per-application traces (LLCMPKC over time etc.).
    record_traces: bool = True
    #: Safety cap on simulated time (seconds) to guarantee termination.
    max_simulated_seconds: float = 600.0
    #: Run batching: ``"incremental"`` runs every engine on its own;
    #: ``"multirun"`` lets ``run_study`` batch compatible runs through
    #: :class:`~repro.runtime.multirun.MultiRunEngine` (a single engine run
    #: under ``"multirun"`` is the same one-run loop).  Both produce
    #: bit-identical results.
    backend: str = "incremental"
    #: LRU bound on the shared evaluation tables' estimate cache (``None`` =
    #: unbounded).  Evicted entries are recomputed on demand, so results are
    #: unaffected.
    max_table_entries: Optional[int] = None
    #: Warm-start file for the shared evaluation tables (``None`` = start
    #: cold).  When set, every worker process seeds its tables from this
    #: :meth:`~repro.simulator.estimator.EvaluationTables.load` snapshot if
    #: the file exists; cached values are pure functions of their keys, so
    #: warm starts change wall clock only, never results.
    tables_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.instructions_per_run <= 0:
            raise SimulationError("instructions_per_run must be positive")
        if self.min_completions < 1:
            raise SimulationError("min_completions must be >= 1")
        if self.partition_interval_s <= 0:
            raise SimulationError("partition_interval_s must be positive")
        if self.max_simulated_seconds <= 0:
            raise SimulationError("max_simulated_seconds must be positive")
        if self.backend == "reference":
            raise SimulationError(
                "the 'reference' engine backend was removed; the reference "
                "loop is the test oracle run_reference in tests/oracles.py"
            )
        if self.backend not in ("incremental", "multirun"):
            raise SimulationError(f"unknown engine backend {self.backend!r}")
        if self.max_table_entries is not None and self.max_table_entries < 1:
            raise SimulationError(
                "max_table_entries must be >= 1 (or None for unbounded)"
            )

    @property
    def instruction_scale(self) -> float:
        """How much smaller the budget is than the paper's 150 G instructions."""
        return 150e9 / self.instructions_per_run


def alone_completion_time(
    profile: PhasedProfile, instructions: float, platform: PlatformSpec
) -> float:
    """Completion time (seconds) of one run of ``instructions`` executed alone.

    The application starts at the beginning of its phase sequence (benchmarks
    are restarted from scratch) and enjoys the whole LLC, so each phase runs at
    its full-cache IPC.
    """
    if instructions <= 0:
        raise SimulationError("instructions must be positive")
    remaining = instructions
    cycles = 0.0
    index = 0
    n = profile.n_phases
    while remaining > 1e-6:
        segment = profile.segments[index % n]
        chunk = min(remaining, segment.instructions)
        cycles += chunk / segment.profile.ipc_alone
        remaining -= chunk
        index += 1
    return platform.cycles_to_seconds(cycles)


class RuntimeEngine:
    """Execute one workload under one dynamic policy driver."""

    def __init__(
        self,
        platform: PlatformSpec,
        phased_profiles: Mapping[str, PhasedProfile],
        driver: PolicyDriver,
        config: Optional[EngineConfig] = None,
        *,
        tables: Optional[EvaluationTables] = None,
    ) -> None:
        if not phased_profiles:
            raise SimulationError("the engine needs at least one application")
        self.platform = platform
        self.driver = driver
        self.config = config or EngineConfig()
        self.apps = list(phased_profiles)
        self.phased = dict(phased_profiles)
        self.cat = CatController(platform)
        self.cmt = CmtMonitor(platform)
        self._allocation: Optional[WayAllocation] = None
        self._alloc_token: Optional[tuple] = None
        if tables is None:
            tables = EvaluationTables(platform, max_entries=self.config.max_table_entries)
        elif tables.params_signature() != EvaluationTables(platform).params_signature():
            raise SimulationError(
                "shared evaluation tables were built for different "
                "platform or model parameters"
            )
        self.tables = tables
        self._snapshot = ProfileSnapshot(self.phased)
        # Struct-of-arrays state; inert placeholders here, (re)built at the
        # top of every run().
        self._ipc: Optional[np.ndarray] = None
        self._llcmpkc: Optional[np.ndarray] = None
        self._stall: Optional[np.ndarray] = None
        self._eff: Optional[np.ndarray] = None
        self._rate: Optional[np.ndarray] = None
        self._advance: Optional[np.ndarray] = None
        self._phase_pos: Optional[np.ndarray] = None
        self._rate_vectors: Dict[tuple, tuple] = {}
        self._alloc_ids: Dict[tuple, int] = {}
        self._alloc_id = -1
        self._phase_epoch_watch: List[Tuple[int, float, List[float]]] = []
        # Per-application phase-token matrix: the snapshot's profiles are
        # interned into the shared tables once at the top of run();
        # afterwards a phase epoch is described purely by token and no
        # profile objects are re-registered.
        self._phase_tokens: List[Tuple[int, ...]] = []
        self._phase_views: List[tuple] = []
        self._epoch_token_maps: Dict[tuple, Dict[str, int]] = {}

    # -- shared pieces ---------------------------------------------------------------

    def _initial_stats(self) -> Dict[str, AppRunStats]:
        config = self.config
        return {
            name: AppRunStats(
                name=name,
                alone_time=alone_completion_time(
                    self.phased[name], config.instructions_per_run, self.platform
                ),
            )
            for name in self.apps
        }

    def _finalize(
        self,
        workload_name: str,
        now: float,
        stats: Dict[str, AppRunStats],
        traces: Dict[str, List[TracePoint]],
        repartitions: List[RepartitionEvent],
    ) -> RunResult:
        for name, monitor_state in self.driver.describe_state().items():
            if name in stats:
                stats[name].sampling_mode_entries = int(
                    monitor_state.get("sampling_entries", 0)
                )
                stats[name].class_changes = int(monitor_state.get("class_changes", 0))
        return RunResult(
            policy=self.driver.name,
            workload=workload_name,
            duration_s=now,
            app_stats=stats,
            traces=traces if self.config.record_traces else {},
            repartitions=repartitions,
            final_allocation=self._allocation,
        )

    # -- main entry point ------------------------------------------------------------

    def run(self, workload_name: str = "workload") -> RunResult:
        """Run the workload to completion and return the collected results."""
        config = self.config
        platform = self.platform
        driver = self.driver
        stats = self._initial_stats()
        traces: Dict[str, List[TracePoint]] = {name: [] for name in self.apps}
        repartitions: List[RepartitionEvent] = []

        names = self.apps
        n = len(names)
        cps = platform.cycles_per_second
        ipr = config.instructions_per_run
        completion_edge = config.instructions_per_run - 1.0

        # Struct-of-arrays state: one (6, n) matrix whose rows are the
        # per-application counters, advanced with a single fused add per
        # event (the per-row addends share the row layout, see _recompute).
        # The phase position is not tracked separately: it advances by the
        # same increments as instructions_in_run and both reset to zero at a
        # completion, so phase_position == instructions_in_run is an invariant
        # (the reference loop in tests/oracles.py keeps the two fields).
        state = np.zeros((6, n))
        iir = state[0]  # instructions_in_run == phase_position
        to_sample = state[1]
        to_sample[:] = [float(driver.sample_window(name)) for name in names]
        win_instr = state[2]
        win_cycles = state[3]
        win_misses = state[4]
        win_stalls = state[5]
        scratch = np.zeros(n)  # event-search scratch buffer
        addend = np.empty((6, n))
        self._ipc = np.ones(n)
        self._llcmpkc = np.zeros(n)
        self._stall = np.zeros(n)
        self._eff = np.zeros(n)
        self._rate = np.full(n, cps)
        self._advance = np.zeros((6, n))
        self._phase_pos = iir
        self._rate_vectors = {}
        self._alloc_ids: Dict[tuple, int] = {}
        self._alloc_id = -1
        # Applications with real phase sequences (epoch lookup in recompute).
        self._phase_epoch_watch: List[Tuple[int, float, List[float]]] = [
            (
                i,
                self.phased[name].cycle_instructions,
                [segment.instructions for segment in self.phased[name].segments],
            )
            for i, name in enumerate(names)
            if self.phased[name].n_phases > 1
        ]
        # Intern every (application, phase) profile once; rate recomputations
        # then work entirely in token space (see _recompute_rates).
        tables = self.tables
        token_map = self._snapshot.tokenize(tables)
        self._phase_tokens = [token_map[name] for name in names]
        self._phase_views = [
            tuple(tables.view_for_token(token) for token in tokens)
            for tokens in self._phase_tokens
        ]
        self._epoch_token_maps = {}

        # Phase-epoch bookkeeping: a single-phase application whose only
        # boundary lies safely beyond the run budget can never trigger a phase
        # event (its phase position equals its instructions-in-run, which the
        # completion check resets first), so the exact per-event boundary walk
        # is restricted to the applications where it can matter.  The walk
        # itself is inlined below with the cycle length and segment sizes
        # precomputed — same arithmetic as
        # :meth:`PhasedProfile.instructions_until_phase_change`.
        phase_watch: List[Tuple[int, float, List[float]]] = []
        for i, name in enumerate(names):
            phased = self.phased[name]
            inert = (
                phased.n_phases == 1
                and phased.segments[0].instructions >= ipr + _INERT_PHASE_MARGIN
            )
            if not inert:
                phase_watch.append(
                    (
                        i,
                        phased.cycle_instructions,
                        [segment.instructions for segment in phased.segments],
                    )
                )

        allocation = driver.on_start(names, platform)
        self._program(allocation, 0.0, "start", repartitions)
        ncomp = [0] * n  # completions per app
        pending = n  # apps still below min_completions

        now = 0.0
        next_interval = config.partition_interval_s
        last_completion_start = [0.0] * n

        while pending:
            if now > config.max_simulated_seconds:
                raise SimulationError(
                    f"simulation exceeded the {config.max_simulated_seconds}s safety cap "
                    f"(policy {driver.name!r}, workload {workload_name!r})"
                )
            # ---- find the next event -------------------------------------------------
            # rate = ipc * cycles_per_second, computed (and zero-checked) once
            # per rate vector in _recompute_rates.
            rate = self._rate
            # min(sample/rate, remaining/rate) == min(sample, remaining)/rate
            # element-wise (positive rates preserve the ordering and the
            # winning quotient is computed by the identical division).
            np.subtract(ipr, iir, out=scratch)
            np.minimum(scratch, to_sample, out=scratch)
            np.divide(scratch, rate, out=scratch)
            dt = min(next_interval - now, float(scratch.min()))
            for i, cycle, segments in phase_watch:
                position = float(iir[i]) % cycle
                for segment in segments:
                    if position < segment:
                        until = segment - position
                        break
                    position -= segment
                else:  # pragma: no cover - numeric edge
                    until = segments[0]
                dt = min(dt, until / rate[i])
            dt = max(float(dt), 1e-9)

            # ---- advance every application by dt -------------------------------------
            # One fused update: rows 0-3 of the template scale with dt
            # (instructions / cycles), rows 4-5 with cycles (misses / stalls);
            # each element reproduces the reference loop's scalar expression.
            cycles = dt * cps
            template = self._advance
            np.multiply(template[:4], dt, out=addend[:4])
            np.multiply(template[4:], cycles, out=addend[4:])
            addend[4] /= 1000.0
            state += addend
            now += dt

            rates_dirty = False

            # ---- phase boundaries ------------------------------------------------------
            for i, cycle, segments in phase_watch:
                position = float(iir[i]) % cycle
                for segment in segments:
                    if position < segment:
                        if segment - position <= 1.0:
                            rates_dirty = True
                        break
                    position -= segment
                else:  # pragma: no cover - numeric edge
                    if segments[0] <= 1.0:
                        rates_dirty = True

            # ---- completions / restarts --------------------------------------------------
            if iir.max() >= completion_edge:
                for i in np.nonzero(iir >= completion_edge)[0]:
                    name = names[i]
                    stats[name].completion_times.append(now - last_completion_start[i])
                    stats[name].instructions_retired += float(iir[i])
                    last_completion_start[i] = now
                    iir[i] = 0.0  # restart from scratch (run and phase position)
                    ncomp[i] += 1
                    if ncomp[i] == config.min_completions:
                        pending -= 1
                    rates_dirty = True

            # ---- counter samples ------------------------------------------------------------
            if to_sample.min() <= 1.0:
                sampled = np.nonzero(to_sample <= 1.0)[0]
                # Monitoring snapshot hoisted to once per event batch.
                state_snapshot: Dict[str, Dict[str, float]] = (
                    driver.describe_state() if config.record_traces else {}
                )
                for i in sampled:
                    name = names[i]
                    delta = CounterDelta(
                        instructions=float(win_instr[i]),
                        cycles=float(win_cycles[i]),
                        llc_misses=float(win_misses[i]),
                        stalls_l2_miss=float(win_stalls[i]),
                    )
                    metrics = derive_metrics(delta)
                    stats[name].samples_taken += 1
                    win_instr[i] = 0.0
                    win_cycles[i] = 0.0
                    win_misses[i] = 0.0
                    win_stalls[i] = 0.0
                    if config.record_traces:
                        snapshot = state_snapshot.get(name, {})
                        traces[name].append(
                            TracePoint(
                                time_s=now,
                                instructions=stats[name].instructions_retired
                                + float(iir[i]),
                                ipc=metrics.ipc,
                                llcmpkc=metrics.llcmpkc,
                                stall_fraction=metrics.stall_fraction,
                                effective_ways=float(self._eff[i]),
                                app_class=str(snapshot.get("class", "n/a")),
                            )
                        )
                    new_allocation = driver.on_sample(
                        name, metrics, float(self._eff[i]), now
                    )
                    to_sample[i] = driver.sample_window(name)
                    if new_allocation is not None:
                        self._program(new_allocation, now, f"sample:{name}", repartitions)
                        rates_dirty = True

            # ---- partitioning interval ----------------------------------------------------------
            if now >= next_interval - 1e-12:
                next_interval += config.partition_interval_s
                new_allocation = driver.on_interval(now)
                if new_allocation is not None:
                    self._program(new_allocation, now, "interval", repartitions)
                    rates_dirty = True

            if rates_dirty:
                self._recompute_rates()

        # The simulated CMT occupancy feed is write-only during a run (nothing
        # reads it back until the run is over), so the readings are pushed
        # once at the end instead of on every rate recomputation.
        for i, name in enumerate(names):
            self.cmt.update_occupancy(name, float(self._eff[i]))
        return self._finalize(workload_name, now, stats, traces, repartitions)

    # -- internals ------------------------------------------------------------------------------------

    def _program(
        self,
        allocation: WayAllocation,
        now: float,
        reason: str,
        repartitions: List[RepartitionEvent],
    ) -> None:
        """Program a new allocation into the simulated CAT hardware."""
        missing = [a for a in self.apps if a not in allocation.masks]
        if missing:
            raise SimulationError(
                f"policy {self.driver.name!r} left applications unallocated: {missing}"
            )
        self.cat.apply_allocation(allocation.masks)
        self._allocation = allocation
        self._alloc_token = allocation_token(allocation)
        self._alloc_id = self._alloc_ids.setdefault(
            self._alloc_token, len(self._alloc_ids)
        )
        repartitions.append(
            RepartitionEvent(time_s=now, reason=reason, masks=dict(allocation.masks))
        )
        self._recompute_rates()

    def _recompute_rates(self) -> None:
        """Refresh every application's IPC/miss/stall rates from the tables."""
        if self._allocation is None:
            raise SimulationError("no allocation programmed")
        tables = self.tables
        pos = self._phase_pos  # phase position == instructions_in_run
        if pos is None:
            raise SimulationError("the engine computes rates only inside run()")
        # Phase epochs: which phase every application currently executes
        # (inlined replica of PhasedProfile.phase_index_at; single-phase
        # applications are pinned to epoch 0).
        epochs: List[int] = [0] * len(self.apps)
        for i, cycle, segments in self._phase_epoch_watch:
            position = float(pos[i]) % cycle
            index = len(segments) - 1
            for j, segment in enumerate(segments):
                if position < segment:
                    index = j
                    break
                position -= segment
            epochs[i] = index
        epoch_key = tuple(epochs)
        key = (self._alloc_id, epoch_key)
        vectors = self._rate_vectors.get(key)
        if vectors is None:
            # Token-space evaluation: only the tokens of the applications
            # whose phase changed differ from the previous epoch's map, and
            # no profile objects are re-registered for the others (the
            # per-app dirty-estimate delta; the occupancy layer then
            # re-solves only the mask-sharing components whose member
            # tokens changed).
            token_map = self._epoch_token_maps.get(epoch_key)
            if token_map is None:
                token_map = {
                    name: self._phase_tokens[i][epochs[i]]
                    for i, name in enumerate(self.apps)
                }
                self._epoch_token_maps[epoch_key] = token_map
            estimate = tables.evaluate_tokens(
                self._allocation, token_map, alloc_token=self._alloc_token
            )
            ipcs = estimate.ipcs
            effective = estimate.effective_ways
            ipc_vec = np.array([ipcs[name] for name in self.apps])
            eff_vec = np.array([effective[name] for name in self.apps])
            mpkc = []
            stall = []
            for i, name in enumerate(self.apps):
                view = self._phase_views[i][epochs[i]]
                eval_ways = max(effective[name], 0.25)
                mpkc.append(view.llcmpkc_at(eval_ways))
                stall.append(view.stall_fraction_at(eval_ways, self.platform))
            rate_vec = ipc_vec * self.platform.cycles_per_second
            if not rate_vec.min() > 0:
                bad = self.apps[int(np.argmin(rate_vec))]
                raise SimulationError(f"application {bad!r} has a zero rate")
            mpkc_vec = np.array(mpkc)
            stall_vec = np.array(stall)
            # Advance-template rows matching the (6, n) state matrix:
            # iir += rate*dt, to_sample -= rate*dt (added as (-rate)*dt, an
            # exact negation), win_instr += rate*dt, win_cycles += cps*dt
            # (== dt*cps), win_misses += (llcmpkc*cycles)/1000 and
            # win_stalls += stall*cycles after the cycles scaling in the loop.
            advance = np.empty((6, len(self.apps)))
            advance[0] = rate_vec
            np.negative(rate_vec, out=advance[1])
            advance[2] = rate_vec
            advance[3] = self.platform.cycles_per_second
            advance[4] = mpkc_vec
            advance[5] = stall_vec
            vectors = (ipc_vec, mpkc_vec, stall_vec, eff_vec, rate_vec, advance)
            self._rate_vectors[key] = vectors
        (
            self._ipc,
            self._llcmpkc,
            self._stall,
            self._eff,
            self._rate,
            self._advance,
        ) = vectors
