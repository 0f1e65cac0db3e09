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

Each per-application counter is one list of Python floats.  An event costs
two passes over the applications: a search pass for the time to the next
event and an advance pass that moves every counter and finds the largest
run position and the smallest sample distance, which tell the completion
and sample checks whether to look further.  At 8 to 16 applications, plain
float arithmetic beats a chain of NumPy calls on rows that narrow.  The
per-application rates, miss rates, stall fractions and effective ways are
cached per ``(allocation, phase epochs)`` and come from the shared
:class:`~repro.simulator.estimator.EvaluationTables`, so an event only pays
for evaluation when its combination has never been seen.  The original
per-application dict loop, which re-runs the full contention estimator on
every rate change, lives on as the test oracle ``run_reference`` in
``tests/oracles.py``; the differential tests and the engine benchmark pin
this engine against it bit for bit.

The instruction budget defaults to a scaled-down value (the paper runs 150 G
instructions per application; simulating that faithfully is unnecessary since
every reported metric is a ratio).  The scale factor is recorded in the run
result and in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.apps.phases import PhasedProfile
from repro.core.types import WayAllocation
from repro.errors import SimulationError
from repro.hardware.cat import CatController
from repro.hardware.cmt import CmtMonitor
from repro.hardware.platform import PlatformSpec
from repro.hardware.pmc import window_metrics
from repro.runtime.results import AppRunStats, RepartitionEvent, RunResult, TracePoint
from repro.runtime.scheduler import PolicyDriver
from repro.simulator.estimator import (
    DEFAULT_MAX_ENTRIES,
    EvaluationTables,
    ProfileSnapshot,
    allocation_token,
    tables_signature,
)

__all__ = ["EngineConfig", "RuntimeEngine", "alone_completion_time"]

#: Safety margin (instructions) for treating a single-phase application as
#: phase-inert: its only boundary must sit at least this far beyond the run
#: budget so that neither the next-event search nor the boundary check could
#: ever observe it (completions reset the phase position first).  The margin
#: absorbs the worst-case overshoot of one clamped 1-nanosecond event.
_INERT_PHASE_MARGIN = 64.0

_INF = float("inf")


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
    #: LRU bound on each table of the shared evaluation tables: estimates,
    #: component trajectories, decompositions and engine vectors (default
    #: :data:`~repro.simulator.estimator.DEFAULT_MAX_ENTRIES`, ``None`` =
    #: unbounded).  Evicted entries are recomputed on demand, so results are
    #: unaffected.
    max_table_entries: Optional[int] = DEFAULT_MAX_ENTRIES

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
    """Execute one workload under one dynamic policy driver.

    A repartition programs the masks into the CAT model, then takes the
    rate, LLCMPKC, stall-fraction and effective-way lists off the shared
    tables' estimate, which carries all four (no curve is read here).
    """

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
        elif tables.params_signature() != tables_signature(platform):
            raise SimulationError(
                "shared evaluation tables were built for different "
                "platform or model parameters"
            )
        self.tables = tables
        self._snapshot = ProfileSnapshot(self.phased)
        # Per-run state, (re)built at the top of every run(): the phase
        # positions (run()'s instructions-in-run list) and, per
        # (allocation id, phase epochs), the (rate, llcmpkc, stall fraction,
        # effective ways) lists of the applications.
        self._phase_pos: Optional[List[float]] = None
        self._rates: Optional[Tuple[List[float], ...]] = None
        self._rate_lists: Dict[tuple, Tuple[List[float], ...]] = {}
        self._alloc_ids: Dict[tuple, int] = {}
        self._alloc_id = -1
        self._phase_epoch_watch: List[Tuple[int, float, List[float]]] = []
        # Per-application phase-token matrix: the snapshot's profiles are
        # interned into the shared tables once at the top of run();
        # afterwards a phase epoch is described purely by token and no
        # profile objects are re-registered.
        self._phase_tokens: List[Tuple[int, ...]] = []
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
        apps = range(n)
        cps = platform.cycles_per_second
        ipr = config.instructions_per_run
        completion_edge = config.instructions_per_run - 1.0
        record_traces = config.record_traces

        # Per-application counters, one list of floats each.  The phase
        # position is not tracked separately: it advances by the same
        # increments as instructions_in_run and both reset to zero at a
        # completion, so phase_position == instructions_in_run is an
        # invariant (the reference loop in tests/oracles.py keeps the two
        # fields).
        iir = [0.0] * n  # instructions_in_run == phase_position
        to_sample = [float(driver.sample_window(name)) for name in names]
        win_instr = [0.0] * n
        win_cycles = [0.0] * n
        win_misses = [0.0] * n
        win_stalls = [0.0] * n
        self._phase_pos = iir
        self._rate_lists = {}
        self._alloc_ids = {}
        self._alloc_id = -1
        # Applications with real phase sequences (epoch lookup in recompute).
        self._phase_epoch_watch = [
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
            rate, mpkc, stall, _ = self._rates

            # ---- find the next event (search pass) ---------------------------------
            # min(sample/rate, remaining/rate) == min(sample, remaining)/rate
            # (positive rates preserve the ordering and the winning quotient
            # is computed by the identical division).
            dt = next_interval - now
            for i in apps:
                remaining = ipr - iir[i]
                window = to_sample[i]
                until = (window if window < remaining else remaining) / rate[i]
                if until < dt:
                    dt = until
            for i, cycle, segments in phase_watch:
                position = iir[i] % cycle
                for segment in segments:
                    if position < segment:
                        until = segment - position
                        break
                    position -= segment
                else:  # pragma: no cover - numeric edge
                    until = segments[0]
                dt = min(dt, until / rate[i])
            dt = max(dt, 1e-9)

            # ---- advance every application by dt (advance pass) --------------------
            # Each update is the reference loop's scalar expression
            # (to_sample - rate*dt has the bits of to_sample + (-rate)*dt).
            # The pass also finds the largest instructions-in-run and the
            # smallest sample distance, which is all the completion and
            # sample checks below need to know whether to look further.
            cycles = dt * cps
            top = -_INF
            low = _INF
            for i in apps:
                instructions = rate[i] * dt
                position = iir[i] + instructions
                iir[i] = position
                if position > top:
                    top = position
                window = to_sample[i] - instructions
                to_sample[i] = window
                if window < low:
                    low = window
                win_instr[i] += instructions
                win_cycles[i] += cycles
                win_misses[i] += mpkc[i] * cycles / 1000.0
                win_stalls[i] += stall[i] * cycles
            now += dt

            rates_dirty = False

            # ---- phase boundaries ------------------------------------------------------
            for i, cycle, segments in phase_watch:
                position = iir[i] % cycle
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
            if top >= completion_edge:
                for i in apps:
                    if iir[i] < completion_edge:
                        continue
                    name = names[i]
                    stats[name].completion_times.append(now - last_completion_start[i])
                    stats[name].instructions_retired += iir[i]
                    last_completion_start[i] = now
                    iir[i] = 0.0  # restart from scratch (run and phase position)
                    ncomp[i] += 1
                    if ncomp[i] == config.min_completions:
                        pending -= 1
                    rates_dirty = True

            # ---- counter samples ------------------------------------------------------------
            if low <= 1.0:
                # Monitoring snapshot hoisted to once per event batch.
                state_snapshot: Dict[str, Dict[str, float]] = (
                    driver.describe_state() if record_traces else {}
                )
                for i in apps:
                    if to_sample[i] > 1.0:
                        continue
                    name = names[i]
                    metrics = window_metrics(
                        win_instr[i], win_cycles[i], win_misses[i], win_stalls[i]
                    )
                    stats[name].samples_taken += 1
                    win_instr[i] = 0.0
                    win_cycles[i] = 0.0
                    win_misses[i] = 0.0
                    win_stalls[i] = 0.0
                    # Read through self._rates: a repartition earlier in this
                    # batch re-binds it, and later samples see the new
                    # effective ways (as the reference loop does).
                    if record_traces:
                        snapshot = state_snapshot.get(name, {})
                        traces[name].append(
                            TracePoint(
                                time_s=now,
                                instructions=stats[name].instructions_retired + iir[i],
                                ipc=metrics.ipc,
                                llcmpkc=metrics.llcmpkc,
                                stall_fraction=metrics.stall_fraction,
                                effective_ways=self._rates[3][i],
                                app_class=str(snapshot.get("class", "n/a")),
                            )
                        )
                    new_allocation = driver.on_sample(
                        name, metrics, self._rates[3][i], now
                    )
                    to_sample[i] = float(driver.sample_window(name))
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
        eff = self._rates[3]
        for i, name in enumerate(names):
            self.cmt.update_occupancy(name, eff[i])
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
        """Refresh every application's rate, miss, stall and occupancy lists."""
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
            position = pos[i] % cycle
            index = len(segments) - 1
            for j, segment in enumerate(segments):
                if position < segment:
                    index = j
                    break
                position -= segment
            epochs[i] = index
        epoch_key = tuple(epochs)
        key = (self._alloc_id, epoch_key)
        rates = self._rate_lists.get(key)
        if rates is None:
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
            cps = self.platform.cycles_per_second
            rate: List[float] = []
            for name in self.apps:
                app_rate = ipcs[name] * cps
                if not app_rate > 0:
                    raise SimulationError(f"application {name!r} has a zero rate")
                rate.append(app_rate)
            rates = (
                rate,
                [estimate.llcmpkc[name] for name in self.apps],
                [estimate.stall_fractions[name] for name in self.apps],
                [estimate.effective_ways[name] for name in self.apps],
            )
            self._rate_lists[key] = rates
        self._rates = rates
