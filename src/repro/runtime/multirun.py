"""Multi-run struct-of-arrays engine: advance many runs in lockstep rounds.

A dynamic study executes many *independent* engine runs that share a shape —
same platform, same engine configuration — and differ only in workload mix
and policy driver.  The single-run loop
(:meth:`~repro.runtime.engine.RuntimeEngine.run`) keeps one list of floats
per counter and advances it with scalar arithmetic; this module lays each
run's six counters out as a ``(6, n)`` matrix, stacks ``R`` runs along a
leading run axis into ``(R, 6, n)`` and fuses the hot per-event work — the
next-event search and the state advance — into single NumPy expressions over
the whole stack, amortising interpreter and ufunc-dispatch overhead across
runs.  Each element goes through the single-run loop's scalar expression.

Why this is *bit-identical* to running each member serially: a member's time
step depends only on its own state (its rate vector, its sample/phase/
completion distances, its own interval clock), so each member experiences
exactly the same ``(dt, event)`` sequence it would alone.  The stacked
arithmetic is elementwise (or an exact per-row ``min`` reduction), and
elementwise IEEE-754 operations on a stacked array produce the same bits as
the same operations on each row separately.  Everything with control flow —
phase-boundary walks, completion bookkeeping, counter samples, driver
callbacks, allocation programming — stays per-member Python, byte-for-byte
the single-run loop's logic.  The differential-oracle grid in
``tests/oracles.py`` pins this equivalence against the serial engine and the
reference loop ``run_reference`` kept there.

Members share one :class:`~repro.simulator.estimator.EvaluationTables`
instance, so an ``(allocation, phase epochs)`` combination evaluated by any
member is a cache hit for every other member — the cached values are pure
functions of their keys, so the sharing cannot perturb results, only wall
clock.  Runs finish at different simulated times; finished members are
compacted out of the stack so the fused expressions always operate on live
rows only.

:func:`group_run_specs` lowers a flat :class:`~repro.runtime.executors.base.
RunSpec` batch onto stack-compatible :class:`RunGroup`\\ s (grouped by
per-spec config; differing application counts ride in one stack via padded
columns) plus the index lists needed to scatter the grouped results back
into flat submission order, which is how ``run_study`` keeps scenario IDs
and JSONL row order unchanged under ``backend = "multirun"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.apps.phases import PhasedProfile
from repro.core.types import WayAllocation
from repro.errors import SimulationError
from repro.hardware.cat import CatController
from repro.hardware.cmt import CmtMonitor
from repro.hardware.platform import PlatformSpec
from repro.hardware.pmc import window_metrics
from repro.runtime.engine import (
    EngineConfig,
    _INERT_PHASE_MARGIN,
    alone_completion_time,
)
from repro.runtime.results import AppRunStats, RepartitionEvent, RunResult, TracePoint
from repro.runtime.scheduler import PolicyDriver
from repro.simulator.estimator import (
    EvaluationTables,
    ProfileSnapshot,
    allocation_token,
    tables_signature,
)

__all__ = ["MultiRunEngine", "RunGroup", "group_run_specs"]

_INF = float("inf")


@dataclass(frozen=True)
class RunGroup:
    """A batch of stack-compatible run specs executed by one engine.

    ``members`` are :class:`~repro.runtime.executors.base.RunSpec`-shaped
    objects (workload + driver factory + label) that all share ``config``;
    narrower workloads ride in the stack padded up to the widest member.
    A group travels through an executor as *one* task whose result is the
    list of the members' :class:`~repro.runtime.results.RunResult`\\ s in
    member order.
    """

    members: Tuple[Any, ...]
    config: Optional[EngineConfig] = None

    def __post_init__(self) -> None:
        if not self.members:
            raise SimulationError("a run group needs at least one member")


def group_run_specs(
    specs: Sequence[Any], *, jobs: int = 1
) -> Tuple[List[RunGroup], List[List[int]]]:
    """Partition a flat spec batch into stack-compatible run groups.

    Specs group by their per-spec config — the one property a stack cannot
    mix (padding absorbs application-count differences).  Merging every
    compatible spec into one stack amortises the per-round fused kernels
    over the largest possible run axis, so with ``jobs=1`` each config gets
    a single group; ``jobs>1`` splits each config's specs into up to that
    many balanced contiguous chunks so a parallel executor still has
    independent tasks to schedule.  Grouping only shapes wall clock — the
    engine is bit-identical to serial either way.

    Returns the groups (keyed by first appearance, members in submission
    order) and, parallel to them, the flat indices each group's results
    scatter back to, so the caller can reassemble results in exact
    submission order.
    """
    buckets: Dict[Any, List[int]] = {}
    order: List[Any] = []
    for index, spec in enumerate(specs):
        key = spec.config
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(index)
    groups: List[RunGroup] = []
    scatter: List[List[int]] = []
    for key in order:
        indices = buckets[key]
        chunks = max(1, min(jobs, len(indices)))
        for c in range(chunks):
            part = indices[
                c * len(indices) // chunks : (c + 1) * len(indices) // chunks
            ]
            if not part:
                continue
            groups.append(
                RunGroup(members=tuple(specs[i] for i in part), config=key)
            )
            scatter.append(part)
    return groups, scatter


class _MemberRun:
    """Bookkeeping for one member run of a multi-run group.

    Carries exactly the per-run state the single-run engine keeps between
    events — driver, simulated hardware, stats/traces, phase watch lists,
    token/rate-vector caches and the member's own clocks — while the hot
    numeric state lives in the engine's stacked arrays under ``row``.
    """

    def __init__(
        self,
        workload_name: str,
        phased_profiles: Mapping[str, PhasedProfile],
        driver: PolicyDriver,
        platform: PlatformSpec,
        config: EngineConfig,
        tables: EvaluationTables,
    ) -> None:
        if not phased_profiles:
            raise SimulationError("the engine needs at least one application")
        self.workload = workload_name
        self.names = list(phased_profiles)
        self.phased = dict(phased_profiles)
        self.driver = driver
        self.platform = platform
        self.config = config
        self.tables = tables
        self.cat = CatController(platform)
        self.cmt = CmtMonitor(platform)
        self.stats: Dict[str, AppRunStats] = {
            name: AppRunStats(
                name=name,
                alone_time=alone_completion_time(
                    self.phased[name], config.instructions_per_run, platform
                ),
            )
            for name in self.names
        }
        self.traces: Dict[str, List[TracePoint]] = {name: [] for name in self.names}
        self.repartitions: List[RepartitionEvent] = []
        n = len(self.names)
        self.n = n
        self.ncomp = [0] * n
        self.pending = n
        self.now = 0.0
        self.next_interval = config.partition_interval_s
        self.last_completion_start = [0.0] * n
        ipr = config.instructions_per_run
        # Same watch lists as RuntimeEngine.run: epoch lookups for truly
        # phased applications, exact boundary walks for every application
        # whose only boundary could fall inside the run budget.
        self.phase_epoch_watch: List[Tuple[int, float, List[float]]] = [
            (
                i,
                self.phased[name].cycle_instructions,
                [segment.instructions for segment in self.phased[name].segments],
            )
            for i, name in enumerate(self.names)
            if self.phased[name].n_phases > 1
        ]
        self.phase_watch: List[Tuple[int, float, List[float]]] = []
        for i, name in enumerate(self.names):
            phased = self.phased[name]
            inert = (
                phased.n_phases == 1
                and phased.segments[0].instructions >= ipr + _INERT_PHASE_MARGIN
            )
            if not inert:
                self.phase_watch.append(
                    (
                        i,
                        phased.cycle_instructions,
                        [segment.instructions for segment in phased.segments],
                    )
                )
        token_map = ProfileSnapshot(self.phased).tokenize(tables)
        self.phase_tokens: List[Tuple[int, ...]] = [
            token_map[name] for name in self.names
        ]
        self.epoch_token_maps: Dict[tuple, Dict[str, int]] = {}
        self.rate_vectors: Dict[tuple, tuple] = {}
        self.names_key = tuple(self.names)
        self.alloc_ids: Dict[tuple, int] = {}
        self.alloc_id = -1
        self.allocation: Optional[WayAllocation] = None
        self.alloc_token: Optional[tuple] = None
        self.eff = np.zeros(n)
        self.rate = np.full(n, platform.cycles_per_second)
        self.advance = np.zeros((6, n))
        self.eff_l = self.eff.tolist()
        self.rate_l = self.rate.tolist()
        # Time (at current rates) until the earliest watched phase boundary,
        # as of this member's clock; negative = unknown, forcing the exact
        # walks.  A conservative lower bound only — see the round loop.
        self.walk_margin = float("inf") if not self.phase_watch else -1.0
        self.result: Optional[RunResult] = None

    # -- allocation / rates (replicas of the single-run engine) ---------------

    def program(
        self, allocation: WayAllocation, now: float, reason: str, pos: np.ndarray
    ) -> None:
        missing = [a for a in self.names if a not in allocation.masks]
        if missing:
            raise SimulationError(
                f"policy {self.driver.name!r} left applications unallocated: {missing}"
            )
        self.allocation = allocation
        self.alloc_token = allocation_token(allocation)
        known = self.alloc_ids.get(self.alloc_token)
        if known is None:
            # Programming the simulated CAT hardware validates the masks and
            # leaves state that is a pure function of them; re-applying a
            # token this member already programmed would re-derive the same
            # class layout (and the same validation verdict), so only first
            # appearances go through the controller.
            self.cat.apply_allocation(allocation.masks)
            known = len(self.alloc_ids)
            self.alloc_ids[self.alloc_token] = known
        self.alloc_id = known
        self.repartitions.append(
            RepartitionEvent(time_s=now, reason=reason, masks=dict(allocation.masks))
        )
        self.recompute_rates(pos)

    def recompute_rates(self, pos: np.ndarray) -> None:
        """Refresh this member's rate/advance vectors; replica of
        :meth:`RuntimeEngine._recompute_rates` over the shared
        tables (the caches here are per member, keyed exactly as there)."""
        if self.allocation is None:
            raise SimulationError("no allocation programmed")
        epochs: List[int] = [0] * len(self.names)
        for i, cycle, segments in self.phase_epoch_watch:
            position = float(pos[i]) % cycle
            index = len(segments) - 1
            for j, segment in enumerate(segments):
                if position < segment:
                    index = j
                    break
                position -= segment
            epochs[i] = index
        epoch_key = tuple(epochs)
        key = (self.alloc_id, epoch_key)
        vectors = self.rate_vectors.get(key)
        if vectors is None:
            token_map = self.epoch_token_maps.get(epoch_key)
            if token_map is None:
                token_map = {
                    name: self.phase_tokens[i][epochs[i]]
                    for i, name in enumerate(self.names)
                }
                self.epoch_token_maps[epoch_key] = token_map
            # Second level: the vectors are pure functions of (app order,
            # allocation masks, per-app phase content), all captured by
            # value tokens — so members, groups, and repeated studies that
            # share these tables share the built vectors too (read-only;
            # the round loop always copies into its own stack rows).
            shared_key = (
                self.names_key,
                self.alloc_token,
                tuple(self.phase_tokens[i][epochs[i]] for i in range(len(epochs))),
            )
            vectors = self.tables.engine_vectors.get(shared_key)
            if vectors is not None:
                self.rate_vectors[key] = vectors
                self.eff = vectors[3]
                self.rate = vectors[4]
                self.advance = vectors[5]
                self.eff_l = vectors[6]
                self.rate_l = vectors[7]
                return
            estimate = self.tables.evaluate_tokens(
                self.allocation, token_map, alloc_token=self.alloc_token
            )
            ipcs = estimate.ipcs
            effective = estimate.effective_ways
            ipc_vec = np.array([ipcs[name] for name in self.names])
            eff_vec = np.array([effective[name] for name in self.names])
            mpkc = [estimate.llcmpkc[name] for name in self.names]
            stall = [estimate.stall_fractions[name] for name in self.names]
            rate_vec = ipc_vec * self.platform.cycles_per_second
            if not rate_vec.min() > 0:
                bad = self.names[int(np.argmin(rate_vec))]
                raise SimulationError(f"application {bad!r} has a zero rate")
            mpkc_vec = np.array(mpkc)
            stall_vec = np.array(stall)
            advance = np.empty((6, len(self.names)))
            advance[0] = rate_vec
            np.negative(rate_vec, out=advance[1])
            advance[2] = rate_vec
            advance[3] = self.platform.cycles_per_second
            advance[4] = mpkc_vec
            advance[5] = stall_vec
            # The list forms ride along so the round loop's per-member scalar
            # work (phase walks, driver callbacks) runs on plain floats
            # instead of element-indexing the arrays.
            vectors = (
                ipc_vec,
                mpkc_vec,
                stall_vec,
                eff_vec,
                rate_vec,
                advance,
                eff_vec.tolist(),
                rate_vec.tolist(),
            )
            self.rate_vectors[key] = vectors
            self.tables.engine_vectors.put(shared_key, vectors)
        self.eff = vectors[3]
        self.rate = vectors[4]
        self.advance = vectors[5]
        self.eff_l = vectors[6]
        self.rate_l = vectors[7]

    def finalize(self) -> None:
        """Close the run out exactly as the serial engine does."""
        for i, name in enumerate(self.names):
            self.cmt.update_occupancy(name, float(self.eff[i]))
        for name, monitor_state in self.driver.describe_state().items():
            if name in self.stats:
                self.stats[name].sampling_mode_entries = int(
                    monitor_state.get("sampling_entries", 0)
                )
                self.stats[name].class_changes = int(
                    monitor_state.get("class_changes", 0)
                )
        self.result = RunResult(
            policy=self.driver.name,
            workload=self.workload,
            duration_s=self.now,
            app_stats=self.stats,
            traces=self.traces if self.config.record_traces else {},
            repartitions=self.repartitions,
            final_allocation=self.allocation,
        )


class MultiRunEngine:
    """Advance several same-shape runs in lockstep rounds of stacked math.

    ``members`` is a sequence of ``(workload_name, phased_profiles, driver)``
    triples.  Members may bring different numbers of applications: the stack
    is as wide as the widest member and narrower members' trailing columns
    are padded so that no fused reduction sees them.  All members share
    ``tables`` (created on demand), and :meth:`run` returns their
    :class:`~repro.runtime.results.RunResult`\\ s in member order, each
    bit-identical to what a serial ``RuntimeEngine`` would have produced for
    that member alone.

    A member failure (safety cap, zero rate, driver error) aborts the whole
    group — a group is one executor task, and the study layer's quarantine
    treats it as such.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        members: Sequence[Tuple[str, Mapping[str, PhasedProfile], PolicyDriver]],
        config: Optional[EngineConfig] = None,
        *,
        tables: Optional[EvaluationTables] = None,
    ) -> None:
        self.platform = platform
        self.config = config or EngineConfig()
        members = list(members)
        if not members:
            raise SimulationError("a multi-run group needs at least one member run")
        # Members may have different application counts: narrower runs ride
        # in a stack as wide as the widest member, with their trailing
        # columns padded so every fused reduction ignores them (see run()).
        self.n_apps = max(len(profiles) for _, profiles, _ in members)
        if tables is None:
            tables = EvaluationTables(
                platform, max_entries=self.config.max_table_entries
            )
        elif tables.params_signature() != tables_signature(platform):
            raise SimulationError(
                "shared evaluation tables were built for different "
                "platform or model parameters"
            )
        self.tables = tables
        self._members = [
            _MemberRun(name, profiles, driver, platform, self.config, tables)
            for name, profiles, driver in members
        ]

    def run(self) -> List[RunResult]:
        """Run every member to completion; results in member order."""
        config = self.config
        platform = self.platform
        members = self._members
        n = self.n_apps
        total = len(members)
        cps = platform.cycles_per_second
        ipr = config.instructions_per_run
        completion_edge = config.instructions_per_run - 1.0

        # Stacked struct-of-arrays state: run r's (6, n) matrix is
        # state3d[r], one row per counter list of the serial engine
        # (iir, to_sample, win_instr, win_cycles, win_misses, win_stalls).
        # Active runs always occupy the leading rows (see the compaction at
        # the bottom of the round loop), so every fused expression slices
        # [:R].
        #
        # A member narrower than the stack keeps its trailing columns padded
        # as absorbing elements of every fused expression: iir = -inf (so
        # ipr - iir = +inf in the event search and the completion max never
        # sees it), to_sample = +inf (transparent to both min reductions),
        # counters/advance = 0 and rate = cps (so the advance adds 0 and the
        # division stays finite).  No operation ever mixes a pad value with
        # a real column, so the real columns' bits are untouched.
        state3d = np.zeros((total, 6, n))
        advance3d = np.zeros((total, 6, n))
        rate2d = np.full((total, n), cps)
        addend3d = np.empty((total, 6, n))
        scratch2 = np.empty((total, n))
        dts = np.empty(total)

        for r, member in enumerate(members):
            state3d[r, 1, : member.n] = [
                float(member.driver.sample_window(name)) for name in member.names
            ]
            if member.n < n:
                state3d[r, 0, member.n :] = -np.inf
                state3d[r, 1, member.n :] = np.inf
        for r, member in enumerate(members):
            allocation = member.driver.on_start(member.names, platform)
            member.program(allocation, 0.0, "start", state3d[r, 0])
            advance3d[r, :, : member.n] = member.advance
            rate2d[r, : member.n] = member.rate

        active = list(members)
        min_completions = config.min_completions
        interval_s = config.partition_interval_s
        record_traces = config.record_traces
        max_seconds = config.max_simulated_seconds
        while active:
            R = len(active)

            # ---- find each run's next event (fused across the stack) --------
            # Identical elementwise operations to the serial search; the
            # per-run reduction min(axis=1) sees exactly the row's elements.
            iir2 = state3d[:R, 0]
            np.subtract(ipr, iir2, out=scratch2[:R])
            np.minimum(scratch2[:R], state3d[:R, 1], out=scratch2[:R])
            np.divide(scratch2[:R], rate2d[:R], out=scratch2[:R])
            mins = scratch2[:R].min(axis=1).tolist()
            dt_l = mins  # reused in place: dt_l[r] becomes run r's final dt
            for r, member in enumerate(active):
                if member.now > max_seconds:
                    raise SimulationError(
                        f"simulation exceeded the {max_seconds}s "
                        f"safety cap (policy {member.driver.name!r}, workload "
                        f"{member.workload!r})"
                    )
                dt = min(member.next_interval - member.now, mins[r])
                # The walk's only effect on dt is min-ing in the earliest
                # watched boundary.  walk_margin lower-bounds that term (to
                # within far less than the 1e-6 slack), so when it clearly
                # exceeds the candidate dt the walk cannot change the min
                # and the exact scan is skipped — same dt bits either way.
                margin = member.walk_margin
                if not (margin - 1e-6 > dt):
                    rate = member.rate_l
                    walk_min = _INF
                    for i, cycle, segments in member.phase_watch:
                        position = float(iir2[r, i]) % cycle
                        for segment in segments:
                            if position < segment:
                                until = segment - position
                                break
                            position -= segment
                        else:  # pragma: no cover - numeric edge
                            until = segments[0]
                        boundary = until / rate[i]
                        if boundary < walk_min:
                            walk_min = boundary
                    dt = min(dt, walk_min)
                    member.walk_margin = walk_min
                dt_l[r] = max(dt, 1e-9)
            dts[:R] = dt_l

            # ---- advance every run by its own dt (one fused update) ---------
            # Broadcasting each run's dt (and dt*cps) over its (6, n) block
            # multiplies exactly the element pairs the serial advance does.
            dt_col = dts[:R].reshape(R, 1, 1)
            cycles_col = (dts[:R] * cps).reshape(R, 1, 1)
            np.multiply(advance3d[:R, :4], dt_col, out=addend3d[:R, :4])
            np.multiply(advance3d[:R, 4:], cycles_col, out=addend3d[:R, 4:])
            addend3d[:R, 4] /= 1000.0
            state3d[:R] += addend3d[:R]

            # Event detection fused across the stack: one pair of reductions
            # replaces the per-member iir.max() / to_sample.min() calls (the
            # same reductions over the same rows, so the same results).
            comp_l = iir2.max(axis=1).tolist()
            samp_l = state3d[:R, 1].min(axis=1).tolist()

            # ---- per-member event processing (byte-for-byte serial logic) ---
            finished_any = False
            for r, member in enumerate(active):
                member.now = now = member.now + dt_l[r]
                rates_dirty = False

                # A boundary can only sit within the dirty check's 1-instr
                # window if it is within ~1e-9 s at these rates; a remaining
                # margin above 1e-6 s (accumulated float error is orders of
                # magnitude smaller) rules that out, so the scan below would
                # find nothing and is skipped without changing rates_dirty.
                margin_after = member.walk_margin - dt_l[r]
                if not (margin_after > 1e-6):
                    for i, cycle, segments in member.phase_watch:
                        position = float(iir2[r, i]) % cycle
                        for segment in segments:
                            if position < segment:
                                if segment - position <= 1.0:
                                    rates_dirty = True
                                break
                            position -= segment
                        else:  # pragma: no cover - numeric edge
                            if segments[0] <= 1.0:
                                rates_dirty = True

                if comp_l[r] >= completion_edge:
                    iir = state3d[r, 0]
                    for i in np.nonzero(iir >= completion_edge)[0].tolist():
                        name = member.names[i]
                        member.stats[name].completion_times.append(
                            now - member.last_completion_start[i]
                        )
                        member.stats[name].instructions_retired += float(iir[i])
                        member.last_completion_start[i] = now
                        iir[i] = 0.0
                        member.ncomp[i] += 1
                        if member.ncomp[i] == min_completions:
                            member.pending -= 1
                        rates_dirty = True

                if samp_l[r] <= 1.0:
                    row = state3d[r]
                    iir = row[0]
                    to_sample = row[1]
                    sampled = np.nonzero(to_sample <= 1.0)[0].tolist()
                    state_snapshot: Dict[str, Dict[str, float]] = (
                        member.driver.describe_state() if record_traces else {}
                    )
                    win_instr = row[2]
                    win_cycles = row[3]
                    win_misses = row[4]
                    win_stalls = row[5]
                    eff_l = member.eff_l
                    for i in sampled:
                        name = member.names[i]
                        metrics = window_metrics(
                            float(win_instr[i]),
                            float(win_cycles[i]),
                            float(win_misses[i]),
                            float(win_stalls[i]),
                        )
                        member.stats[name].samples_taken += 1
                        win_instr[i] = 0.0
                        win_cycles[i] = 0.0
                        win_misses[i] = 0.0
                        win_stalls[i] = 0.0
                        if record_traces:
                            snapshot = state_snapshot.get(name, {})
                            member.traces[name].append(
                                TracePoint(
                                    time_s=now,
                                    instructions=member.stats[
                                        name
                                    ].instructions_retired
                                    + float(iir[i]),
                                    ipc=metrics.ipc,
                                    llcmpkc=metrics.llcmpkc,
                                    stall_fraction=metrics.stall_fraction,
                                    effective_ways=eff_l[i],
                                    app_class=str(snapshot.get("class", "n/a")),
                                )
                            )
                        new_allocation = member.driver.on_sample(
                            name, metrics, eff_l[i], now
                        )
                        to_sample[i] = member.driver.sample_window(name)
                        if new_allocation is not None:
                            member.program(
                                new_allocation, now, f"sample:{name}", iir
                            )
                            eff_l = member.eff_l
                            rates_dirty = True

                if now >= member.next_interval - 1e-12:
                    member.next_interval += interval_s
                    new_allocation = member.driver.on_interval(now)
                    if new_allocation is not None:
                        member.program(
                            new_allocation, now, "interval", state3d[r, 0]
                        )
                        rates_dirty = True

                if rates_dirty:
                    # Rates (or a watched phase position, via completion's
                    # iir reset) changed: the margin no longer bounds the
                    # next boundary, so force exact walks next round.
                    member.walk_margin = -1.0
                    member.recompute_rates(state3d[r, 0])
                    advance3d[r, :, : member.n] = member.advance
                    rate2d[r, : member.n] = member.rate
                else:
                    member.walk_margin = margin_after

                if member.pending == 0:
                    member.finalize()
                    finished_any = True

            # ---- compact finished runs out of the stack ---------------------
            if finished_any:
                keep = [r for r, member in enumerate(active) if member.pending > 0]
                if keep:
                    k = len(keep)
                    state3d[:k] = state3d[keep]
                    advance3d[:k] = advance3d[keep]
                    rate2d[:k] = rate2d[keep]
                active = [active[r] for r in keep]

        results = [member.result for member in members]
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]
