"""Dynamic policy drivers: the OS-side glue between counters and CAT.

The runtime engine is policy-agnostic; it periodically invokes a
:class:`PolicyDriver` and programs whatever allocation the driver returns.
Three drivers reproduce the paper's Section 5.2 configurations:

* :class:`LfocSchedulerPlugin` — the paper's contribution: per-application
  monitors (warm-up, rolling windows, phase-change heuristics), one
  sampling-mode sweep at a time, and Algorithm 1 re-run at every partitioning
  interval from the online classification;
* :class:`DunnUserLevelDaemon` — the user-level Dunn policy: it only tracks
  the ``STALLS_L2_MISS`` fraction of every application and re-runs the k-means
  clustering each interval;
* :class:`StaticPolicyDriver` — programs a fixed allocation computed up front
  by any static policy (used to replay the Section 5.1 study inside the
  engine, and by the Best-Static comparison).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence

from repro.apps.profile import AppProfile
from repro.core.lfoc import DEFAULT_PARAMS, LfocParams
from repro.core.types import WayAllocation
from repro.errors import SimulationError
from repro.hardware.platform import PlatformSpec
from repro.hardware.pmc import DerivedMetrics
from repro.policies.base import ClusteringPolicy
from repro.policies.dunn import DunnPolicy
from repro.policies.online import DunnDecider, LfocDecider
from repro.runtime.monitor import BankMonitor, MonitorBank, MonitorConfig
from repro.runtime.sampling import SamplingConfig, SamplingSession

__all__ = [
    "PolicyDriver",
    "StaticPolicyDriver",
    "StockLinuxDriver",
    "LfocSchedulerPlugin",
    "DunnUserLevelDaemon",
]


class PolicyDriver:
    """Interface the runtime engine drives."""

    #: Identifier used in result records.
    name: str = "driver"
    #: Counter-sampling window (instructions) during normal operation.
    normal_sample_window: float = 100e6
    #: Counter-sampling window (instructions) while an app is being swept.
    sampling_sample_window: float = 10e6

    def on_start(self, apps: Sequence[str], platform: PlatformSpec) -> WayAllocation:
        """Initial allocation, programmed before execution starts: by
        default every application shares the whole cache."""
        return WayAllocation(
            masks=dict.fromkeys(apps, platform.full_mask), total_ways=platform.llc_ways
        )

    def on_sample(
        self, app: str, metrics: DerivedMetrics, effective_ways: float, now: float
    ) -> Optional[WayAllocation]:
        """Called on every per-application counter sample.

        Returning an allocation reprograms the cache immediately (used by the
        sampling-mode sweep); returning ``None`` keeps the current one.
        """
        return None

    def on_interval(self, now: float) -> Optional[WayAllocation]:
        """Called at every partitioning interval (500 ms by default)."""
        return None

    def sample_window(self, app: str) -> float:
        """Instruction window until the next counter sample of ``app``."""
        return self.normal_sample_window

    def describe_state(self) -> Dict[str, Dict[str, float]]:
        """Optional per-application monitoring snapshot (for traces/tests)."""
        return {}


class StaticPolicyDriver(PolicyDriver):
    """Program a fixed allocation computed by a static policy from offline profiles."""

    def __init__(
        self, policy: ClusteringPolicy, profiles: Mapping[str, AppProfile]
    ) -> None:
        self.policy = policy
        self.profiles = dict(profiles)
        self.name = f"static:{policy.name}"

    def on_start(self, apps: Sequence[str], platform: PlatformSpec) -> WayAllocation:
        missing = [a for a in apps if a not in self.profiles]
        if missing:
            raise SimulationError(f"static driver has no profiles for {missing}")
        selected = {a: self.profiles[a] for a in apps}
        return self.policy.allocate(selected, platform)


class StockLinuxDriver(PolicyDriver):
    """No partitioning: everybody shares the whole LLC for the whole run."""

    name = "Stock-Linux"


class LfocSchedulerPlugin(PolicyDriver):
    """The OS-level LFOC implementation (Section 4), as a policy driver."""

    name = "LFOC"

    def __init__(
        self,
        params: LfocParams = DEFAULT_PARAMS,
        monitor_config: Optional[MonitorConfig] = None,
        sampling_config: Optional[SamplingConfig] = None,
    ) -> None:
        """The per-application monitors are rows of one fused
        :class:`~repro.runtime.monitor.MonitorBank` (``driver.monitors``
        holds the row views), and Algorithm 1 is decided by an
        :class:`~repro.policies.online.LfocDecider` keyed on the bank's
        classification versions.  The differential-oracle tests pin it
        against a driver that keeps one scalar monitor per application and
        recomputes Algorithm 1 every interval.
        """
        self.params = params
        self.monitor_config = monitor_config or MonitorConfig()
        self.sampling_config = sampling_config or SamplingConfig()
        self.monitors: Dict[str, BankMonitor] = {}
        self._bank: Optional[MonitorBank] = None
        self._platform: Optional[PlatformSpec] = None
        self._apps: List[str] = []
        self._active_sampling: Optional[SamplingSession] = None
        self._sampling_queue: Deque[str] = deque()
        self.decider = LfocDecider(params)

    # -- lifecycle -------------------------------------------------------------------

    def on_start(self, apps: Sequence[str], platform: PlatformSpec) -> WayAllocation:
        self._platform = platform
        self._apps = list(apps)
        # Fused monitor state: one bank row per application, in app order.
        self._bank = MonitorBank(self._apps, self.monitor_config)
        self.monitors = {app: self._bank.monitor(app) for app in self._apps}
        self.decider.reset()
        # Until anything is known every application shares the whole cache.
        return super().on_start(apps, platform)

    # -- sampling-window selection ------------------------------------------------------

    def sample_window(self, app: str) -> float:
        if self._active_sampling is not None and self._active_sampling.app == app:
            return self.sampling_sample_window
        return self.normal_sample_window

    # -- counter samples -----------------------------------------------------------------

    def on_sample(
        self, app: str, metrics: DerivedMetrics, effective_ways: float, now: float
    ) -> Optional[WayAllocation]:
        monitor = self.monitors[app]
        session = self._active_sampling
        if session is not None and session.app == app:
            session.record_step(metrics)
            if session.finished:
                outcome = session.outcome()
                monitor.set_classification(
                    outcome.app_class,
                    slowdown_table=outcome.slowdown_table,
                    critical_size=outcome.critical_size,
                )
                self._active_sampling = None
                # Re-cluster right away with the fresh classification, or start
                # the next queued sweep.
                next_allocation = self._maybe_start_next_sampling()
                if next_allocation is not None:
                    return next_allocation
                return self._run_partitioning()
            return session.current_allocation()

        wants_sampling = monitor.observe(metrics, effective_ways)
        if wants_sampling and not monitor.in_sampling_mode:
            monitor.begin_sampling()
            self._sampling_queue.append(app)
            return self._maybe_start_next_sampling()
        return None

    # -- partitioning interval ----------------------------------------------------------------

    def on_interval(self, now: float) -> Optional[WayAllocation]:
        if self._active_sampling is not None:
            # Keep the sampling layout in place; the sweep is short (10 M
            # instruction steps) and reprogramming now would corrupt it.
            return None
        allocation = self._maybe_start_next_sampling()
        if allocation is not None:
            return allocation
        return self._run_partitioning()

    # -- internals ---------------------------------------------------------------------------

    def _maybe_start_next_sampling(self) -> Optional[WayAllocation]:
        if self._active_sampling is not None or not self._sampling_queue:
            return None
        if self._platform is None:
            raise SimulationError("driver used before on_start")
        app = self._sampling_queue.popleft()
        session = SamplingSession(
            app, self._apps, self._platform.llc_ways, self.sampling_config
        )
        self._active_sampling = session
        return session.current_allocation()

    def _run_partitioning(self) -> WayAllocation:
        """Re-run Algorithm 1 from the current per-application classification."""
        if self._platform is None or self._bank is None:
            raise SimulationError("driver used before on_start")
        return self.decider.decide(
            self._apps,
            self.monitors,
            self._platform.llc_ways,
            self._bank.classification_version.tobytes(),
        )

    def decision_stats(self) -> Dict[str, int]:
        """Decision-layer counters (for the driver benchmark and tests)."""
        return {
            "partitions_computed": self.decider.decisions_computed,
            "partition_fast_hits": self.decider.decision_fast_hits,
            "decision_cache_hits": self.decider.cache.hits,
            "decision_cache_misses": self.decider.cache.misses,
        }

    def describe_state(self) -> Dict[str, Dict[str, float]]:
        return {app: monitor.snapshot() for app, monitor in self.monitors.items()}


class DunnUserLevelDaemon(PolicyDriver):
    """User-level Dunn: k-means on measured stall fractions every interval,
    decided by a :class:`~repro.policies.online.DunnDecider`.  The
    differential-oracle tests pin it against a cache-free daemon deciding
    through the original silhouette loop (see :mod:`repro.policies.dunn`
    for the exact guarantee)."""

    name = "Dunn"

    def __init__(
        self,
        max_clusters: int = 4,
        min_clusters: int = 2,
        overlap_ways: int = 1,
        history_window: int = DunnDecider.WINDOW,
    ) -> None:
        policy = DunnPolicy(
            max_clusters=max_clusters,
            min_clusters=min_clusters,
            overlap_ways=overlap_ways,
        )
        self.decider = DunnDecider(policy, window=history_window)
        self._platform: Optional[PlatformSpec] = None

    def on_start(self, apps: Sequence[str], platform: PlatformSpec) -> WayAllocation:
        self._platform = platform
        self.decider.reset(apps)
        # Allocations are platform-shaped and the LRU key is (apps, stall
        # values) only, so a restart — possibly on a different platform —
        # must not serve the previous run's masks.
        self.decider.drop_memos()
        return super().on_start(apps, platform)

    def on_sample(
        self, app: str, metrics: DerivedMetrics, effective_ways: float, now: float
    ) -> Optional[WayAllocation]:
        self.decider.observe(app, metrics.stall_fraction)
        return None

    def on_interval(self, now: float) -> Optional[WayAllocation]:
        if self._platform is None:
            raise SimulationError("driver used before on_start")
        return self.decider.decide(self._platform)

    def decision_stats(self) -> Dict[str, int]:
        """Decision-layer counters (for the driver benchmark and tests).

        ``DunnPolicy.choose_k``'s own cache counters are left out: the
        decider's LRU shares their key and sits in front of them, so they
        could only hit after it evicted.
        """
        decider = self.decider
        return {
            "intervals_computed": decider.decisions_computed,
            "interval_fast_hits": decider.window_fast_hits,
            "allocation_cache_hits": (
                decider.decision_fast_hits - decider.window_fast_hits
            ),
        }
