"""Online decision cores: LFOC's Algorithm 1 and Dunn's k-means over live
counters, one of each for the engine drivers (:mod:`repro.runtime.scheduler`)
and the service sessions (:mod:`repro.service.session`).

A decider owns its memos, its fast-path key and its counters:
``decisions_computed`` counts the answers its memos could not give and
``decision_fast_hits`` the answers they gave.  Callers :meth:`reset` it where
a run starts or a host reboots; :meth:`drop_memos` forgets what a snapshot
restore forgets.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.caching import LruDict
from repro.core.classification import AppClass
from repro.core.lfoc import DEFAULT_PARAMS, LfocDecisionCache, LfocParams
from repro.core.types import WayAllocation
from repro.hardware.platform import PlatformSpec
from repro.metrics.aggregate import short_mean
from repro.policies.dunn import DunnPolicy

__all__ = ["DunnDecider", "LfocDecider", "split_by_class"]


def split_by_class(apps: Sequence[str], monitors: Mapping[str, Any]):
    """Algorithm 1's inputs: the streaming, sensitive and light sets (in
    ``apps`` order) and the sensitive applications' slowdown tables.
    Unknown applications count as light (harmless until proven otherwise)."""
    streaming: List[str] = []
    sensitive: List[str] = []
    light: List[str] = []
    tables: Dict[str, List[float]] = {}
    for app in apps:
        monitor = monitors[app]
        if monitor.app_class is AppClass.STREAMING:
            streaming.append(app)
        elif monitor.app_class is AppClass.SENSITIVE and monitor.slowdown_table:
            sensitive.append(app)
            tables[app] = monitor.slowdown_table
        else:
            light.append(app)
    return streaming, sensitive, light, tables


class LfocDecider:
    """Algorithm 1 from the live classifications.

    Its inputs change only when a sweep installs a classification or the
    tenants change, so the caller passes a ``key`` that changes with either
    (the live monitors' classification versions): an unchanged key answers
    with the previous allocation.  Otherwise the fingerprint-keyed
    :class:`~repro.core.lfoc.LfocDecisionCache` answers.
    """

    def __init__(self, params: LfocParams = DEFAULT_PARAMS) -> None:
        self.params = params
        self.cache = LfocDecisionCache(params=params)
        self.decisions_computed = 0
        self.decision_fast_hits = 0
        self.reset()

    def reset(self) -> None:
        """Forget the key: fresh monitors restart their versions at 0."""
        self._key: object = None
        self._allocation: Optional[WayAllocation] = None

    def drop_memos(self) -> None:
        self.reset()
        self.cache = LfocDecisionCache(params=self.params)

    def decide(
        self,
        apps: Sequence[str],
        monitors: Mapping[str, Any],
        n_ways: int,
        key: object,
    ) -> WayAllocation:
        if self._allocation is not None and key == self._key:
            self.decision_fast_hits += 1
            return self._allocation
        streaming, sensitive, light, tables = split_by_class(apps, monitors)
        # Looked up per call, so a wrapper installed on the class sees it.
        self._allocation = self.cache.allocation_for(
            streaming, sensitive, light, n_ways, tables
        )
        self._key = key
        self.decisions_computed += 1
        return self._allocation


class DunnDecider:
    """Dunn's k-means over each application's rolling mean stall fraction.

    It keeps a window of the last :attr:`window` stall fractions per
    application (in the order they were added) and decides once every
    window holds one.  The window is its own: the engine's Dunn driver
    keeps no monitor bank, and the service's window does not follow
    ``MonitorConfig.history_window``.  Two memos give ``decision_fast_hits``:
    no window changed since the last answer (also ``window_fast_hits``),
    and an LRU keyed on the exact bytes of the mean vector.  In fig7 runs
    neither hits, since samples land between every two intervals and
    windows never recur bit for bit.
    """

    #: Stall samples per application window.
    WINDOW = 5
    #: Bound on the allocation LRU.
    CACHE_ENTRIES = 4096

    def __init__(
        self, policy: Optional[DunnPolicy] = None, window: int = WINDOW
    ) -> None:
        self.policy = policy or DunnPolicy()
        self.window = window
        self.stalls: Dict[str, Deque[float]] = {}
        self._allocations = LruDict(self.CACHE_ENTRIES)
        self._version = 0  # bumped by every window change
        self._decided: Optional[int] = None
        self._allocation: Optional[WayAllocation] = None
        self.decisions_computed = 0
        self.decision_fast_hits = 0
        self.window_fast_hits = 0

    def reset(self, apps: Iterable[str] = ()) -> None:
        """Empty windows for ``apps`` only; forget the fast-path key."""
        self.stalls = {app: deque(maxlen=self.window) for app in apps}
        self._decided = None

    def drop_memos(self) -> None:
        """Forget the fast-path key and the LRU; keep the windows."""
        self._decided = None
        self._allocations.clear()

    def add(self, app: str, stalls: Iterable[float] = ()) -> None:
        self.stalls[app] = deque(stalls, maxlen=self.window)
        self._version += 1

    def remove(self, app: str) -> None:
        self.stalls.pop(app, None)
        self._version += 1

    def observe(self, app: str, stall: float) -> None:
        self.stalls[app].append(stall)
        self._version += 1

    def decide(self, platform: PlatformSpec) -> Optional[WayAllocation]:
        """``None`` until every window holds a sample."""
        if any(not window for window in self.stalls.values()):
            return None
        if self._decided == self._version:
            self.window_fast_hits += 1
            self.decision_fast_hits += 1
            return self._allocation
        means = {app: short_mean(window) for app, window in self.stalls.items()}
        self._allocation = self.allocation_for(means, platform)
        self._decided = self._version
        return self._allocation

    def allocation_for(
        self, stalls: Mapping[str, float], platform: PlatformSpec
    ) -> WayAllocation:
        """Cluster measured stall values, through the LRU."""
        apps = list(stalls)
        values = np.array([stalls[app] for app in apps], dtype=float)
        key = (tuple(apps), values.tobytes())
        allocation = self._allocations.get(key)
        if allocation is None:
            allocation = self.policy.allocation_for_values(apps, values, platform)
            self._allocations.put(key, allocation)
            self.decisions_computed += 1
        else:
            self.decision_fast_hits += 1
        return allocation
