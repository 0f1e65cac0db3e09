"""Small caching primitives shared by the decision-cache layer.

The driver-layer decision caches (Dunn ``choose_k`` memos, daemon allocation
caches, LFOC clustering fingerprints, slowdown-table token registries) and
the simulator's evaluation tables all need the same thing: a bounded mapping
with least-recently-used eviction and recency refresh on reads.
:class:`LruDict` is that one implementation, so eviction semantics live in a
single place instead of hand-rolled ``OrderedDict`` patterns.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, ItemsView, Optional, ValuesView

from repro.errors import ReproError

__all__ = ["LruDict"]

_MISSING = object()


class LruDict:
    """Bounded mapping with LRU eviction; reads refresh recency.

    Deliberately minimal: :meth:`get` returns ``default`` on a miss (no
    ``KeyError`` interface) and :meth:`put` reports the evicted key, so
    callers keeping side tables in lockstep can drop the matching entry.
    ``max_entries=None`` never evicts.  :meth:`items` and :meth:`values`
    run from the least to the most recently used entry.
    """

    __slots__ = ("max_entries", "_data")

    def __init__(self, max_entries: Optional[int]) -> None:
        if max_entries is not None and max_entries < 1:
            raise ReproError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        self._data.clear()

    def items(self) -> ItemsView:
        return self._data.items()

    def values(self) -> ValuesView:
        return self._data.values()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The stored value (refreshing its recency), or ``default``."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> Optional[Hashable]:
        """Store ``key``; returns the evicted key when the bound overflowed."""
        self._data[key] = value
        self._data.move_to_end(key)
        if self.max_entries is not None and len(self._data) > self.max_entries:
            evicted, _ = self._data.popitem(last=False)
            return evicted
        return None
