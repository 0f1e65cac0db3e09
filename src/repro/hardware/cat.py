"""Simulated Intel Cache Allocation Technology (CAT).

Intel CAT exposes a small number of *classes of service* (COS / CLOS).  Each
class has a *capacity bitmask* (CBM) that selects which LLC ways lines
allocated by tasks bound to that class may occupy.  The system software
programs the masks through MSRs (or the resctrl filesystem) and binds each
task / CPU to a class.

This module models the parts of CAT that the policies in the paper use:

* capacity bitmasks, with the real hardware constraints — non-empty and made
  of *contiguous* ways, at least ``min_mask_bits`` wide;
* a bounded pool of classes of service;
* task-to-class binding;
* translation between "number of ways" cluster descriptions (what the
  clustering algorithms produce) and concrete bitmasks laid out left-to-right
  in the cache.

The masks are plain integers so the whole model is allocation-free and cheap
enough to be reprogrammed every scheduling interval, as LFOC does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ClosExhaustedError, InvalidMaskError
from repro.hardware.platform import PlatformSpec

__all__ = [
    "mask_from_range",
    "mask_ways",
    "mask_is_contiguous",
    "mask_to_ways",
    "format_mask",
    "parse_mask",
    "ClassOfService",
    "CatController",
    "contiguous_layout",
]


def mask_from_range(start: int, n_ways: int) -> int:
    """Build a bitmask covering ``n_ways`` contiguous ways starting at ``start``.

    Way 0 is the least significant bit, matching the resctrl convention.
    """
    if n_ways <= 0:
        raise InvalidMaskError(f"a capacity mask needs at least one way, got {n_ways}")
    if start < 0:
        raise InvalidMaskError(f"negative start way {start}")
    return ((1 << n_ways) - 1) << start


def mask_ways(mask: int) -> int:
    """Number of ways selected by ``mask``."""
    return int(mask).bit_count()


def mask_is_contiguous(mask: int) -> bool:
    """True when the set bits of ``mask`` form one contiguous run.

    Intel CAT requires contiguous capacity bitmasks; the simulated controller
    enforces the same restriction.
    """
    if mask <= 0:
        return False
    # Strip trailing zeros then check the remaining value is 2^k - 1.
    shifted = mask >> (mask & -mask).bit_length() - 1
    return (shifted & (shifted + 1)) == 0


def mask_to_ways(mask: int) -> List[int]:
    """Return the sorted list of way indices selected by ``mask``."""
    ways = []
    index = 0
    value = int(mask)
    while value:
        if value & 1:
            ways.append(index)
        value >>= 1
        index += 1
    return ways


def format_mask(mask: int, llc_ways: int) -> str:
    """Format ``mask`` as the hexadecimal string used in resctrl schemata."""
    width = (llc_ways + 3) // 4
    return format(mask, f"0{width}x")


def parse_mask(text: str) -> int:
    """Parse a hexadecimal capacity bitmask string (as found in schemata files)."""
    try:
        return int(text.strip(), 16)
    except ValueError as exc:  # pragma: no cover - defensive
        raise InvalidMaskError(f"cannot parse capacity mask {text!r}") from exc


@dataclass
class ClassOfService:
    """A single CAT class of service: an id, a capacity bitmask and its tasks."""

    clos_id: int
    mask: int
    tasks: set = field(default_factory=set)

    @property
    def n_ways(self) -> int:
        return mask_ways(self.mask)


class CatController:
    """Software model of the CAT allocation hardware of one LLC.

    The controller owns a bounded pool of classes of service.  CLOS 0 is the
    *default* class: it always exists, initially covers the whole cache and
    hosts every task that has not been explicitly bound elsewhere — exactly
    like real hardware/resctrl.
    """

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform
        self._classes: Dict[int, ClassOfService] = {}
        self._task_to_clos: Dict[str, int] = {}
        # CLOS 0 always exists and spans the full cache.
        self._classes[0] = ClassOfService(clos_id=0, mask=platform.full_mask)

    # -- mask validation ----------------------------------------------------

    def validate_mask(self, mask: int) -> int:
        """Check a capacity bitmask against the platform's CAT constraints."""
        mask = int(mask)
        if mask <= 0:
            raise InvalidMaskError("capacity mask must select at least one way")
        if mask > self.platform.full_mask:
            raise InvalidMaskError(
                f"mask {mask:#x} selects ways beyond the {self.platform.llc_ways}-way LLC"
            )
        if not mask_is_contiguous(mask):
            raise InvalidMaskError(f"mask {mask:#x} is not contiguous")
        if mask_ways(mask) < self.platform.min_mask_bits:
            raise InvalidMaskError(
                f"mask {mask:#x} is narrower than the minimum of "
                f"{self.platform.min_mask_bits} ways"
            )
        return mask

    # -- CLOS management ----------------------------------------------------

    @property
    def n_classes(self) -> int:
        return len(self._classes)

    def classes(self) -> List[ClassOfService]:
        return [self._classes[k] for k in sorted(self._classes)]

    def get_class(self, clos_id: int) -> ClassOfService:
        try:
            return self._classes[clos_id]
        except KeyError as exc:
            raise InvalidMaskError(f"unknown CLOS id {clos_id}") from exc

    def create_class(self, mask: int) -> ClassOfService:
        """Allocate a new class of service with the given capacity bitmask."""
        mask = self.validate_mask(mask)
        if len(self._classes) >= self.platform.n_clos:
            raise ClosExhaustedError(
                f"platform {self.platform.name!r} supports only "
                f"{self.platform.n_clos} classes of service"
            )
        clos_id = next(i for i in range(self.platform.n_clos) if i not in self._classes)
        cos = ClassOfService(clos_id=clos_id, mask=mask)
        self._classes[clos_id] = cos
        return cos

    def set_mask(self, clos_id: int, mask: int) -> None:
        """Reprogram the capacity bitmask of an existing class."""
        mask = self.validate_mask(mask)
        self.get_class(clos_id).mask = mask

    def remove_class(self, clos_id: int) -> None:
        """Remove a class of service; its tasks fall back to the default class."""
        if clos_id == 0:
            raise InvalidMaskError("the default class of service cannot be removed")
        cos = self.get_class(clos_id)
        for task in list(cos.tasks):
            self.bind_task(task, 0)
        del self._classes[clos_id]

    def reset(self) -> None:
        """Drop every non-default class and rebind all tasks to CLOS 0."""
        for clos_id in [c for c in self._classes if c != 0]:
            self.remove_class(clos_id)
        self._classes[0].mask = self.platform.full_mask

    # -- task binding -------------------------------------------------------

    def bind_task(self, task: str, clos_id: int) -> None:
        """Bind a task (identified by an opaque string id) to a class of service."""
        cos = self.get_class(clos_id)
        previous = self._task_to_clos.get(task)
        if previous is not None and previous in self._classes:
            self._classes[previous].tasks.discard(task)
        cos.tasks.add(task)
        self._task_to_clos[task] = clos_id

    def clos_of(self, task: str) -> int:
        """Class of service a task is currently bound to (default 0)."""
        return self._task_to_clos.get(task, 0)

    def mask_of(self, task: str) -> int:
        """Capacity bitmask currently governing a task's LLC allocations."""
        return self.get_class(self.clos_of(task)).mask

    def effective_ways(self, task: str) -> int:
        """Number of LLC ways a task may allocate into."""
        return mask_ways(self.mask_of(task))

    # -- bulk programming ---------------------------------------------------

    def apply_allocation(self, allocation: Mapping[str, int]) -> Dict[str, int]:
        """Program a full task→mask allocation in one shot.

        ``allocation`` maps task ids to capacity bitmasks.  Tasks sharing the
        same mask share a class of service (this is what keeps the CLOS usage
        within the hardware limit when many applications share a cluster).

        Returns the mapping from task id to the CLOS id it was bound to.
        """
        # Reuse classes per distinct mask.
        self.reset()
        mask_to_clos: Dict[int, int] = {}
        result: Dict[str, int] = {}
        for task, mask in allocation.items():
            mask = self.validate_mask(mask)
            if mask not in mask_to_clos:
                if mask == self.platform.full_mask and 0 not in mask_to_clos.values():
                    mask_to_clos[mask] = 0
                else:
                    mask_to_clos[mask] = self.create_class(mask).clos_id
            clos_id = mask_to_clos[mask]
            self.bind_task(task, clos_id)
            result[task] = clos_id
        return result

    def current_allocation(self) -> Dict[str, int]:
        """Return the task→mask mapping currently programmed."""
        return {task: self.mask_of(task) for task in self._task_to_clos}


def contiguous_layout(way_counts: Sequence[int], llc_ways: int) -> List[int]:
    """Lay out clusters of the given sizes as adjacent, non-overlapping masks.

    The clustering algorithms produce per-cluster *way counts*; CAT needs
    concrete contiguous bitmasks.  This helper packs the clusters from way 0
    upwards (cluster order is preserved) and raises if they do not fit.
    """
    total = sum(way_counts)
    if total > llc_ways:
        raise InvalidMaskError(
            f"clusters require {total} ways but the LLC only has {llc_ways}"
        )
    masks: List[int] = []
    start = 0
    for count in way_counts:
        if count <= 0:
            raise InvalidMaskError("every cluster must receive at least one way")
        masks.append(mask_from_range(start, count))
        start += count
    return masks
