"""Clustering/partitioning evaluation (the role PBBCache plays in the paper).

Given a platform, per-application profiles and a concrete way allocation, the
estimator predicts every application's slowdown and the resulting workload
metrics (unfairness, STP, ...).  It is used in three places:

* by the optimal-solution solvers of :mod:`repro.optimal` as the objective
  function (Section 3);
* by the static clustering study (Fig. 6), where the clustering produced by
  each policy is evaluated under a fixed allocation;
* by the runtime engine, which needs each application's *current* IPC under
  the allocation in force to advance simulated execution.

The slowdown of an application combines two effects:

1. **cache sharing** — its effective fractional way count (from
   :class:`~repro.simulator.occupancy.OccupancyModel`) determines the IPC it
   can sustain, interpolated from its alone-run curves (with a CPI
   extrapolation below one way, since several applications crammed into one
   way each hold less than a way's worth of space);
2. **memory-bandwidth contention** — the multiplicative factor from
   :class:`~repro.simulator.bandwidth.BandwidthModel`.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.apps.phases import PhasedProfile
from repro.apps.profile import AppProfile, FastProfileView
from repro.core.types import ClusteringSolution, WayAllocation
from repro.errors import SimulationError
from repro.hardware.platform import PlatformSpec
from repro.metrics.fairness import WorkloadMetrics, compute_metrics
from repro.simulator.bandwidth import BandwidthModel, BandwidthResult, read_demand
from repro.simulator.occupancy import (
    OccupancyModel,
    OccupancyResult,
    OccupancyTrajectoryCache,
)

__all__ = [
    "ClusterEstimate",
    "ClusteringEstimator",
    "EvaluationTables",
    "ProfileSnapshot",
    "allocation_token",
]


@dataclass(frozen=True)
class ClusterEstimate:
    """Full prediction for one workload under one allocation."""

    allocation: WayAllocation
    slowdowns: Dict[str, float]
    ipcs: Dict[str, float]
    effective_ways: Dict[str, float]
    bandwidth: BandwidthResult
    occupancy: OccupancyResult
    # Each application's miss rate and stall fraction (read_demand).
    llcmpkc: Dict[str, float]
    stall_fractions: Dict[str, float]

    @cached_property
    def metrics(self) -> WorkloadMetrics:
        """Workload metrics of the slowdowns, computed on first use.

        The runtime engine reads only IPCs and effective ways, so most
        cached estimates never pay for :func:`compute_metrics`.
        """
        return compute_metrics(self.slowdowns)

    @property
    def unfairness(self) -> float:
        return self.metrics.unfairness

    @property
    def stp(self) -> float:
        return self.metrics.stp


def allocation_token(allocation: WayAllocation) -> tuple:
    """Hashable identity of an allocation for the evaluation cache.

    Keeps the mask *insertion order*: :class:`ClusteringEstimator` iterates
    applications in ``allocation.apps()`` order and floating-point
    accumulation depends on it, so two allocations that differ only in
    ordering must not share a cache entry.
    """
    return (tuple(allocation.masks.items()), allocation.total_ways)


class ProfileSnapshot:
    """Immutable per-application phase-profile table for one workload run.

    A runtime engine that re-registers every application's *current* phase
    profile with the estimator on each rate recomputation materialises a
    fresh ``renamed()`` copy every time, which defeats any caching by
    identity.  The snapshot performs that renaming
    exactly once per (application, phase) up front, so the profile driving an
    application in a given phase is one stable object for the whole run.
    """

    def __init__(self, phased_profiles: Mapping[str, PhasedProfile]) -> None:
        if not phased_profiles:
            raise SimulationError("a profile snapshot needs at least one application")
        self.apps: Tuple[str, ...] = tuple(phased_profiles)
        self.phase_profiles: Dict[str, Tuple[AppProfile, ...]] = {
            name: tuple(segment.profile.renamed(name) for segment in prof.segments)
            for name, prof in phased_profiles.items()
        }

    def tokenize(self, tables: "EvaluationTables") -> Dict[str, Tuple[int, ...]]:
        """Intern every (application, phase) profile into ``tables`` up front.

        Returns the per-application tuple of phase tokens.  The runtime
        engine registers the whole snapshot once at run start and from then
        on describes a phase epoch purely by token — no profile objects are
        re-registered when an application changes phase, which is what lets
        :meth:`EvaluationTables.evaluate_tokens` skip all per-application
        bookkeeping for the applications whose phase did not change.
        """
        return {
            name: tuple(tables.token_for(profile) for profile in phases)
            for name, phases in self.phase_profiles.items()
        }


def _ipc_with_extrapolation(
    profile: Union[AppProfile, FastProfileView], effective_ways: float
) -> float:
    """IPC at a fractional allocation, extrapolating below one way.

    The alone-run curves start at one way; when an application effectively
    holds less than a way (several programs crammed into a small cluster), we
    extend the curve by continuing the CPI slope between one and two ways —
    steep for sensitive programs, flat for streaming/light ones — capped at a
    3x CPI inflation to keep the model bounded.  ``profile`` is anything with
    ``ipc_at`` and ``n_ways``: an :class:`AppProfile` or its
    :class:`FastProfileView`, which evaluate bit-identically.
    """
    if effective_ways >= 1.0 or profile.n_ways < 2:
        return profile.ipc_at(max(effective_ways, 1.0))
    cpi_1 = 1.0 / profile.ipc_at(1.0)
    cpi_2 = 1.0 / profile.ipc_at(2.0)
    slope = max(cpi_1 - cpi_2, 0.0)
    deficit = 1.0 - max(effective_ways, 0.0)
    cpi = min(cpi_1 + slope * deficit, 3.0 * cpi_1)
    return 1.0 / cpi


def _estimate(
    allocation: WayAllocation,
    occupancy: OccupancyResult,
    profiles: Mapping[str, Union[AppProfile, FastProfileView]],
    platform: PlatformSpec,
    bandwidth_model: BandwidthModel,
) -> ClusterEstimate:
    """The estimate of a solved allocation, which both evaluators build.

    Scalar on purpose: at a dozen applications the inlined float
    arithmetic beats an equivalent NumPy ufunc chain (measured).
    """
    llcmpkc, demand, stall_fraction = read_demand(
        occupancy.effective_ways, profiles, platform
    )
    bandwidth = bandwidth_model.solve_from_demand(demand, stall_fraction, platform)
    slowdowns: Dict[str, float] = {}
    ipcs: Dict[str, float] = {}
    for app in allocation.apps():
        profile = profiles[app]
        cache_ipc = _ipc_with_extrapolation(profile, occupancy.effective_ways[app])
        shared_ipc = cache_ipc / bandwidth.slowdown_factors[app]
        ipcs[app] = shared_ipc
        slowdowns[app] = profile.ipc_alone / max(shared_ipc, 1e-12)
    return ClusterEstimate(
        allocation=allocation,
        slowdowns=slowdowns,
        ipcs=ipcs,
        effective_ways=occupancy.effective_ways,
        bandwidth=bandwidth,
        occupancy=occupancy,
        llcmpkc=llcmpkc,
        stall_fractions=stall_fraction,
    )


class EvaluationTables:
    """Shared, incrementally-grown evaluation tables for repeated estimates.

    This is the dense table cache behind the runtime engine's evaluation
    path.  It extends the table-once-score-many idea of
    :mod:`repro.optimal.tabulated` from the static solvers to arbitrary
    (possibly overlapping) runtime allocations:

    * a **token registry** fingerprints profiles by curve values, so
      identical profiles — across phases, policy drivers, engine runs, even
      freshly rebuilt workloads — share all derived tables;
    * an :class:`~repro.simulator.occupancy.OccupancyTrajectoryCache` stores
      the exact fixed-point trajectory of every mask-sharing component ever
      solved;
    * a full-estimate cache keyed by ``(allocation, profile tokens)`` makes a
      repeated :meth:`evaluate` call a single dictionary lookup.

    Every cached value is produced by arithmetic that replicates the
    dict-based models operation for operation, so results are bit-identical
    to :meth:`ClusteringEstimator.evaluate_allocation` (the equivalence is
    pinned by the test suite).
    Instances are cheap to create, safe to share across runs of the same
    platform/model configuration; every executor worker keeps one per
    platform (see :func:`~repro.runtime.executors.base.worker_tables`).
    """

    def __init__(
        self,
        platform: PlatformSpec,
        *,
        occupancy_model: Optional[OccupancyModel] = None,
        bandwidth_model: Optional[BandwidthModel] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        """
        Parameters
        ----------
        max_entries:
            Upper bound on cached full estimates (``None``, the default, is
            unbounded).  When set, the estimate cache evicts its
            least-recently-used entry on overflow, so long-lived services do
            not grow monotonically; evicted entries are simply recomputed on
            the next request (results stay bit-identical either way).  The
            occupancy-trajectory and profile-token tables are not bounded —
            they grow with distinct components/profiles, not with evaluations.
        """
        if max_entries is not None and max_entries < 1:
            raise SimulationError("max_entries must be >= 1 (or None for unbounded)")
        self.platform = platform
        self.occupancy_model = occupancy_model or OccupancyModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()
        self.occupancy_cache = OccupancyTrajectoryCache(self.occupancy_model)
        self.max_entries = max_entries
        # An OrderedDict only when bounded: the unbounded path keeps the plain
        # dict (no recency bookkeeping on the hot lookup).
        self._estimates: Dict[tuple, ClusterEstimate] = (
            OrderedDict() if max_entries is not None else {}
        )
        # Token registry: id -> token with strong references (so ids cannot be
        # recycled), plus a value-fingerprint table for cross-object sharing.
        self._token_by_id: Dict[int, int] = {}
        self._token_refs: List[AppProfile] = []
        self._token_by_value: Dict[tuple, int] = {}
        self._views: Dict[int, FastProfileView] = {}
        # Engine-facing scratch: rate/advance vectors derived from estimates,
        # keyed purely by content ((app names, allocation token, per-app
        # phase tokens)) so any engine sharing these tables — across runs,
        # groups, even repeated studies — reuses them.  Populated by the
        # multi-run engine; never persisted.
        self.engine_vectors: Dict[tuple, tuple] = {}

    # -- bookkeeping -------------------------------------------------------------

    def params_signature(self) -> tuple:
        """Model/platform parameters a compatible sharer must match."""
        occ = self.occupancy_model
        bw = self.bandwidth_model
        return (
            self.platform,
            (occ.max_iterations, occ.tolerance, occ.damping, occ.base_pressure),
            (bw.sensitivity, bw.max_factor),
        )

    def token_for(self, profile: AppProfile) -> int:
        """Value-fingerprint token of a profile (stable across copies)."""
        token = self._token_by_id.get(id(profile))
        if token is None:
            fingerprint = profile.value_fingerprint()
            token = self._token_by_value.get(fingerprint)
            if token is None:
                token = len(self._token_by_value)
                self._token_by_value[fingerprint] = token
                self._views[token] = FastProfileView(profile)
            self._token_by_id[id(profile)] = token
            self._token_refs.append(profile)
        return token

    def view_for(self, profile: AppProfile) -> FastProfileView:
        """The shared :class:`FastProfileView` evaluating ``profile``'s curves."""
        return self._views[self.token_for(profile)]

    def view_for_token(self, token: int) -> FastProfileView:
        """The :class:`FastProfileView` behind an already-interned token."""
        try:
            return self._views[token]
        except KeyError:
            raise SimulationError(f"unknown profile token {token!r}")

    def cache_sizes(self) -> Dict[str, int]:
        """Entry counts per table (introspection for tests and benchmarks)."""
        return {
            "estimates": len(self._estimates),
            "components": len(self.occupancy_cache),
            "profiles": len(self._token_by_value),
        }

    def clear(self) -> None:
        self._estimates.clear()
        self.occupancy_cache.clear()
        self.engine_vectors.clear()

    # -- persistence -------------------------------------------------------------
    #
    # On-disk layout (one file):
    #
    #   bytes 0..7    magic  b"REPROTAB"
    #   bytes 8..15   header length (little-endian uint64)
    #   then          JSON header (UTF-8)
    #   then          zero padding to the next 64-byte boundary
    #   then          float64 payload, mapped read-only with np.memmap
    #
    # The header carries the structure (token curve lengths, trajectory keys,
    # estimate keys) plus a CRC32 of the payload and a digest of
    # params_signature(); every float lives in the payload, so values
    # round-trip bit for bit.  Sections appear in payload order — token
    # registry, occupancy trajectories, full estimates — and are consumed
    # sequentially on load.

    _MAGIC = b"REPROTAB"
    _FORMAT_VERSION = 1
    _PAYLOAD_ALIGN = 64

    def _params_digest(self) -> str:
        """Stable digest of :meth:`params_signature` for the file header.

        The signature is a nest of dataclasses, floats and ints whose
        ``repr`` is value-determined (float repr round-trips), so hashing the
        repr detects any platform or model-parameter mismatch.
        """
        return hashlib.sha256(repr(self.params_signature()).encode()).hexdigest()

    def save(self, path: str) -> None:
        """Persist the tables so a later process can start warm.

        Writes the token registry (per-token IPC/LLCMPKC curves and bytes per
        miss — enough to re-derive the value fingerprints and rebuild the
        :class:`FastProfileView`\\ s), every cached occupancy trajectory and
        every cached full estimate.  :meth:`load` restores all three
        bit-identically; profile *objects* interned later re-attach to the
        restored tokens through their value fingerprints.
        """
        chunks: List[np.ndarray] = []

        def put(values) -> None:
            chunks.append(
                np.ascontiguousarray(np.asarray(values, dtype=np.float64)).ravel()
            )

        tokens_meta = []
        for token in range(len(self._token_by_value)):
            view = self._views[token]
            put(view.ipc)
            put(view.llcmpkc)
            put([view.bytes_per_miss])
            tokens_meta.append({"n_ways": view.n_ways})

        trajectories_meta = []
        for key, state in self.occupancy_cache.export_entries():
            length = len(state["eff"])
            put(state["eff"])  # (length, members)
            if length > 1:
                # pressures[0] is the empty initial-guess placeholder.
                put(state["pressures"][1:])  # (length - 1, members)
            put(state["deltas"])  # (length,)
            trajectories_meta.append(
                {
                    "key": [[int(token), int(mask)] for token, mask in key],
                    "length": length,
                    "fixed_at": int(state["fixed_at"]),
                }
            )

        estimates_meta = []
        for (_, tokens), estimate in self._estimates.items():
            apps = estimate.allocation.apps()
            put([estimate.slowdowns[app] for app in apps])
            put([estimate.ipcs[app] for app in apps])
            put([estimate.effective_ways[app] for app in apps])
            put([estimate.occupancy.pressures[app] for app in apps])
            put([estimate.bandwidth.demand_gbs[app] for app in apps])
            put([estimate.bandwidth.slowdown_factors[app] for app in apps])
            put([estimate.bandwidth.total_demand_gbs, estimate.bandwidth.peak_gbs])
            metrics = estimate.metrics
            put([metrics.unfairness, metrics.stp, metrics.antt, metrics.jain])
            estimates_meta.append(
                {
                    "apps": list(apps),
                    "masks": [int(estimate.allocation.masks[app]) for app in apps],
                    "total_ways": int(estimate.allocation.total_ways),
                    "tokens": [int(token) for token in tokens],
                    "iterations": int(estimate.occupancy.iterations),
                    "converged": bool(estimate.occupancy.converged),
                }
            )

        payload = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
        )
        header = {
            "format_version": self._FORMAT_VERSION,
            "params_sha256": self._params_digest(),
            "payload_count": int(payload.size),
            "payload_crc32": zlib.crc32(payload.tobytes()) & 0xFFFFFFFF,
            "tokens": tokens_meta,
            "trajectories": trajectories_meta,
            "estimates": estimates_meta,
        }
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        padding = (-(16 + len(header_bytes))) % self._PAYLOAD_ALIGN
        with open(path, "wb") as handle:
            handle.write(self._MAGIC)
            handle.write(struct.pack("<Q", len(header_bytes)))
            handle.write(header_bytes)
            handle.write(b"\0" * padding)
            handle.write(payload.tobytes())

    @staticmethod
    def _trajectory_header(meta: dict, index: int, path: str) -> Tuple[tuple, int, int]:
        """``(key, length, fixed_at)`` of one saved trajectory, checked.

        The payload CRC does not cover the header, so a trajectory's
        structure is checked before its floats are read: a non-empty key of
        ``(token, mask)`` pairs with positive masks, at least the initial
        iteration, and a freeze point that is either 0 (still live) or the
        last recorded iteration, as :meth:`_ComponentTrajectory.ensure`
        leaves it.
        """
        try:
            key = tuple((int(token), int(mask)) for token, mask in meta["key"])
            length = int(meta["length"])
            fixed_at = int(meta["fixed_at"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(
                f"trajectory {index} in {path!r} has a malformed header: {exc}"
            )
        where = f"trajectory {index} {[list(pair) for pair in key]!r} in {path!r}"
        if not key:
            raise SimulationError(f"{where} has an empty key")
        if any(mask <= 0 for _, mask in key):
            raise SimulationError(f"{where} has a non-positive relative mask")
        if length < 1:
            raise SimulationError(f"{where} has length {length} < 1")
        if fixed_at not in (0, length - 1):
            raise SimulationError(
                f"{where} is frozen at iteration {fixed_at}, "
                f"neither 0 nor its last iteration {length - 1}"
            )
        return key, length, fixed_at

    @classmethod
    def load(
        cls,
        path: str,
        platform: PlatformSpec,
        *,
        occupancy_model: Optional[OccupancyModel] = None,
        bandwidth_model: Optional[BandwidthModel] = None,
        max_entries: Optional[int] = None,
    ) -> "EvaluationTables":
        """Rebuild saved tables, bit-identical to the instance that saved them.

        The caller supplies the platform and models (they are code-level
        objects, not data); the stored ``params_signature`` digest must match
        theirs, so tables can never silently warm-start a differently
        configured study.  The float payload is mapped read-only with
        ``np.memmap``; the CRC of the payload and the structural cursor are
        both verified, and any mismatch (magic, version, parameters, CRC,
        truncation, an inconsistent trajectory header) raises
        :class:`~repro.errors.SimulationError`.
        """
        tables = cls(
            platform,
            occupancy_model=occupancy_model,
            bandwidth_model=bandwidth_model,
            max_entries=max_entries,
        )
        try:
            with open(path, "rb") as handle:
                magic = handle.read(8)
                if magic != cls._MAGIC:
                    raise SimulationError(
                        f"{path!r} is not an evaluation-tables file "
                        f"(bad magic {magic!r})"
                    )
                (header_length,) = struct.unpack("<Q", handle.read(8))
                header_bytes = handle.read(header_length)
                if len(header_bytes) != header_length:
                    raise SimulationError(f"truncated evaluation-tables header in {path!r}")
                header = json.loads(header_bytes.decode("utf-8"))
        except OSError as exc:
            raise SimulationError(f"cannot read evaluation tables {path!r}: {exc}")
        except (struct.error, ValueError) as exc:
            raise SimulationError(f"corrupt evaluation-tables header in {path!r}: {exc}")
        if header.get("format_version") != cls._FORMAT_VERSION:
            raise SimulationError(
                f"unsupported evaluation-tables format version "
                f"{header.get('format_version')!r} in {path!r}"
            )
        if header.get("params_sha256") != tables._params_digest():
            raise SimulationError(
                f"evaluation tables {path!r} were built for different platform "
                "or model parameters"
            )
        count = int(header["payload_count"])
        payload_offset = 16 + header_length
        payload_offset += (-payload_offset) % cls._PAYLOAD_ALIGN
        if count:
            try:
                payload = np.memmap(
                    path,
                    dtype=np.float64,
                    mode="r",
                    offset=payload_offset,
                    shape=(count,),
                )
            except (OSError, ValueError) as exc:
                raise SimulationError(
                    f"cannot map evaluation-tables payload of {path!r}: {exc}"
                )
        else:
            payload = np.empty(0, dtype=np.float64)
        # One sequential read of the mapped payload serves both the CRC and
        # the reconstruction below; slicing the memmap itself would fault
        # pages element by element through the dict/tuple comprehensions.
        raw = payload.tobytes()
        if (zlib.crc32(raw) & 0xFFFFFFFF) != header["payload_crc32"]:
            raise SimulationError(f"evaluation-tables payload CRC mismatch in {path!r}")
        data = np.frombuffer(raw, dtype=np.float64)

        cursor = 0

        def take(n: int) -> np.ndarray:
            nonlocal cursor
            if cursor + n > count:
                raise SimulationError(
                    f"evaluation-tables payload of {path!r} is shorter than "
                    "its header describes"
                )
            chunk = data[cursor : cursor + n]
            cursor += n
            return chunk

        for token, meta in enumerate(header["tokens"]):
            n_ways = int(meta["n_ways"])
            ipc = np.array(take(n_ways))
            llcmpkc = np.array(take(n_ways))
            bytes_per_miss = float(take(1)[0])
            fingerprint = (ipc.tobytes(), llcmpkc.tobytes(), bytes_per_miss)
            tables._token_by_value[fingerprint] = token
            tables._views[token] = FastProfileView.from_arrays(
                ipc.tolist(), llcmpkc.tolist(), bytes_per_miss
            )

        for index, meta in enumerate(header["trajectories"]):
            key, length, fixed_at = cls._trajectory_header(meta, index, path)
            members = len(key)
            eff = take(length * members).tolist()
            # Stored pressures (rows 1..length-1) are derived again on replay.
            take((length - 1) * members)
            deltas = take(length).tolist()
            if fixed_at and deltas[fixed_at] != 0.0:
                raise SimulationError(
                    f"trajectory {index} {[list(pair) for pair in key]!r} in {path!r} "
                    f"is frozen at iteration {fixed_at}, whose delta "
                    f"{deltas[fixed_at]!r} is not 0.0"
                )
            try:
                views = [tables._views[token] for token, _ in key]
            except KeyError as exc:
                raise SimulationError(
                    f"trajectory in {path!r} references unknown profile token "
                    f"{exc.args[0]!r}"
                )
            tables.occupancy_cache.restore_entry(key, views, eff, deltas, fixed_at)

        for meta in header["estimates"]:
            apps = [str(app) for app in meta["apps"]]
            n = len(apps)
            slowdown_row = take(n).tolist()
            ipc_row = take(n).tolist()
            effective_row = take(n).tolist()
            pressure_row = take(n).tolist()
            demand_row = take(n).tolist()
            factor_row = take(n).tolist()
            bandwidth_scalars = take(2).tolist()
            # The four saved metric scalars are compute_metrics of the
            # slowdown row; ClusterEstimate.metrics recomputes them on use.
            take(4)
            allocation = WayAllocation(
                masks={app: int(mask) for app, mask in zip(apps, meta["masks"])},
                total_ways=int(meta["total_ways"]),
            )
            slowdowns = {app: float(v) for app, v in zip(apps, slowdown_row)}
            occupancy = OccupancyResult(
                effective_ways={app: float(v) for app, v in zip(apps, effective_row)},
                pressures={app: float(v) for app, v in zip(apps, pressure_row)},
                iterations=int(meta["iterations"]),
                converged=bool(meta["converged"]),
            )
            bandwidth = BandwidthResult(
                demand_gbs={app: float(v) for app, v in zip(apps, demand_row)},
                total_demand_gbs=float(bandwidth_scalars[0]),
                peak_gbs=float(bandwidth_scalars[1]),
                slowdown_factors={app: float(v) for app, v in zip(apps, factor_row)},
            )
            tokens = tuple(int(token) for token in meta["tokens"])
            # The saved demand row stays authoritative; the miss rates and
            # stall fractions are derived from the restored views.
            views = {app: tables.view_for_token(token) for app, token in zip(apps, tokens)}
            llcmpkc, _, stall_fractions = read_demand(
                occupancy.effective_ways, views, platform
            )
            estimate = ClusterEstimate(
                allocation=allocation,
                slowdowns=slowdowns,
                ipcs={app: float(v) for app, v in zip(apps, ipc_row)},
                effective_ways=occupancy.effective_ways,
                bandwidth=bandwidth,
                occupancy=occupancy,
                llcmpkc=llcmpkc,
                stall_fractions=stall_fractions,
            )
            key = ((tuple(allocation.masks.items()), allocation.total_ways), tokens)
            tables._estimates[key] = estimate
            if max_entries is not None and len(tables._estimates) > max_entries:
                tables._estimates.popitem(last=False)

        if cursor != count:
            raise SimulationError(
                f"evaluation-tables payload of {path!r} is longer than its "
                "header describes"
            )
        return tables

    # -- evaluation --------------------------------------------------------------

    def evaluate(
        self,
        allocation: WayAllocation,
        profiles: Mapping[str, AppProfile],
        alloc_token: Optional[tuple] = None,
    ) -> ClusterEstimate:
        """Cached, bit-identical equivalent of
        :meth:`ClusteringEstimator.evaluate_allocation`."""
        for app in allocation.apps():
            if app not in profiles:
                raise SimulationError(f"no profile registered for application {app!r}")
        apps = allocation.apps()
        tokens = tuple(self.token_for(profiles[app]) for app in apps)
        if alloc_token is None:
            alloc_token = allocation_token(allocation)
        return self._lookup(allocation, apps, tokens, alloc_token)

    def evaluate_tokens(
        self,
        allocation: WayAllocation,
        tokens: Mapping[str, int],
        alloc_token: Optional[tuple] = None,
    ) -> ClusterEstimate:
        """:meth:`evaluate` from pre-interned profile tokens.

        ``tokens`` maps every application in the allocation to a token
        previously produced by :meth:`token_for` (e.g. through
        :meth:`ProfileSnapshot.tokenize`).  No profile objects are touched:
        the caller re-registers nothing per evaluation, so a phase change of
        one application costs exactly one changed token in the key — the
        per-application dirty-estimate delta the runtime engine is built
        on.  Shares the estimate cache (and the
        bit-identical results) with :meth:`evaluate`.
        """
        apps = allocation.apps()
        try:
            token_tuple = tuple(tokens[app] for app in apps)
        except KeyError as exc:
            raise SimulationError(f"no profile token for application {exc.args[0]!r}")
        for token in token_tuple:
            if token not in self._views:
                raise SimulationError(f"unknown profile token {token!r}")
        if alloc_token is None:
            alloc_token = allocation_token(allocation)
        return self._lookup(allocation, apps, token_tuple, alloc_token)

    def _lookup(
        self,
        allocation: WayAllocation,
        apps: Sequence[str],
        tokens: Tuple[int, ...],
        alloc_token: tuple,
    ) -> ClusterEstimate:
        key = (alloc_token, tokens)
        estimate = self._estimates.get(key)
        if estimate is None:
            estimate = self._compute(allocation, apps, tokens, alloc_token)
            self._estimates[key] = estimate
            if self.max_entries is not None and len(self._estimates) > self.max_entries:
                self._estimates.popitem(last=False)
        elif self.max_entries is not None:
            self._estimates.move_to_end(key)
        return estimate

    def _compute(
        self,
        allocation: WayAllocation,
        apps: Sequence[str],
        tokens: Tuple[int, ...],
        alloc_token: tuple,
    ) -> ClusterEstimate:
        """The occupancy from the trajectory cache, then :func:`_estimate`
        over the token views: one LLCMPKC read per member, whose miss rate
        and stall fraction the estimate keeps for the runtime engine."""
        token_map = dict(zip(apps, tokens))
        views = {app: self._views[token_map[app]] for app in apps}
        occupancy = self.occupancy_cache.solve(
            allocation, token_map, views, alloc_token=alloc_token
        )
        return _estimate(allocation, occupancy, views, self.platform, self.bandwidth_model)


class ClusteringEstimator:
    """Predict slowdowns and workload metrics for arbitrary way allocations."""

    def __init__(
        self,
        platform: PlatformSpec,
        profiles: Mapping[str, AppProfile],
        *,
        occupancy_model: Optional[OccupancyModel] = None,
        bandwidth_model: Optional[BandwidthModel] = None,
    ) -> None:
        """Every evaluation runs the dict-based models cold.  Repeated
        evaluations over the same profiles belong in
        :class:`EvaluationTables`, whose results are bit-identical.
        """
        if not profiles:
            raise SimulationError("the estimator needs at least one application profile")
        self.platform = platform
        self.profiles: Dict[str, AppProfile] = dict(profiles)
        self.occupancy_model = occupancy_model or OccupancyModel()
        self.bandwidth_model = bandwidth_model or BandwidthModel()

    # -- profile management ----------------------------------------------------

    def add_profile(self, name: str, profile: AppProfile) -> None:
        """Register (or replace) the profile driving an application instance."""
        self.profiles[name] = profile

    def apps(self) -> Sequence[str]:
        return list(self.profiles)

    # -- evaluation --------------------------------------------------------------

    def evaluate_allocation(self, allocation: WayAllocation) -> ClusterEstimate:
        """Evaluate an explicit (possibly overlapping) per-application allocation.

        An application with no profile raises :class:`SimulationError` from
        :meth:`OccupancyModel.solve`, before any other work."""
        occupancy = self.occupancy_model.solve(allocation, self.profiles)
        return _estimate(
            allocation, occupancy, self.profiles, self.platform, self.bandwidth_model
        )

    def evaluate(self, solution: ClusteringSolution) -> ClusterEstimate:
        """Evaluate a (non-overlapping) clustering solution."""
        missing = [app for app in solution.apps() if app not in self.profiles]
        if missing:
            raise SimulationError(f"no profile registered for applications {missing}")
        return self.evaluate_allocation(solution.to_allocation())

    def evaluate_unpartitioned(self, apps: Optional[Iterable[str]] = None) -> ClusterEstimate:
        """Evaluate the stock-Linux configuration: everybody shares the LLC."""
        names = list(apps) if apps is not None else list(self.profiles)
        if not names:
            raise SimulationError("cannot evaluate an empty workload")
        solution = ClusteringSolution.single_cluster(names, self.platform.llc_ways)
        return self.evaluate(solution)

    # -- convenience -------------------------------------------------------------

    def slowdown_tables(self, apps: Optional[Iterable[str]] = None) -> Dict[str, list]:
        """Per-application alone-run slowdown tables over 1..llc_ways ways.

        This is the offline-profile input LFOC's lookahead step consumes in
        the static study (the dynamic runtime builds them online instead).
        """
        names = list(apps) if apps is not None else list(self.profiles)
        tables: Dict[str, list] = {}
        for app in names:
            profile = self.profiles[app]
            resampled = profile.resampled(self.platform.llc_ways)
            tables[app] = list(resampled.slowdown_table())
        return tables
