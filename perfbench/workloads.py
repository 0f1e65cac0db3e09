"""Seeded inputs, timed jobs and output checks of the benchmark workloads.

Each workload turns ``--seed`` into inputs (:meth:`setup`), runs one job on
them (:meth:`job`, timed by the caller) and checks the outputs
(:meth:`check`).  Jobs drive only public entry points: ``run_study`` with a
``StudySpec`` for the three study workloads; ``ServiceCore``, the wire codec
(``pack_frame``/``FrameReader``) and ``check_frame`` for the service.  No
engine, solver or monitor backend is named, so each layer runs its default.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments import (
    EngineSpec,
    ExecutorSpec,
    PolicySpec,
    ScenarioSpec,
    ServiceSpec,
    StudySpec,
    WorkloadSpec,
    run_study,
)
from repro.runtime.executors import framing
from repro.service import (
    ServiceCore,
    SimulatedHost,
    churn_schedule,
    host_seed,
    offline_replay,
)
from repro.service import protocol, snapshot
from repro.workloads.generator import random_workload

__all__ = ["JobResult", "build_workloads", "mix_seed", "rows_digest"]

#: Fig. 7 shape: P and S mixes at each size, this many mixes per (size, kind).
FIG7_SIZES = (8, 12, 16)
FIG7_MIXES = 4
#: Fig. 6 shape: S mixes Best-Static solves exactly (6 apps) and by local
#: search (12 apps), with this many mixes of each size per study.  Each
#: repetition draws its own mixes: a 12-app mix's local-search cost varies
#: by about a quarter from mix to mix, so one fixed set of mixes would make
#: the job's time follow the seed.
FIG6_MIXES = ((6, 8), (12, 4))
#: Mix size Best-Static solves exactly, so no policy may be fairer on it by
#: more than this share: the occupancy fixed point converges to 1e-4, and
#: two policies that pick near-identical clusterings differ by about 1e-6.
FIG6_EXACT_SIZE = 6
FIG6_EXACT_SLACK = 1e-3
#: Service session: closed-loop hosts and their mix sizes.  Batches per host
#: and the snapshot period are the daemon's defaults.
SERVICE_HOSTS = 64
SERVICE_APP_COUNTS = (4, 6, 8)
SERVICE_BATCHES = ServiceSpec().batches
SNAPSHOT_EVERY_S = ServiceSpec().snapshot_every_s


def mix_seed(seed: int, *parts: Any) -> int:
    """Stable per-mix seed derived from the run seed (crc32, not ``hash``)."""
    token = ":".join(str(p) for p in (seed, *parts)).encode("utf-8")
    return zlib.crc32(token) & 0x7FFFFFFF


def _hexed(value: Any) -> Any:
    return value.hex() if isinstance(value, float) else value


def rows_digest(rows: Sequence[Dict[str, Any]]) -> str:
    """Digest of study rows with every float written as an exact hex float."""
    digest = hashlib.sha256()
    for row in rows:
        canonical = {key: _hexed(value) for key, value in sorted(row.items())}
        digest.update(json.dumps(canonical, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:32]


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class JobResult:
    """One timed repetition of a workload's job."""

    job_s: float
    attempted: int
    failed: int
    digest: str
    #: Workload-specific figures for the report (issue metric names).
    figures: Dict[str, float] = field(default_factory=dict)
    #: Per-layer figures the job reads off its own outputs.
    layer_figures: Dict[str, float] = field(default_factory=dict)
    #: Per-drain latencies in seconds (service only).
    drains: List[float] = field(default_factory=list)
    #: Failed checks of this job's own outputs.
    problems: List[str] = field(default_factory=list)
    detail: Any = None


# ---------------------------------------------------------------------------
# Study workloads
# ---------------------------------------------------------------------------


def fig7_spec(seed: int, sizes: Sequence[int] = FIG7_SIZES, executor: Any = "serial"):
    workloads = tuple(
        WorkloadSpec(
            source="random",
            size=size,
            kind=kind,
            seed=mix_seed(seed, "fig7", size, kind, i),
            name=f"{kind}{size}-{i}",
        )
        for size in sizes
        for kind in ("P", "S")
        for i in range(FIG7_MIXES)
    )
    scenario = ScenarioSpec(
        name="fig7",
        kind="dynamic",
        workloads=workloads,
        policies=(PolicySpec("dunn"), PolicySpec("lfoc")),
        engine=EngineSpec(
            instructions_per_run=1.0e9, min_completions=2, record_traces=False
        ),
    )
    return StudySpec(name="fig7-dynamic", scenarios=(scenario,), executor=executor)


def fig6_spec(seed: int, rep: int = 0):
    """Repetition ``rep``'s study; every repetition has its own mixes."""
    workloads = tuple(
        WorkloadSpec(
            source="random",
            size=size,
            kind="S",
            seed=mix_seed(seed, "fig6", rep, size, i),
            name=f"S{size}-{i}",
        )
        for size, count in FIG6_MIXES
        for i in range(count)
    )
    scenario = ScenarioSpec(
        name="fig6",
        kind="static",
        workloads=workloads,
        policies=tuple(
            PolicySpec(name) for name in ("lfoc", "dunn", "kpart", "best_static")
        ),
    )
    return StudySpec(name="fig6-static", scenarios=(scenario,), executor="serial")


def tcp_spec(seed: int):
    """The 8-app slice of ``fig7_dynamic`` over two supervised TCP workers."""
    return fig7_spec(
        seed, sizes=(8,), executor=ExecutorSpec(name="supervised", workers=2)
    )


class StudyWorkload:
    """One ``run_study`` call per job; ``job_s`` is its wall time.

    The mixes are ``source="random"`` specs that ``run_study`` draws itself,
    so set-up holds only the spec and the timed call includes generation.
    With ``per_repetition``, ``build(seed, rep)`` gives each repetition its
    own spec, built before the timer starts.
    """

    def __init__(
        self, name: str, build, why: str, reference=None, per_repetition=False
    ) -> None:
        self.name = name
        self.build = build
        self.why = why
        #: Builds the serial spec whose rows this workload's rows must equal.
        self.reference = reference
        self.per_repetition = per_repetition

    def setup(self, seed: int):
        return {"seed": seed, "spec": self.build(seed)}

    def job(self, inputs, tracer=None, rep: int = 0) -> JobResult:
        spec = self.build(inputs["seed"], rep) if self.per_repetition else inputs["spec"]
        start = time.perf_counter()
        if tracer is None:
            result = run_study(spec)
        else:
            with tracer.span("study.run", "study"):
                result = run_study(spec)
        elapsed = time.perf_counter() - start
        rows = result.rows()
        failures = len(result.failures())
        figures = {"study_s": elapsed}
        figures.update(_sim_figures(rows))
        repartitions = sum(
            row["repartitions"]
            for row in rows
            if row["policy"] in ("LFOC", "Dunn") and "repartitions" in row
        )
        return JobResult(
            job_s=elapsed,
            attempted=len(rows) + failures,
            failed=failures,
            digest=rows_digest(rows),
            figures=figures,
            layer_figures={"driver.repartitions": float(repartitions)},
            problems=_row_problems(spec, rows),
            detail=rows,
        )

    def check(self, inputs, first: JobResult) -> List[str]:
        """Checks the untimed first job against the serial oracle."""
        problems = []
        if self.reference is not None:
            serial = run_study(self.reference(inputs["seed"]))
            if rows_digest(serial.rows()) != first.digest:
                problems.append("rows differ from the serial executor's rows")
        return problems


def _row_problems(spec, rows: Sequence[Dict[str, Any]]) -> List[str]:
    """One row per workload and policy, finite positive metrics, and
    Best-Static no less fair than any policy on the mixes it solves exactly."""
    problems = []
    expected = sum(
        len(w.resolve()) * (1 + len(s.policies))
        for s in spec.scenarios
        for w in s.workloads
    )
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    fairest: Dict[Any, float] = {}
    for row in rows:
        for key in ("unfairness", "stp", "normalized_unfairness", "normalized_stp"):
            value = row[key]
            if not (isinstance(value, float) and math.isfinite(value) and value > 0):
                problems.append(f"row {row['workload']}/{row['policy']} {key}={value!r}")
        if row["size"] == FIG6_EXACT_SIZE and row["policy"] != "Best-Static":
            key = (row["scenario_id"], row["workload"])
            fairest[key] = min(fairest.get(key, math.inf), row["unfairness"])
    for row in rows:
        key = (row["scenario_id"], row["workload"])
        if row["policy"] == "Best-Static" and key in fairest:
            if row["unfairness"] > fairest[key] * (1 + FIG6_EXACT_SLACK):
                problems.append(
                    f"Best-Static is less fair than another policy on {row['workload']}"
                )
    return problems


def _sim_figures(rows: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    figures: Dict[str, float] = {}
    for label, prefix in (("LFOC", "lfoc"), ("Best-Static", "best_static")):
        picked = [row for row in rows if row["policy"] == label]
        if not picked:
            continue
        figures[f"{prefix}_unfairness"] = _geomean(
            [row["normalized_unfairness"] for row in picked]
        )
        if prefix == "lfoc":
            figures["lfoc_stp"] = _geomean([row["normalized_stp"] for row in picked])
    return figures


# ---------------------------------------------------------------------------
# Service workload
# ---------------------------------------------------------------------------


class _Client:
    """One simulated host's agent side: a lockstep script of wire frames.

    Frames, sequence numbers, churn and classification sweeps follow
    ``repro.service.agent.drive_host`` step for step, so the decision log
    must equal ``offline_replay`` for the same host and seed.
    """

    def __init__(self, host_id: str, workload, seed: int, batches: int) -> None:
        self.host_id = host_id
        per_host = host_seed(seed, host_id)
        self.sim = SimulatedHost(workload, seed=per_host)
        self.churn = churn_schedule(self.sim.apps, batches, per_host)
        self.batches = batches
        self.reader = framing.FrameReader()
        self.pending: List[Dict[str, Any]] = []
        self._script = self._frames()

    def hello(self) -> bytes:
        return framing.pack_frame(protocol.host_hello(self.host_id, 1, 0))

    def _frames(self):
        events: Dict[int, List[Tuple[str, str]]] = {}
        for batch, op, app in self.churn:
            events.setdefault(batch, []).append((op, app))
        live = list(self.sim.apps)
        seq = 0
        for app in list(live):
            seq += 1
            yield protocol.app_arrive(seq, app)
        for batch in range(self.batches):
            for op, app in events.get(batch, ()):
                seq += 1
                if op == "depart":
                    if app in live:
                        live.remove(app)
                    yield protocol.app_depart(seq, app)
                else:
                    if app not in live:
                        live.append(app)
                    yield protocol.app_arrive(seq, app)
            samples = [self.sim.sample(app, batch) for app in live]
            classify = list(self.pending)
            self.pending.clear()
            seq += 1
            yield protocol.monitor_samples(seq, samples, classify)
        seq += 1
        yield protocol.host_bye(seq)

    def next_frame(self) -> Optional[bytes]:
        frame = next(self._script, None)
        return None if frame is None else framing.pack_frame(frame)

    def receive(self, data: bytes) -> None:
        for reply in self.reader.feed(data):
            kind, payload = protocol.check_frame(reply)
            if kind == "hello_ack":
                continue
            if kind != "mask_update":
                raise protocol.ServiceProtocolError(f"unexpected reply {kind!r}")
            if payload["masks"] is not None:
                self.sim.apply_masks(payload["masks"])
            for app in payload["sample"]:
                self.pending.append(self.sim.classify(app))


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile of ``values``."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


class ServiceWorkload:
    """A closed-loop LFOC service session of ``SERVICE_HOSTS`` simulated hosts.

    Every host keeps one frame in flight: it sends its next frame only
    after the reply to the previous one.  Each round, every host's frame is
    framed by ``pack_frame``, fed through the server side's per-host
    ``FrameReader`` and checked by ``check_frame``, and the round goes to
    ``ServiceCore.handle_drain`` as one drain, as the daemon's pump does;
    replies are framed back, and snapshots follow the daemon's rule.
    ``job_s`` is the summed server time: decode, check, drain, reply
    encode and snapshots.
    """

    #: Every repetition replays the same session.
    per_repetition = False

    def __init__(self, name: str, why: str, work_dir: str) -> None:
        self.name = name
        self.why = why
        self.work_dir = work_dir

    def host_workloads(self, seed: int):
        hosts = []
        for i in range(SERVICE_HOSTS):
            size = SERVICE_APP_COUNTS[i % len(SERVICE_APP_COUNTS)]
            kind = "SP"[i % 2]
            workload = random_workload(
                f"h{i}", size, kind=kind, seed=mix_seed(seed, "service", i)
            )
            hosts.append((f"host{i}", workload))
        return hosts

    def setup(self, seed: int):
        hosts = self.host_workloads(seed)
        clients = [_Client(h, w, seed, SERVICE_BATCHES) for h, w in hosts]
        return {"seed": seed, "hosts": hosts, "clients": clients}

    def _fresh_clients(self, inputs) -> List[_Client]:
        clients = inputs.pop("clients", None)
        if clients is None:
            clients = [
                _Client(h, w, inputs["seed"], SERVICE_BATCHES)
                for h, w in inputs["hosts"]
            ]
        return clients

    def job(self, inputs, tracer=None, rep: int = 0) -> JobResult:
        os.makedirs(self.work_dir, exist_ok=True)
        snapshot_path = os.path.join(self.work_dir, "service.snapshot")
        clients = self._fresh_clients(inputs)
        core = ServiceCore()
        readers = {c.host_id: framing.FrameReader() for c in clients}
        loadgen = _Clock(tracer, "loadgen")
        server = _Clock()
        failed = 0
        frames = 0

        with loadgen:
            hellos = [(c, c.hello()) for c in clients]
        with server:
            replies = []
            for client, data in hellos:
                for frame in readers[client.host_id].feed(data):
                    _kind, payload = protocol.check_frame(frame)
                    replies.append(
                        (client, framing.pack_frame(core.handle_hello(payload)))
                    )
        with loadgen:
            for client, data in replies:
                client.receive(data)

        drains: List[float] = []
        snapshots = 0
        # The daemon's snapshot rule: one every SNAPSHOT_EVERY_S of wall time
        # at a drain boundary, and one at orderly shutdown.
        snapshot_due = time.perf_counter() + SNAPSHOT_EVERY_S
        active = clients
        while active:
            with loadgen:
                outbound = [(c, c.next_frame()) for c in active]
                outbound = [(c, data) for c, data in outbound if data is not None]
            if not outbound:
                break
            with server:
                items = []
                owners = []
                for client, data in outbound:
                    for frame in readers[client.host_id].feed(data):
                        kind, payload = protocol.check_frame(frame)
                        items.append((client.host_id, kind, payload))
                        owners.append(client)
                results = core.handle_drain(items)
                replies = []
                for client, result in zip(owners, results):
                    if isinstance(result, Exception):
                        failed += 1
                        continue
                    replies.append((client, framing.pack_frame(result)))
            drains.append(server.last)
            frames += len(items)
            if time.perf_counter() >= snapshot_due:
                with server:
                    snapshot.save_snapshot(core, snapshot_path)
                snapshots += 1
                snapshot_due = time.perf_counter() + SNAPSHOT_EVERY_S
            with loadgen:
                for client, data in replies:
                    client.receive(data)
            active = [c for c, _ in outbound]
        with server:
            snapshot.save_snapshot(core, snapshot_path)
        snapshots += 1

        signatures = {c.host_id: core.replay.signature(c.host_id) for c in clients}
        metrics = core.metrics()
        hosts = metrics["hosts"].values()
        return JobResult(
            job_s=server.seconds,
            attempted=frames,
            failed=failed,
            digest=_signature_digest(signatures),
            figures={
                "server_s": server.seconds,
                "frames_per_s": frames / server.seconds,
                "drains": float(len(drains)),
                "snapshots": float(snapshots),
            },
            layer_figures={
                "monitor.rows": float(metrics["totals"]["monitor_rows"]),
                "session.decisions_computed": float(
                    sum(h["decisions_computed"] for h in hosts)
                ),
                "session.decision_fast_hits": float(
                    sum(h["decision_fast_hits"] for h in hosts)
                ),
                "loadgen_s": loadgen.seconds,
            },
            drains=drains,
            detail=signatures,
        )

    def check(self, inputs, first: JobResult) -> List[str]:
        problems = []
        for host_id, workload in inputs["hosts"]:
            oracle = offline_replay(
                [host_id], workload, batches=SERVICE_BATCHES, seed=inputs["seed"]
            )
            if oracle.signature(host_id) != first.detail[host_id]:
                problems.append(f"{host_id} decisions differ from offline_replay")
        if not any(first.detail.values()):
            problems.append("the session made no mask decisions")
        return problems


def _signature_digest(signatures: Dict[str, List[tuple]]) -> str:
    digest = hashlib.sha256()
    for host in sorted(signatures):
        digest.update(repr(signatures[host]).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:32]


class _Clock:
    """Sums the wall time of the blocks it times.

    With a tracer, each block is also a span of ``layer`` (the load
    generator's, so calls made inside it are never charged to the server).
    """

    def __init__(self, tracer=None, layer: str = "") -> None:
        self.tracer = tracer
        self.layer = layer
        self.seconds = 0.0
        #: Wall time of the latest block.
        self.last = 0.0
        self._frame = None
        self._start = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self._frame = self.tracer.enter(self.layer, self.layer)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.last = time.perf_counter() - self._start
        self.seconds += self.last
        if self.tracer is not None:
            self.tracer.exit(self._frame)
        return False


def build_workloads(work_dir: str) -> Dict[str, Any]:
    """The benchmark's workloads by name; ``work_dir`` receives snapshots."""
    return {
        "fig7_dynamic": StudyWorkload(
            "fig7_dynamic",
            fig7_spec,
            "Fig. 7 dynamic study: engine loop, evaluation tables, occupancy "
            "trajectories, drivers, monitor ingest and the CAT model",
        ),
        "fig6_static": StudyWorkload(
            "fig6_static",
            fig6_spec,
            "Fig. 6 static study: Best-Static's solver, the policies and cold "
            "occupancy solves; no engine, driver or service",
            per_repetition=True,
        ),
        "service_drain": ServiceWorkload(
            "service_drain",
            "64-host closed-loop LFOC service: wire codec, schema checks, fused "
            "monitor ingest, decision cache, replay log and snapshots",
            work_dir,
        ),
        "study_tcp": StudyWorkload(
            "study_tcp",
            tcp_spec,
            "8-app fig7 slice on two supervised TCP workers: worker spawn, "
            "coordinator, safe codec and supervision",
            reference=lambda seed: fig7_spec(seed, sizes=(8,)),
        ),
    }
