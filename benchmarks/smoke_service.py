#!/usr/bin/env python3
"""CI smoke: the online partitioning service, clean, at scale and under chaos.

Four drills, each pinned against the socket-free offline replay oracle on
the same seeded trace:

* **clean** (default host count only) — two supervised daemon sessions
  (real subprocess agents over real sockets): the live mask-decision log
  must be bit-identical per host to the golden offline replay, with zero
  frame errors;
* **chaos** (default host count only) — the first incarnation of one agent
  dies mid-trace under a scripted ``FaultPlan``; the supervisor respawns
  it, the session advances to a new epoch, no frame error leaks, and the
  final masks of every host converge to the golden run's;
* **scale** (``--hosts N``) — N hosts' sample batches drain through the
  fused :class:`MonitorBank` ingest: every gathered drain costs exactly
  ONE ``observe_batch`` call, and the batched decisions are bit-identical
  to the per-``AppMonitor`` parity oracle (``tests/oracles.py``) handling
  the same frames one by one;
* **restore** — a daemon is hard-killed mid-session by a scripted
  ``daemon_kill_decisions`` fault (no parting snapshot); a second daemon
  restores from the latest periodic snapshot on the same port and the
  surviving agent resumes its boot: zero frame errors, and the merged
  replay log is byte-identical to an unkilled run's.

Usage:  PYTHONPATH=src python benchmarks/smoke_service.py [--hosts N]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

from repro.experiments import ServiceSpec  # noqa: E402
from repro.service import (  # noqa: E402
    HostAgent,
    PartitionDaemon,
    ReplayLog,
    ServiceCore,
    SimulatedHost,
    churn_schedule,
    host_seed,
    offline_replay,
)
from repro.service import protocol  # noqa: E402
from repro.service.agent import drive_host  # noqa: E402
from oracles import ReferenceServiceCore, reference_offline_replay  # noqa: E402

WORKLOAD = "S1"
BATCHES = 24
SEED = 3
SUPERVISED_HOSTS = ["host0", "host1"]


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {message}")


def serve(log_path: str, *, agent_chaos=None) -> dict:
    spec = ServiceSpec(
        supervise=len(SUPERVISED_HOSTS),
        workload=WORKLOAD,
        batches=BATCHES,
        seed=SEED,
        agent_chaos=agent_chaos,
        replay_log=log_path,
    )
    return spec.run(max_seconds=300)


class _ScaleHost:
    """One host's frame stream for the gathered-drain scale drill."""

    def __init__(self, host_id: str, batches: int, seed: int) -> None:
        self.host_id = host_id
        self.sim = SimulatedHost(WORKLOAD, seed=host_seed(seed, host_id))
        self.events: dict = {}
        for b, op, app in churn_schedule(
            self.sim.apps, batches, host_seed(seed, host_id)
        ):
            self.events.setdefault(b, []).append((op, app))
        self.live = list(self.sim.apps)
        self.pending: list = []
        self.seq = 0

    def frame(self, kind, payload):
        self.seq += 1
        return (self.host_id, kind, {**payload, "seq": self.seq})

    def churn_frames(self, batch: int):
        out = []
        for op, app in self.events.get(batch, ()):
            if op == "depart":
                if app in self.live:
                    self.live.remove(app)
                out.append(self.frame(*protocol.app_depart(0, app)))
            else:
                if app not in self.live:
                    self.live.append(app)
                out.append(self.frame(*protocol.app_arrive(0, app)))
        return out

    def samples_frame(self, batch: int):
        samples = [self.sim.sample(app, batch) for app in self.live]
        classify = list(self.pending)
        self.pending.clear()
        return self.frame(*protocol.monitor_samples(0, samples, classify))

    def apply(self, reply) -> None:
        kind, payload = reply
        assert kind == "mask_update", reply
        if payload["masks"] is not None:
            self.sim.apply_masks(payload["masks"])
        for app in payload["sample"]:
            self.pending.append(self.sim.classify(app))


def drive_scale(core: ServiceCore, host_ids, *, fused: bool):
    """Drive every host against ``core`` batch-lockstep.  With ``fused``
    each batch's sample frames go through ONE ``handle_drain`` call (the
    daemon's gathered event loop); otherwise the exact same global frame
    order is handled one frame at a time.  Returns per-batch
    ``observe_batch`` call deltas (fused cores only)."""
    hosts = [_ScaleHost(h, BATCHES, SEED) for h in host_ids]
    for h in hosts:
        core.handle_hello(protocol.host_hello(h.host_id, 1, 0)[1])
        for app in h.live:
            h.apply(core.handle(*h.frame(*protocol.app_arrive(0, app))))
    deltas = []
    for batch in range(BATCHES):
        for h in hosts:
            for item in h.churn_frames(batch):
                h.apply(core.handle(*item))
        items = [h.samples_frame(batch) for h in hosts]
        before = core.ingest.observe_batch_calls
        if fused:
            results = core.handle_drain(items)
        else:
            results = [core.handle(*item) for item in items]
        for h, result in zip(hosts, results):
            assert not isinstance(result, Exception), result
            h.apply(result)
        deltas.append(core.ingest.observe_batch_calls - before)
    for h in hosts:
        core.handle(*h.frame(*protocol.host_bye(0)))
    return deltas


def scale_drill(n_hosts: int) -> None:
    host_ids = [f"host{i}" for i in range(n_hosts)]

    bank = offline_replay(host_ids, WORKLOAD, batches=BATCHES, seed=SEED)
    reference = reference_offline_replay(
        host_ids, WORKLOAD, batches=BATCHES, seed=SEED
    )
    check(
        len(bank) > 0 and bank.signature() == reference.signature(),
        f"offline replay: bank ingest bit-identical to the per-AppMonitor "
        f"oracle across {n_hosts} hosts ({len(bank)} decisions)",
    )

    fused_core = ServiceCore()
    deltas = drive_scale(fused_core, host_ids, fused=True)
    sequential_core = ReferenceServiceCore()
    drive_scale(sequential_core, host_ids, fused=False)
    check(
        max(deltas) == 1 and min(deltas) == 1,
        f"every {n_hosts}-host drain cost exactly one fused observe_batch "
        f"call ({fused_core.ingest.observe_batch_calls} calls, "
        f"{fused_core.ingest.samples_ingested} samples)",
    )
    check(
        fused_core.replay.signature() == sequential_core.replay.signature(),
        f"batched decisions bit-identical to the sequential per-app "
        f"reference ({len(fused_core.replay)} decisions)",
    )
    check(
        set(fused_core.completed_hosts()) == set(host_ids),
        f"all {n_hosts} hosts completed through the gathered drain path",
    )


def restore_drill(tmp: str) -> None:
    golden = offline_replay(["host0"], WORKLOAD, batches=BATCHES, seed=SEED)
    golden_path = Path(tmp) / "restore-golden.jsonl"
    golden.save(str(golden_path))
    snap = str(Path(tmp) / "daemon.snapshot")
    kill_after = len(golden) // 2

    daemon_a = PartitionDaemon(
        ("127.0.0.1", 0),
        snapshot=snap,
        # an (effectively) every-pump cadence makes the pre-kill snapshot
        # deterministic: the run is short and each decision is its own pump
        snapshot_every_s=1e-9,
        agent_chaos={"daemon_kill_decisions": [kill_after]},
    )
    port = daemon_a.address[1]
    errors: list = []

    def one_agent() -> None:
        try:
            host = SimulatedHost(WORKLOAD, seed=host_seed(SEED, "host0"))
            churn = churn_schedule(host.apps, BATCHES, host_seed(SEED, "host0"))
            agent = HostAgent(
                ("127.0.0.1", port), "host0",
                connect_attempts=400, connect_delay_s=0.05,
            )
            drive_host(host, agent, batches=BATCHES, churn=churn)
        except BaseException as exc:  # surfaced via `errors`
            errors.append(exc)

    thread = threading.Thread(target=one_agent, daemon=True)
    thread.start()
    daemon_a.run(until_byes=1, max_seconds=300)
    check(daemon_a.killed, f"fault plan hard-killed the daemon after "
                           f"decision {kill_after} (no parting snapshot)")
    daemon_a.close()

    daemon_b = PartitionDaemon(("127.0.0.1", port), snapshot=snap,
                               snapshot_every_s=1e-9)
    check(daemon_b.restored, "second daemon restored from the periodic snapshot")
    daemon_b.run(until_byes=1, max_seconds=300)
    thread.join(timeout=120)
    check(not errors, f"agent survived the daemon restart ({errors!r})")
    check(daemon_b.frame_errors == 0,
          "mid-run restore converged with zero frame errors")
    live_path = Path(tmp) / "restore-live.jsonl"
    daemon_b.replay.save(str(live_path))
    daemon_b.close()
    check(
        live_path.read_bytes() == golden_path.read_bytes(),
        "merged replay log byte-identical to the unkilled run's",
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hosts", type=int, default=len(SUPERVISED_HOSTS),
                        help="host count for the scale drill (default 2; the "
                             "supervised subprocess drills only run at 2)")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        if args.hosts == len(SUPERVISED_HOSTS):
            golden = offline_replay(SUPERVISED_HOSTS, WORKLOAD,
                                    batches=BATCHES, seed=SEED)
            check(len(golden) > 0,
                  f"offline oracle produced {len(golden)} mask decisions")

            clean_log = str(Path(tmp) / "clean.jsonl")
            summary = serve(clean_log)
            check(summary["frame_errors"] == 0, "clean run leaked no frame errors")
            live = ReplayLog.load(clean_log)
            for host in SUPERVISED_HOSTS:
                check(
                    live.signature(host) == golden.signature(host),
                    f"live {host} decision log bit-identical to the offline "
                    f"oracle ({len(live.for_host(host))} decisions)",
                )

            chaos_log = str(Path(tmp) / "chaos.jsonl")
            summary = serve(chaos_log, agent_chaos={"agent_kill_batches": [3]})
            check(
                summary["supervisor"]["restarts"] >= 1,
                f"supervisor respawned the killed agent "
                f"(restarts={summary['supervisor']['restarts']})",
            )
            check(
                summary["frame_errors"] == 0,
                "scripted kill surfaced as a clean EOF, not a frame error",
            )
            check(
                summary["sessions"]["host0"]["epoch"] >= 2,
                f"killed host re-registered under a new epoch "
                f"(epoch={summary['sessions']['host0']['epoch']})",
            )
            survived = ReplayLog.load(chaos_log)
            for host in SUPERVISED_HOSTS:
                check(
                    survived.final_masks(host) == golden.final_masks(host),
                    f"{host} final masks converged to the golden run's",
                )

        scale_drill(args.hosts)
        restore_drill(tmp)

    print("service smoke OK")


if __name__ == "__main__":
    main()
