"""Tests for the online partitioning service (``repro/service/``).

Four guarantees:

* **schema** — every frame off the wire passes :func:`check_frame` before
  touching session state, and flipping any single byte of a service frame
  stream is either detected or decodes to different-but-valid content —
  it never crashes the daemon (the corrupt-every-byte fuzz, mirroring the
  executor framing suite);
* **sessions** — sequenced frames are lockstep and idempotent: duplicates
  answer from the cached reply, gaps are protocol errors, and a departed
  application that re-arrives keeps its classification while its warm-up
  and rolling windows restart (the ``reset_for_restart`` regression);
* **determinism** — a live daemon serving real sockets produces a mask
  decision log bit-identical to :func:`offline_replay` on the same seeded
  trace, including tenant churn;
* **chaos** — scripted frame corruption and agent kills cost links and
  incarnations, never the daemon: sessions reconnect under fresh boots
  and the final masks converge to the clean run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
import zlib

import pytest

import oracles
from repro.core.classification import AppClass
from repro.errors import SimulationError
from repro.experiments import ServiceSpec, SpecError
from repro.runtime import MonitorConfig
from repro.runtime.executors.chaos import FaultPlan
from repro.runtime.executors.framing import (
    FrameProtocolError,
    FrameReader,
    pack_frame,
    recv_frame,
)
from repro.service import (
    HostAgent,
    HostSession,
    PartitionDaemon,
    ReplayLog,
    ServiceCore,
    ServiceProtocolError,
    SimulatedHost,
    churn_schedule,
    host_seed,
    load_snapshot,
    offline_replay,
    save_snapshot,
)
from repro.service import protocol
from repro.service.agent import LocalTransport, drive_host
from repro.service.protocol import check_frame, check_protocol
from repro.service.snapshot import SNAPSHOT_FORMAT

WORKLOAD = "S1"
BATCHES = 12
SEED = 3
HOSTS = ("hostA", "hostB")


def fuzz_messages():
    """Representative frames of every service kind, both directions."""
    return [
        protocol.host_hello("hostA", boot=7, pid=123),
        protocol.hello_ack(epoch=2, last_seq=5),
        protocol.app_arrive(1, "xalancbmk06-0"),
        protocol.app_depart(2, "lbm06-1"),
        protocol.monitor_samples(
            3,
            samples=[
                {
                    "app": "xalancbmk06-0",
                    "llcmpkc": 12.5,
                    "stall_fraction": 0.4,
                    "effective_ways": 11,
                }
            ],
            classify=[
                {
                    "app": "xalancbmk06-0",
                    "class": AppClass.SENSITIVE.value,
                    "slowdown_table": [1.8, 1.4, 1.1, 1.0],
                    "critical_size": 3,
                }
            ],
        ),
        protocol.mask_update(2, 3, masks={"xalancbmk06-0": 0x7}, sample=["lbm06-1"]),
        protocol.host_bye(4),
        protocol.reject("protocol version 1 does not match"),
        protocol.metrics(),
        protocol.metrics_reply(
            hosts={"hostA": {"epoch": 1, "last_seq": 3, "live": 2}},
            classes={AppClass.SENSITIVE.value: 1, AppClass.UNKNOWN.value: 1},
            totals={"hosts": 1, "decisions": 4},
        ),
    ]


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


class TestProtocolSchema:
    def test_every_builder_passes_check_frame(self):
        for frame in fuzz_messages():
            kind, payload = check_frame(frame)
            assert kind == frame[0]
            assert payload == frame[1]

    def test_structural_rejects(self):
        bad = [
            "not a frame",
            ("only-kind",),
            ("no_such_kind", {}),
            ("app_arrive", {"seq": 1}),  # missing key
            ("app_arrive", {"seq": 1, "app": "a", "extra": 1}),
            ("app_arrive", {"seq": 0, "app": "a"}),  # sequenced from 1
            ("app_arrive", {"seq": True, "app": "a"}),  # bools are not ints
            ("app_arrive", {"seq": 1, "app": ""}),
            ("host_bye", {"seq": -1}),
            ("reject", {"reason": "must be a string"}),
        ]
        for frame in bad:
            with pytest.raises(ServiceProtocolError):
                check_frame(frame)

    def test_sample_and_classify_entries_validated(self):
        def samples(entry):
            return ("monitor_samples", {"seq": 1, "samples": [entry], "classify": []})

        def classify(entry):
            return ("monitor_samples", {"seq": 1, "samples": [], "classify": [entry]})

        good = {
            "app": "a",
            "llcmpkc": 1.0,
            "stall_fraction": 0.2,
            "effective_ways": 4,
        }
        check_frame(samples(good))
        for key, value in [
            ("llcmpkc", float("nan")),
            ("llcmpkc", float("inf")),
            ("stall_fraction", -0.1),
            ("effective_ways", "four"),
            ("effective_ways", True),
        ]:
            with pytest.raises(ServiceProtocolError):
                check_frame(samples({**good, key: value}))
        sweep = {
            "app": "a",
            "class": AppClass.SENSITIVE.value,
            "slowdown_table": [1.5, 1.0],
            "critical_size": 2,
        }
        check_frame(classify(sweep))
        for key, value in [
            ("class", "mysterious"),
            ("slowdown_table", []),
            ("slowdown_table", [1.0, float("nan")]),
            ("slowdown_table", [1.0, -2.0]),
            ("critical_size", 0),
            ("critical_size", 1.5),
        ]:
            with pytest.raises(ServiceProtocolError):
                check_frame(classify({**sweep, key: value}))

    def test_infinite_slowdown_table_entry_rejected(self):
        """LFOC's lookahead sums slowdown tables, so one infinite entry would
        reach every cluster the application could join."""
        for value in (float("inf"), float("-inf")):
            frame = (
                "monitor_samples",
                {"seq": 1, "samples": [], "classify": [{
                    "app": "a",
                    "class": AppClass.SENSITIVE.value,
                    "slowdown_table": [value, 1.0],
                    "critical_size": 2,
                }]},
            )
            with pytest.raises(ServiceProtocolError, match="slowdown_table"):
                check_frame(frame)

    def test_mask_update_validated(self):
        check_frame(protocol.mask_update(1, 0))
        for masks in [{}, {"": 3}, {"a": 0}, {"a": -1}, {"a": True}, {"a": "0x7"}]:
            with pytest.raises(ServiceProtocolError):
                check_frame(
                    ("mask_update", {"epoch": 1, "ack": 0, "masks": masks,
                                     "sample": [], "decision": None})
                )
        with pytest.raises(ServiceProtocolError):
            check_frame(
                ("mask_update", {"epoch": 1, "ack": 0, "masks": None,
                                 "sample": ["ok", ""], "decision": None})
            )

    def test_version_negotiation(self):
        check_protocol(protocol.host_hello("h", 1, 0)[1], "host_hello")
        with pytest.raises(ServiceProtocolError, match="protocol version"):
            check_protocol({"protocol": 1}, "host_hello")

    def test_duplicate_app_within_one_sample_batch_rejected(self):
        """The fused observe_batch ingests each bank row at most once per
        call, so a frame repeating an app must die at the schema boundary."""
        entry = {
            "app": "a",
            "llcmpkc": 1.0,
            "stall_fraction": 0.2,
            "effective_ways": 4,
        }
        with pytest.raises(ServiceProtocolError, match="repeats app"):
            check_frame(
                ("monitor_samples", {"seq": 1, "samples": [entry, dict(entry)],
                                     "classify": []})
            )

    def test_metrics_frames_validated(self):
        check_frame(protocol.metrics())
        with pytest.raises(ServiceProtocolError):
            check_frame(("metrics", {}))
        good = protocol.metrics_reply(
            hosts={"h": {"live": 1}}, classes={}, totals={"hosts": 1}
        )
        check_frame(good)
        for key, value in [
            ("hosts", ["h"]),
            ("hosts", {"": {}}),
            ("hosts", {"h": 3}),
            ("classes", {"mysterious": 1}),
            ("classes", {AppClass.LIGHT.value: "one"}),
            ("totals", None),
        ]:
            with pytest.raises(ServiceProtocolError):
                check_frame(("metrics_reply", {**good[1], key: value}))

    def test_single_byte_corruption_never_crashes(self):
        """The daemon's ingest path is ``FrameReader`` then ``check_frame``;
        flipping any one byte of a service frame stream must surface as a
        framing or schema error (or decode to different-but-valid content),
        never anything else."""
        stream = b"".join(pack_frame(m) for m in fuzz_messages())
        rejected = 0
        for position in range(len(stream)):
            corrupted = bytearray(stream)
            corrupted[position] ^= 0xFF
            reader = FrameReader()
            try:
                for frame in reader.feed(bytes(corrupted)):
                    check_frame(frame)
            except FrameProtocolError:
                rejected += 1
            except ServiceProtocolError:
                rejected += 1
            except SimulationError:
                rejected += 1
        # Sanity: corruption is actually being detected, not waved through.
        assert rejected > len(stream) // 4


# ---------------------------------------------------------------------------
# Host sessions: lockstep, idempotence, restart churn
# ---------------------------------------------------------------------------


def make_session(policy="lfoc"):
    return HostSession("h0", policy=policy)


def arrive(session, seq, app):
    return session.handle("app_arrive", protocol.app_arrive(seq, app)[1])


def depart(session, seq, app):
    return session.handle("app_depart", protocol.app_depart(seq, app)[1])


def samples(session, seq, entries, classify=()):
    return session.handle(
        "monitor_samples", protocol.monitor_samples(seq, entries, classify)[1]
    )


def sample_entry(app, ways=11, llcmpkc=40.0, stall=0.5):
    return {
        "app": app,
        "llcmpkc": llcmpkc,
        "stall_fraction": stall,
        "effective_ways": ways,
    }


_GOOD_SAMPLE = {
    "app": "a", "llcmpkc": 1.5, "stall_fraction": 0.25, "effective_ways": 4,
}


def _samples_frame(*entries):
    return ("monitor_samples", {"seq": 1, "samples": list(entries), "classify": []})


def _masks_frame(masks):
    return ("mask_update", {"epoch": 1, "ack": 0, "masks": masks, "sample": [],
                            "decision": None})


#: Malformed frames and the exact messages the protocol-v2 checks raised
#: for them; the one-pass sample and mask checks must keep every one.
_CHECK_FRAME_PARITY = [
    (_samples_frame({**_GOOD_SAMPLE, "extra": 1}),
     "monitor_samples.samples[] payload has wrong keys "
     "(missing [], unexpected ['extra'])"),
    (_samples_frame({k: v for k, v in _GOOD_SAMPLE.items() if k != "stall_fraction"}),
     "monitor_samples.samples[] payload has wrong keys "
     "(missing ['stall_fraction'], unexpected [])"),
    (_samples_frame({**_GOOD_SAMPLE, "effective_ways": True}),
     "monitor_samples.samples[].effective_ways must be a number"),
    (_samples_frame({**_GOOD_SAMPLE, "llcmpkc": float("nan")}),
     "monitor_samples.samples[].llcmpkc must be finite and >= 0"),
    (_samples_frame({**_GOOD_SAMPLE, "stall_fraction": float("inf")}),
     "monitor_samples.samples[].stall_fraction must be finite and >= 0"),
    (_samples_frame({**_GOOD_SAMPLE, "llcmpkc": -0.5}),
     "monitor_samples.samples[].llcmpkc must be finite and >= 0"),
    (_samples_frame({**_GOOD_SAMPLE, "effective_ways": -1}),
     "monitor_samples.samples[].effective_ways must be finite and >= 0"),
    (_samples_frame(_GOOD_SAMPLE, {**_GOOD_SAMPLE, "llcmpkc": 2.0}),
     "monitor_samples.samples[] repeats app 'a' within one batch"),
    (_samples_frame({**_GOOD_SAMPLE, "app": 7}),
     "monitor_samples.samples[].app must be a non-empty string"),
    (_samples_frame({**_GOOD_SAMPLE, "app": ""}),
     "monitor_samples.samples[].app must be a non-empty string"),
    (_samples_frame(_GOOD_SAMPLE, ["a"]),
     "monitor_samples.samples[] payload must be a mapping"),
    (_samples_frame(_GOOD_SAMPLE, {**_GOOD_SAMPLE, "app": "b", "llcmpkc": "x"}),
     "monitor_samples.samples[].llcmpkc must be a number"),
    (("monitor_samples", {"seq": 1, "samples": [], "classify": [], "x": 0}),
     "monitor_samples payload has wrong keys (missing [], unexpected ['x'])"),
    (("mask_update", {"epoch": 1, "ack": 0, "masks": None, "sample": [],
                      "decision": None, "x": 1}),
     "mask_update payload has wrong keys (missing [], unexpected ['x'])"),
    (("mask_update", {"epoch": 1, "ack": 0, "masks": None, "sample": []}),
     "mask_update payload has wrong keys (missing ['decision'], unexpected [])"),
    (_masks_frame({"a": True}),
     "mask_update.masks values must be positive capacity bitmasks"),
    (_masks_frame({"a": 3.0}),
     "mask_update.masks values must be positive capacity bitmasks"),
    (_masks_frame({"a": 0}),
     "mask_update.masks values must be positive capacity bitmasks"),
    (_masks_frame({"a": -3}),
     "mask_update.masks values must be positive capacity bitmasks"),
    (_masks_frame({7: 3}), "mask_update.masks keys must be app names"),
    (_masks_frame({"": 3}), "mask_update.masks keys must be app names"),
    (_masks_frame({}), "mask_update.masks must be None or a non-empty mapping"),
    (_masks_frame([("a", 3)]),
     "mask_update.masks must be None or a non-empty mapping"),
]


class TestCheckFrameMessages:
    @pytest.mark.parametrize(
        "frame,message", _CHECK_FRAME_PARITY,
        ids=[f"case{i}" for i in range(len(_CHECK_FRAME_PARITY))],
    )
    def test_malformed_frames_keep_their_messages(self, frame, message):
        with pytest.raises(ServiceProtocolError) as excinfo:
            check_frame(frame)
        assert str(excinfo.value) == message

    def test_number_subclasses_still_accepted(self):
        """The exact-type tests take the common case only; a NumPy scalar
        (a float subclass) is judged by the isinstance tests, which accept it."""
        import numpy as np

        entry = {**_GOOD_SAMPLE, "llcmpkc": np.float64(2.5)}
        assert check_frame(_samples_frame(entry))[1]["samples"] == [entry]


class TestHostSession:
    def test_rejects_unknown_policy(self):
        with pytest.raises(SimulationError, match="unknown service policy"):
            HostSession("h0", policy="fifo")

    def test_sequenced_frame_before_hello_is_an_error(self):
        session = make_session()
        with pytest.raises(ServiceProtocolError, match="before host_hello"):
            arrive(session, 1, "a")

    def test_duplicates_answer_from_the_cached_reply(self):
        session = make_session()
        session.hello(boot=1)
        first = arrive(session, 1, "a")
        again = arrive(session, 1, "a")
        assert again == first
        assert session.duplicates_dropped == 1
        assert session.last_seq == 1

    def test_sequence_gap_is_a_protocol_error(self):
        session = make_session()
        session.hello(boot=1)
        arrive(session, 1, "a")
        with pytest.raises(ServiceProtocolError, match="jumped from seq 1 to 3"):
            arrive(session, 3, "b")

    def test_restart_keeps_classification_but_resets_transients(self):
        """The arrive → depart → arrive regression: a re-arriving application
        is a restart (``reset_for_restart``), not a cold start — the sweep
        outcome survives, the warm-up countdown and rolling windows do not."""
        session = make_session()
        session.hello(boot=1)
        arrive(session, 1, "a")
        sweep = {
            "app": "a",
            "class": AppClass.SENSITIVE.value,
            "slowdown_table": [2.0, 1.8, 1.6, 1.45, 1.3, 1.2, 1.12, 1.06, 1.02, 1.01, 1.0],
            "critical_size": 4,
        }
        samples(session, 2, [sample_entry("a")], [sweep])
        monitor = session.monitors["a"]
        assert monitor.app_class is AppClass.SENSITIVE
        assert monitor.warmup_remaining < monitor.config.warmup_samples
        version = monitor.classification_version
        assert version == 1

        depart(session, 3, "a")
        assert "a" not in session.monitors
        assert session.parked["a"] is monitor
        assert session.live == []

        reply = arrive(session, 4, "a")
        assert session.monitors["a"] is monitor  # same lifetime state, no cold start
        assert "a" not in session.parked
        assert monitor.app_class is AppClass.SENSITIVE
        assert monitor.slowdown_table[0] == 2.0 and len(monitor.slowdown_table) == 11
        assert monitor.critical_size == 4
        assert monitor.classification_version == version
        # ... but the transient state restarted with the new incarnation.
        assert monitor.warmup_remaining == monitor.config.warmup_samples
        assert monitor.average_llcmpkc() == 0.0
        assert not monitor.in_sampling_mode
        # The known classification feeds the decision immediately — and since
        # neither the tenant set nor any sweep outcome changed relative to
        # the pre-churn state, the unchanged allocation answers from the
        # version-vector fast path and is not re-pushed to the host.
        assert reply[1]["masks"] is None
        assert session.decider.decision_fast_hits >= 1
        assert session._last_pushed is not None and "a" in session._last_pushed

    def test_departing_unknown_app_is_a_noop(self):
        session = make_session()
        session.hello(boot=1)
        reply = depart(session, 1, "ghost")
        assert reply[0] == "mask_update"
        assert session.last_seq == 1

    def test_new_boot_restarts_sequencing_and_repushes_masks(self):
        session = make_session()
        epoch, last_seq = session.hello(boot=1)
        assert (epoch, last_seq) == (1, 0)
        first = arrive(session, 1, "a")
        assert first[1]["masks"] is not None
        samples(
            session, 2, [sample_entry("a")],
            [{"app": "a", "class": AppClass.STREAMING.value,
              "slowdown_table": None, "critical_size": None}],
        )

        # Same boot reconnect: the session *resumes* — same epoch, same
        # sequence position, so the agent can replay its journal suffix.
        assert session.hello(boot=1) == (1, 2)
        assert session.live == ["a"]

        # New boot: full restart — monitors parked, sequencing restarts.
        assert session.hello(boot=2) == (2, 0)
        assert session.live == []
        assert "a" in session.parked
        repush = arrive(session, 1, "a")
        # The rebooted host lost its CAT state, so the (unchanged) decision
        # is pushed again rather than suppressed as a duplicate.
        assert repush[1]["masks"] == first[1]["masks"]
        assert [d.epoch for d in session.replay.for_host("h0")] == [1, 2]

    def test_stale_frame_right_after_reboot_answers_bare_ack(self):
        """A duplicate arriving while the rebooted session has no cached
        reply yet is acknowledged with a bare mask_update, not a crash."""
        session = make_session()
        session.hello(boot=1)
        arrive(session, 1, "a")
        session.hello(boot=2)
        reply = session.handle("app_arrive", {"seq": 0, "app": "a"})
        assert reply == protocol.mask_update(session.epoch, 0)
        assert session.duplicates_dropped == 1


class TestServiceCore:
    def test_unregistered_host_is_rejected(self):
        core = ServiceCore()
        with pytest.raises(ServiceProtocolError, match="unregistered host"):
            core.handle("ghost", "app_arrive", protocol.app_arrive(1, "a")[1])

    def test_version_mismatch_rejected_at_hello(self):
        core = ServiceCore()
        payload = dict(protocol.host_hello("h0", 1, 0)[1])
        payload["protocol"] = 1
        with pytest.raises(ServiceProtocolError, match="protocol version"):
            core.handle_hello(payload)

    def test_ever_completed_survives_respawn(self):
        core = ServiceCore()
        transport = LocalTransport(core, "h0")
        host = SimulatedHost(WORKLOAD, seed=1)
        drive_host(host, transport, batches=2)
        assert core.ever_completed == {"h0"}
        # A supervisor respawning the finished agent re-registers it ...
        transport.hello()
        assert not core.sessions["h0"].completed
        # ... without un-finishing it for the daemon's run loop.
        assert core.ever_completed == {"h0"}


# ---------------------------------------------------------------------------
# Replay log + offline oracle
# ---------------------------------------------------------------------------


class TestReplayLog:
    def test_offline_replay_is_deterministic(self):
        a = offline_replay(list(HOSTS), WORKLOAD, batches=BATCHES, seed=SEED)
        b = offline_replay(list(HOSTS), WORKLOAD, batches=BATCHES, seed=SEED)
        assert a.signature() == b.signature()
        assert len(a) > 0
        # The seeded churn is part of the trace, not an optional extra.
        host = SimulatedHost(WORKLOAD, seed=host_seed(SEED, HOSTS[0]))
        assert churn_schedule(host.apps, BATCHES, host_seed(SEED, HOSTS[0]))

    def test_different_workloads_produce_different_logs(self):
        a = offline_replay("h0", "S1", batches=6, seed=0)
        b = offline_replay("h0", "S2", batches=6, seed=0)
        assert a.signature() != b.signature()

    def test_dunn_replay_signature_is_pinned(self):
        """The Dunn service's decisions, pinned by value: the parity suites
        compare two cores that share the session's decision code, so only
        a pin catches a change to that code."""
        log = offline_replay(["host0", "host1"], "S1", batches=12, seed=3, policy="dunn")
        signature = log.signature()
        assert len(signature) == 21
        assert {
            host: [seq for owner, _, seq, _ in signature if owner == host]
            for host in ("host0", "host1")
        } == {
            "host0": [9, 10, 11, 13, 14, 15, 16, 19, 20, 21, 22],
            "host1": [9, 10, 11, 13, 15, 16, 19, 20, 21, 22],
        }
        assert signature[0] == ("host0", 1, 9, (
            ("bzip206.0", 3), ("cactusadm06.0", 2046), ("gobmk06.0", 3),
            ("leslie3d06.0", 2046), ("libquantum06.0", 2046), ("soplex06.0", 3),
            ("tonto06.0", 3), ("tonto06.1", 3),
        ))
        assert hashlib.sha256(repr(signature).encode("utf-8")).hexdigest() == (
            "6d32aae8ed871b4a37d4a2e29ba2f7c5f6ff4621fe1e7b3653c31289dfdc1b62"
        )

    def test_jsonl_round_trip(self, tmp_path):
        log = offline_replay("h0", WORKLOAD, batches=6, seed=1)
        path = tmp_path / "replay.jsonl"
        log.save(str(path))
        loaded = ReplayLog.load(str(path))
        assert loaded.signature() == log.signature()
        assert loaded.final_masks("h0") == log.final_masks("h0")

    def test_load_rejects_corrupt_and_non_contiguous_logs(self, tmp_path):
        log = offline_replay("h0", WORKLOAD, batches=6, seed=1)
        assert len(log) >= 2
        path = tmp_path / "replay.jsonl"
        log.save(str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[1:]) + "\n")  # drop decision 0
        with pytest.raises(SimulationError, match="not contiguous"):
            ReplayLog.load(str(path))
        path.write_text("{not json\n")
        with pytest.raises(SimulationError, match="corrupt replay log"):
            ReplayLog.load(str(path))
        path.write_text(json.dumps({"host": "h0"}) + "\n")
        with pytest.raises(SimulationError, match="malformed replay record"):
            ReplayLog.load(str(path))


# ---------------------------------------------------------------------------
# End-to-end: live daemon over sockets vs the offline oracle
# ---------------------------------------------------------------------------


def run_agents_threaded(daemon, host_ids, *, chaos=None, batches=BATCHES, seed=SEED):
    """Drive host agents in threads against an in-process daemon, which pumps
    in this thread; returns the agents (for reconnect counters)."""
    agents, errors, threads = [], [], []

    def one(host_id):
        try:
            host = SimulatedHost(WORKLOAD, seed=host_seed(seed, host_id))
            churn = churn_schedule(host.apps, batches, host_seed(seed, host_id))
            agent = HostAgent(
                daemon.address, host_id, chaos=chaos, connect_delay_s=0.05
            )
            agents.append(agent)
            drive_host(host, agent, batches=batches, churn=churn)
        except BaseException as exc:  # surfaced in the main thread below
            errors.append((host_id, exc))

    for host_id in host_ids:
        thread = threading.Thread(target=one, args=(host_id,), daemon=True)
        thread.start()
        threads.append(thread)
    daemon.run(until_byes=len(host_ids), max_seconds=120)
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, f"agent failures: {errors}"
    return agents


class TestLiveService:
    def test_live_daemon_matches_offline_oracle_bit_for_bit(self):
        golden = offline_replay(list(HOSTS), WORKLOAD, batches=BATCHES, seed=SEED)
        with PartitionDaemon(("127.0.0.1", 0)) as daemon:
            run_agents_threaded(daemon, HOSTS)
            assert daemon.frame_errors == 0
            for host in HOSTS:
                assert daemon.replay.signature(host) == golden.signature(host)
                assert daemon.replay.final_masks(host) == golden.final_masks(host)

    def test_frame_corruption_costs_the_link_not_the_session(self):
        golden = offline_replay(["hostA"], WORKLOAD, batches=BATCHES, seed=SEED)
        plan = FaultPlan(agent_corrupt_frames=(5,))
        with PartitionDaemon(("127.0.0.1", 0)) as daemon:
            (agent,) = run_agents_threaded(daemon, ["hostA"], chaos=plan)
            assert daemon.frame_errors >= 1
            assert agent.reconnects >= 1
            session = daemon.core.sessions["hostA"]
            # Same boot token on reconnect: the session *resumed* mid-epoch
            # (no restart) and the agent's journal replay healed the gap —
            # so the log is bit-identical to the clean oracle run, not
            # merely convergent.
            assert session.epoch == 1
            assert session.completed
            assert daemon.replay.signature("hostA") == golden.signature("hostA")
            assert daemon.replay.final_masks("hostA") == golden.final_masks("hostA")

    def test_supervised_agent_kill_and_respawn_converges(self):
        """The CI chaos drill, in-process: the daemon babysits its own agent,
        the first incarnation dies mid-trace (scripted ``os._exit``), the
        respawn re-runs the trace clean and lands on the oracle's masks."""
        golden = offline_replay(["host0"], WORKLOAD, batches=BATCHES, seed=SEED)
        daemon = PartitionDaemon(
            ("127.0.0.1", 0),
            supervise=1,
            workload=WORKLOAD,
            batches=BATCHES,
            seed=SEED,
            agent_chaos={"agent_kill_batches": [3]},
        )
        try:
            summary = daemon.run(until_byes=1, max_seconds=180)
        finally:
            daemon.close()
        assert summary["supervisor"]["restarts"] >= 1
        # A scripted kill is a clean EOF at the daemon: no frame errors.
        assert daemon.frame_errors == 0
        session = daemon.core.sessions["host0"]
        assert session.epoch >= 2
        assert daemon.replay.final_masks("host0") == golden.final_masks("host0")

    def test_supervised_hosts_that_said_bye_are_not_respawned(self):
        """An agent exits 0 after its orderly bye.  host0 stalls before its
        last batch, so host1 exits long before the daemon is done; its slot
        is retired, not respawned, and the log holds exactly the offline
        oracle's decisions (no finished session replayed in a new epoch)."""
        hosts = ["host0", "host1"]
        golden = offline_replay(hosts, WORKLOAD, batches=BATCHES, seed=SEED)
        daemon = PartitionDaemon(
            ("127.0.0.1", 0),
            supervise=2,
            workload=WORKLOAD,
            batches=BATCHES,
            seed=SEED,
            agent_chaos={"agent_delay_batches": [BATCHES - 1], "delay_s": 3.0},
        )
        try:
            summary = daemon.run(until_byes=2, max_seconds=180)["supervisor"]
        finally:
            daemon.close()
        assert summary["restarts"] == 0
        assert summary["retired"] == [0, 1]
        assert daemon.frame_errors == 0
        for host in hosts:
            assert daemon.replay.signature(host) == golden.signature(host)
        assert len(daemon.replay) == len(golden)

    def test_supervise_requires_a_workload(self):
        with pytest.raises(SimulationError, match="need a workload"):
            PartitionDaemon(("127.0.0.1", 0), supervise=2)

    def test_drop_log_is_bounded_under_reconnect_churn(self):
        """300 connect-and-close drops keep the last 256 and count all."""
        with PartitionDaemon(("127.0.0.1", 0)) as daemon:
            for batch in range(6):
                for _ in range(50):
                    socket.create_connection(daemon.address, timeout=5).close()
                target = 50 * (batch + 1)
                for _ in range(2000):
                    if daemon.server.drops_total >= target:
                        break
                    daemon.pump(timeout=0.01)
            summary = daemon.summary()
            assert summary["drops_total"] == 300
            assert len(summary["drops"]) == 256
            assert summary["drops"][-1][1] == "connection closed"
            assert daemon.frame_errors == 0
            assert daemon.server.recent_drops().count("connection closed") == 3


# ---------------------------------------------------------------------------
# Fault-plan agent hooks + the service spec
# ---------------------------------------------------------------------------


class TestAgentFaultPlan:
    def test_seeded_agent_faults_are_deterministic(self):
        a = FaultPlan.seeded(9, batches=20, agent_kills=1, agent_corrupt=2, agent_delays=1)
        b = FaultPlan.seeded(9, batches=20, agent_kills=1, agent_corrupt=2, agent_delays=1)
        assert a == b
        assert a.agent_kill_batches and a.agent_corrupt_frames and a.agent_delay_batches

    def test_dict_round_trip_and_validation(self):
        plan = FaultPlan(agent_kill_batches=(3,), agent_corrupt_frames=(5, 14))
        data = json.loads(json.dumps(plan.to_dict()))  # the --agent-chaos path
        assert FaultPlan.from_dict(data) == plan
        with pytest.raises(SimulationError, match="non-negative"):
            FaultPlan(agent_kill_batches=(-1,))


class TestServiceSpec:
    def test_round_trip(self):
        spec = ServiceSpec(
            supervise=2,
            workload=WORKLOAD,
            batches=20,
            seed=7,
            agent_chaos={"agent_kill_batches": [3]},
            replay_log="out.jsonl",
            snapshot="daemon.snapshot",
            snapshot_every_s=0.5,
        )
        assert ServiceSpec.from_dict(spec.to_dict()) == spec
        assert ServiceSpec().to_dict() == {}

    def test_validation(self):
        with pytest.raises(SpecError, match="policy"):
            ServiceSpec(policy="fifo")
        with pytest.raises(SpecError, match="needs a workload"):
            ServiceSpec(supervise=1)
        with pytest.raises(SpecError, match="batches"):
            ServiceSpec(batches=0)
        with pytest.raises(SpecError, match="agent_chaos"):
            ServiceSpec(agent_chaos={"agent_kill_batch": [3]})

    def test_supervised_agents_simulate_the_daemons_ways(self, tmp_path):
        """The daemon hands ``ways`` to the agents it spawns, so a live
        session at 8 ways matches the offline oracle at 8 ways."""
        log = tmp_path / "replay.jsonl"
        spec = ServiceSpec(
            supervise=1, workload="S1", batches=6, seed=0, ways=8, replay_log=str(log)
        )
        spec.run(max_seconds=120)
        golden = offline_replay(["host0"], "S1", batches=6, seed=0, n_ways=8)
        assert ReplayLog.load(str(log)).signature("host0") == golden.signature("host0")

    def test_load_toml(self, tmp_path):
        path = tmp_path / "service.toml"
        path.write_text(
            "[service]\n"
            f'workload = "{WORKLOAD}"\n'
            "supervise = 2\n"
            "batches = 24\n"
            "seed = 7\n"
            'snapshot = "daemon.snapshot"\n'
            "snapshot_every_s = 0.5\n"
            "[service.agent_chaos]\n"
            "agent_kill_batches = [3]\n"
        )
        spec = ServiceSpec.load(str(path))
        assert spec.supervise == 2
        assert spec.workload == WORKLOAD
        assert spec.snapshot == "daemon.snapshot"
        assert spec.snapshot_every_s == 0.5
        assert spec.fault_plan() == FaultPlan(agent_kill_batches=(3,))


# ---------------------------------------------------------------------------
# Bank-batched ingestion: parity, drain fusion, ordering
# ---------------------------------------------------------------------------


class _DrainHost:
    """One simulated host's frame stream, dispensed one frame at a time so a
    round-robin driver can assemble cross-host drains."""

    def __init__(self, host_id, *, batches, seed, workload=WORKLOAD):
        self.host_id = host_id
        self.sim = SimulatedHost(workload, seed=host_seed(seed, host_id))
        self.events = {}
        for b, op, app in churn_schedule(
            self.sim.apps, batches, host_seed(seed, host_id)
        ):
            self.events.setdefault(b, []).append((op, app))
        self.live = list(self.sim.apps)
        self.pending = []
        self.seq = 0
        self.batches = batches
        self.batch = 0
        self.queue = [("app_arrive", protocol.app_arrive(0, app)[1])
                      for app in self.live]
        self.done = False

    def next_item(self):
        """The next ``(host, kind, payload)`` to send, or None when finished."""
        if not self.queue:
            if self.batch < self.batches:
                b = self.batch
                self.batch += 1
                for op, app in self.events.get(b, ()):
                    if op == "depart":
                        if app in self.live:
                            self.live.remove(app)
                        self.queue.append(
                            ("app_depart", protocol.app_depart(0, app)[1])
                        )
                    else:
                        if app not in self.live:
                            self.live.append(app)
                        self.queue.append(
                            ("app_arrive", protocol.app_arrive(0, app)[1])
                        )
                samples_ = [self.sim.sample(app, b) for app in self.live]
                classify = list(self.pending)
                self.pending.clear()
                self.queue.append(
                    ("monitor_samples",
                     protocol.monitor_samples(0, samples_, classify)[1])
                )
            elif not self.done:
                self.done = True
                self.queue.append(("host_bye", protocol.host_bye(0)[1]))
            else:
                return None
        kind, payload = self.queue.pop(0)
        self.seq += 1
        payload = {**payload, "seq": self.seq}
        return (self.host_id, kind, payload)

    def apply(self, reply):
        kind, payload = reply
        assert kind == "mask_update"
        if payload["masks"] is not None:
            self.sim.apply_masks(payload["masks"])
        for app in payload["sample"]:
            self.pending.append(self.sim.classify(app))


def drive_drains(core, host_ids, *, batches, seed, use_drain):
    """Drive all hosts against ``core`` with a deterministic round-robin
    schedule: one frame per host per tick.  With ``use_drain`` the tick's
    frames go through one ``handle_drain`` call (the daemon's gathered event
    loop); without it they are handled one by one in the same global order
    (the sequential reference).  Returns the per-tick observe_batch deltas."""
    hosts = [
        _DrainHost(h, batches=batches, seed=seed) for h in host_ids
    ]
    deltas = []
    while True:
        items, owners = [], []
        for h in hosts:
            item = h.next_item()
            if item is not None:
                items.append(item)
                owners.append(h)
        if not items:
            return deltas
        calls_before = core.ingest.observe_batch_calls
        if use_drain:
            results = core.handle_drain(items)
        else:
            results = [
                core.handle(host, kind, payload) for host, kind, payload in items
            ]
        for h, result in zip(owners, results):
            assert not isinstance(result, Exception), result
            h.apply(result)
        calls_after = core.ingest.observe_batch_calls
        deltas.append(calls_after - calls_before)


class TestBankBatchedIngestion:
    HOSTS4 = ("h0", "h1", "h2", "h3")

    def _hello_all(self, core, host_ids):
        for host in host_ids:
            core.handle_hello(protocol.host_hello(host, 1, 0)[1])

    def test_bank_backend_matches_reference_backend_bit_for_bit(self):
        """The parity pin: the fused-bank offline replay equals the
        per-AppMonitor oracle's replay, multi-host, with churn."""
        bank = offline_replay(list(HOSTS), WORKLOAD, batches=BATCHES, seed=SEED)
        reference = oracles.reference_offline_replay(
            list(HOSTS), WORKLOAD, batches=BATCHES, seed=SEED
        )
        assert len(bank) > 0
        assert bank.signature() == reference.signature()

    def test_one_observe_batch_per_drain_and_parity_with_sequential(self):
        """A cross-host drain costs at most ONE fused observe_batch call and
        answers bit-identically to handling the same frames one by one."""
        batched = ServiceCore()
        sequential = oracles.ReferenceServiceCore()
        self._hello_all(batched, self.HOSTS4)
        self._hello_all(sequential, self.HOSTS4)
        deltas = drive_drains(
            batched, self.HOSTS4, batches=8, seed=SEED, use_drain=True
        )
        drive_drains(
            sequential, self.HOSTS4, batches=8, seed=SEED, use_drain=False
        )
        assert max(deltas) == 1  # never more than one fused call per tick
        assert deltas.count(1) >= 8  # and the sample ticks really fuse
        # 4 hosts' samples per tick, one call: fewer calls than sample frames.
        total_sample_frames = sum(
            s.samples_ingested > 0 for s in batched.sessions.values()
        ) * 8
        assert batched.ingest.observe_batch_calls < total_sample_frames
        assert batched.replay.signature() == sequential.replay.signature()
        for host in self.HOSTS4:
            assert (
                batched.sessions[host].summary()["last_seq"]
                == sequential.sessions[host].summary()["last_seq"]
            )

    def test_same_host_twice_in_one_drain_stays_sequential(self):
        """The ingest → depart → decide ordering pin (offline_replay's
        documented order): a samples frame and the same host's depart frame
        in ONE drain must behave exactly as if handled back to back."""
        drained = ServiceCore()
        sequential = oracles.ReferenceServiceCore()
        sweep = {
            "app": "a",
            "class": AppClass.STREAMING.value,
            "slowdown_table": None,
            "critical_size": None,
        }
        setup = [
            ("app_arrive", protocol.app_arrive(1, "a")[1]),
            ("app_arrive", protocol.app_arrive(2, "b")[1]),
            ("monitor_samples",
             protocol.monitor_samples(
                 3,
                 [{"app": "a", "llcmpkc": 40.0, "stall_fraction": 0.5,
                   "effective_ways": 11},
                  {"app": "b", "llcmpkc": 1.0, "stall_fraction": 0.05,
                   "effective_ways": 11}],
                 [sweep],
             )[1]),
        ]
        tail = [
            ("monitor_samples",
             protocol.monitor_samples(
                 4,
                 [{"app": "a", "llcmpkc": 41.0, "stall_fraction": 0.5,
                   "effective_ways": 11},
                  {"app": "b", "llcmpkc": 1.1, "stall_fraction": 0.06,
                   "effective_ways": 11}],
                 [],
             )[1]),
            ("app_depart", protocol.app_depart(5, "b")[1]),
        ]
        for core in (drained, sequential):
            core.handle_hello(protocol.host_hello("h", 1, 0)[1])
            for kind, payload in setup:
                core.handle("h", kind, payload)
        # The drained core takes ingest + depart as one gathered batch; the
        # host-repeat rule must flush and decide between them.
        drain_results = drained.handle_drain(
            [("h", kind, payload) for kind, payload in tail]
        )
        seq_results = [sequential.handle("h", kind, payload) for kind, payload in tail]
        assert drain_results == seq_results
        assert drained.replay.signature() == sequential.replay.signature()
        # The depart itself fired a decision (the streaming app's partition
        # grew), proving "decide" came after "depart" on both paths.
        assert drained.replay.decisions[-1].seq == 5

    def test_direct_duplicate_app_in_frame_raises_in_stage(self):
        session = HostSession("h0")
        session.hello(boot=1)
        arrive(session, 1, "a")
        payload = protocol.monitor_samples(
            2,
            [sample_entry("a"), sample_entry("a")],
            [],
        )[1]
        with pytest.raises(ServiceProtocolError, match="repeated app"):
            session.handle("monitor_samples", payload)

    def test_drain_isolates_per_link_failures(self):
        """One host's protocol violation in a gathered drain must not stall
        the other hosts' frames in the same drain."""
        core = ServiceCore()
        self._hello_all(core, ("good", "bad"))
        core.handle("good", "app_arrive", protocol.app_arrive(1, "x")[1])
        core.handle("bad", "app_arrive", protocol.app_arrive(1, "y")[1])
        results = core.handle_drain([
            ("bad", "app_arrive", protocol.app_arrive(5, "z")[1]),  # seq gap
            ("good", "monitor_samples",
             protocol.monitor_samples(2, [sample_entry("x")], [])[1]),
        ])
        assert isinstance(results[0], ServiceProtocolError)
        assert results[1][0] == "mask_update"
        assert core.sessions["good"].last_seq == 2


# ---------------------------------------------------------------------------
# Idempotency-cache staleness across boot epochs
# ---------------------------------------------------------------------------


class TestEpochStaleness:
    def test_cached_reply_from_previous_boot_never_replays(self):
        """The staleness regression: a reply cached under boot 1 must be
        unreachable once boot 2 resets the sequence space."""
        session = make_session()
        session.hello(boot=1)
        arrive(session, 1, "a")
        cached = samples(session, 2, [sample_entry("a")])
        old_epoch = session.epoch

        # Same boot: the session resumes, the cache stays valid and its
        # epoch stamp is still correct.
        assert session.hello(boot=1) == (old_epoch, 2)
        dup = samples(session, 2, [sample_entry("a")])
        assert dup == cached
        assert dup[1]["epoch"] == session.epoch

        # New boot: the cache is cleared with the sequence space.
        session.hello(boot=2)
        assert session._last_reply is None
        # Reusing an old in-range seq is processed FRESH in the new epoch,
        # never answered from the previous boot's cache.
        fresh = arrive(session, 1, "a")
        assert fresh != cached
        assert fresh[1]["epoch"] == session.epoch == old_epoch + 1
        # Reusing a deeper old seq is a gap in the new space: a hard error,
        # not a stale replay.
        with pytest.raises(ServiceProtocolError, match="jumped from seq"):
            samples(session, 3, [sample_entry("a")])

    def test_reconnect_mid_batch_with_old_seqs_over_local_transport(self):
        """Agent-shaped regression: reconnect mid-batch under a new boot and
        replay old sequence numbers; every reply must carry the new epoch."""
        core = ServiceCore()
        transport = LocalTransport(core, "h0")
        transport.hello()  # boot 1
        transport.exchange(protocol.app_arrive(1, "a"))
        transport.exchange(
            protocol.monitor_samples(2, [sample_entry("a")], [])
        )
        first_epoch = core.sessions["h0"].epoch
        transport.hello()  # boot 2: mid-batch reconnect, seq space resets
        kind, payload = transport.exchange(protocol.app_arrive(1, "a"))
        assert kind == "mask_update"
        assert payload["epoch"] == first_epoch + 1
        assert core.sessions["h0"].last_seq == 1


# ---------------------------------------------------------------------------
# Snapshot / restore
# ---------------------------------------------------------------------------


def _feed(core, host, items):
    out = []
    for kind, payload in items:
        out.append(core.handle(host, kind, payload))
    return out


class TestSnapshotRestore:
    def _mid_run_core(self):
        core = ServiceCore()
        core.handle_hello(protocol.host_hello("h0", 7, 0)[1])
        _feed(core, "h0", [
            ("app_arrive", protocol.app_arrive(1, "a")[1]),
            ("app_arrive", protocol.app_arrive(2, "b")[1]),
            ("monitor_samples", protocol.monitor_samples(
                3,
                [sample_entry("a"), sample_entry("b", llcmpkc=2.0, stall=0.04)],
                [{"app": "a", "class": AppClass.STREAMING.value,
                  "slowdown_table": None, "critical_size": None}],
            )[1]),
            ("app_depart", protocol.app_depart(4, "b")[1]),
        ])
        return core

    def test_state_round_trip_continues_bit_identically(self):
        original = self._mid_run_core()
        restored = ServiceCore.from_state(
            json.loads(json.dumps(original.to_state(), sort_keys=True))
        )
        # Identity facts survive: epoch, seq, tenants, parked monitors.
        assert restored.sessions["h0"].epoch == original.sessions["h0"].epoch
        assert restored.sessions["h0"].last_seq == 4
        assert restored.sessions["h0"].live == ["a"]
        assert "b" in restored.sessions["h0"].parked
        assert restored.replay.signature() == original.replay.signature()
        # The restored monitor rows are exact: identical further frames give
        # identical replies and identical decision tails on both cores.
        tail = [
            ("app_arrive", protocol.app_arrive(5, "b")[1]),
            ("monitor_samples", protocol.monitor_samples(
                6,
                [sample_entry("a", llcmpkc=41.0),
                 sample_entry("b", llcmpkc=2.5, stall=0.05)],
                [],
            )[1]),
            ("host_bye", protocol.host_bye(7)[1]),
        ]
        assert _feed(restored, "h0", tail) == _feed(original, "h0", tail)
        assert restored.replay.signature() == original.replay.signature()
        assert restored.sessions["h0"].completed
        assert "h0" in restored.ever_completed or restored.completed_hosts() == ["h0"]

    def test_only_dunn_sessions_keep_stall_windows(self):
        """LFOC decides from classifications alone, so its sessions keep
        and snapshot no stall window; a snapshot that still carries one,
        as earlier builds wrote, restores and continues alike.  Dunn
        sessions keep theirs."""
        original = self._mid_run_core()
        state = original.to_state()
        assert original.sessions["h0"]._dunn is None
        assert state["sessions"]["h0"]["stalls"] == {}
        older = json.loads(json.dumps(state))
        older["sessions"]["h0"]["stalls"] = {"a": [0.5]}
        restored = ServiceCore.from_state(older)
        assert restored.sessions["h0"]._dunn is None
        tail = [
            ("monitor_samples", protocol.monitor_samples(
                5, [sample_entry("a", llcmpkc=41.0)], []
            )[1]),
            ("host_bye", protocol.host_bye(6)[1]),
        ]
        assert _feed(restored, "h0", tail) == _feed(original, "h0", tail)
        assert restored.replay.signature() == original.replay.signature()

        dunn = ServiceCore(policy="dunn")
        dunn.handle_hello(protocol.host_hello("h0", 7, 0)[1])
        _feed(dunn, "h0", [
            ("app_arrive", protocol.app_arrive(1, "a")[1]),
            ("monitor_samples", protocol.monitor_samples(
                2, [sample_entry("a", stall=0.25)], []
            )[1]),
        ])
        assert dunn.to_state()["sessions"]["h0"]["stalls"] == {"a": [0.25]}

    def test_reconnecting_agent_resumes_mid_epoch_after_restore(self):
        original = self._mid_run_core()
        restored = ServiceCore.from_state(original.to_state())
        # Same boot token: resume — same epoch, sequence intact.
        kind, ack = check_frame(
            restored.handle_hello(protocol.host_hello("h0", 7, 0)[1])
        )
        assert kind == "hello_ack"
        assert (ack["epoch"], ack["last_seq"]) == (1, 4)
        # New boot token: restart — parked monitors keep the classification.
        kind, ack2 = check_frame(
            restored.handle_hello(protocol.host_hello("h0", 8, 0)[1])
        )
        assert (ack2["epoch"], ack2["last_seq"]) == (2, 0)
        reply = restored.handle("h0", "app_arrive", protocol.app_arrive(1, "a")[1])
        assert restored.sessions["h0"].monitors["a"].app_class is AppClass.STREAMING

    def test_restore_before_any_arrival_keeps_the_monitor_config(self):
        """A snapshot taken before the bank has a row still restores the
        core's monitor config (it used to fall back to the default)."""
        config = MonitorConfig(warmup_samples=1, history_window=2)
        core = ServiceCore(monitor_config=config)
        core.handle_hello(protocol.host_hello("h0", 1, 0)[1])
        restored = ServiceCore.from_state(json.loads(json.dumps(core.to_state())))
        assert restored.ingest.config == config
        restored.handle("h0", "app_arrive", protocol.app_arrive(1, "a")[1])
        assert restored.ingest.bank.config == config

    def test_snapshot_file_bytes_are_one_shot_json(self, tmp_path):
        """One JSON document around the exact bytes the CRC covers."""
        core = self._mid_run_core()
        path = tmp_path / "daemon.snapshot"
        save_snapshot(core, str(path))
        state = core.to_state()
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        crc = zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF
        expected = (
            f'{{"crc32": {crc}, "format": "{SNAPSHOT_FORMAT}", '
            f'"state": {canonical}, "version": 1}}\n'
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert json.loads(path.read_bytes()) == {
            "format": SNAPSHOT_FORMAT, "version": 1, "crc32": crc, "state": state,
        }
        restored = load_snapshot(str(path))
        assert restored.to_state() == core.to_state()

    def test_snapshot_in_the_default_separator_layout_still_loads(self, tmp_path):
        """Files whose state was encoded with ``json.dumps`` default
        separators (one document, envelope keys sorted) restore alike."""
        core = self._mid_run_core()
        state = core.to_state()
        canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
        envelope = {
            "format": SNAPSHOT_FORMAT,
            "version": 1,
            "crc32": zlib.crc32(canonical.encode("utf-8")) & 0xFFFFFFFF,
            "state": state,
        }
        path = tmp_path / "daemon.snapshot"
        path.write_text(json.dumps(envelope, sort_keys=True) + "\n", encoding="utf-8")
        restored = load_snapshot(str(path))
        assert restored.to_state() == state

    def test_snapshot_file_round_trip_and_crc_guard(self, tmp_path):
        core = self._mid_run_core()
        path = tmp_path / "daemon.snapshot"
        save_snapshot(core, str(path))
        restored = load_snapshot(str(path))
        assert restored.replay.signature() == core.replay.signature()
        assert restored.sessions["h0"].last_seq == 4

        # Flip one byte inside the stored state: the CRC must catch it.
        blob = path.read_bytes()
        needle = blob.find(b'"last_seq"')
        assert needle != -1
        corrupted = bytearray(blob)
        digit = blob.find(b"4", needle)
        corrupted[digit:digit + 1] = b"9"
        path.write_bytes(bytes(corrupted))
        with pytest.raises(SimulationError, match="CRC"):
            load_snapshot(str(path))

        path.write_text('{"format": "something-else"}')
        with pytest.raises(SimulationError, match="not a repro-service-snapshot"):
            load_snapshot(str(path))
        path.write_text("torn{")
        with pytest.raises(SimulationError, match="corrupt service snapshot"):
            load_snapshot(str(path))

    def test_daemon_killed_mid_run_restores_to_byte_identical_log(self, tmp_path):
        """The chaos drill: a FaultPlan hard-kills the daemon right after a
        scripted decision lands (no parting snapshot); a second daemon
        restores from the latest periodic snapshot on the same port; the
        surviving agent resumes the same boot and replays its journal.  The
        merged replay log must be byte-identical to an unkilled run's."""
        golden = offline_replay(["host0"], WORKLOAD, batches=BATCHES, seed=SEED)
        assert len(golden) >= 4
        golden_path = tmp_path / "golden.jsonl"
        golden.save(str(golden_path))
        snap = str(tmp_path / "daemon.snapshot")
        kill_after = len(golden) // 2

        daemon_a = PartitionDaemon(
            ("127.0.0.1", 0),
            snapshot=snap,
            snapshot_every_s=0.05,
            agent_chaos={"daemon_kill_decisions": [kill_after]},
        )
        port = daemon_a.address[1]
        errors = []

        def one():
            try:
                host = SimulatedHost(WORKLOAD, seed=host_seed(SEED, "host0"))
                churn = churn_schedule(host.apps, BATCHES, host_seed(SEED, "host0"))
                agent = HostAgent(
                    daemon_a.address, "host0",
                    connect_attempts=400, connect_delay_s=0.05,
                )
                drive_host(host, agent, batches=BATCHES, churn=churn)
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=one, daemon=True)
        thread.start()
        daemon_a.run(until_byes=1, max_seconds=120)
        assert daemon_a.killed, "the scripted daemon kill never fired"
        assert len(daemon_a.replay) > kill_after
        daemon_a.close()

        daemon_b = PartitionDaemon(
            ("127.0.0.1", port), snapshot=snap, snapshot_every_s=0.05
        )
        if os.path.exists(snap):
            assert daemon_b.restored
            # The periodic snapshot predates the crash: the agent journal
            # replay has to regenerate the lost tail.
            assert len(daemon_b.replay) <= len(daemon_a.replay)
        daemon_b.run(until_byes=1, max_seconds=120)
        thread.join(timeout=60)
        assert not errors, f"agent failure: {errors}"
        assert not daemon_b.killed
        assert daemon_b.frame_errors == 0

        live_path = tmp_path / "live.jsonl"
        daemon_b.replay.save(str(live_path))
        daemon_b.close()
        assert live_path.read_bytes() == golden_path.read_bytes()


# ---------------------------------------------------------------------------
# The read-only metrics message
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_core_metrics_counts_hosts_and_classes(self):
        core = ServiceCore()
        core.handle_hello(protocol.host_hello("h0", 1, 0)[1])
        _feed(core, "h0", [
            ("app_arrive", protocol.app_arrive(1, "a")[1]),
            ("app_arrive", protocol.app_arrive(2, "b")[1]),
            ("monitor_samples", protocol.monitor_samples(
                3, [sample_entry("a")],
                [{"app": "a", "class": AppClass.STREAMING.value,
                  "slowdown_table": None, "critical_size": None}],
            )[1]),
        ])
        frame = core.handle_metrics(protocol.metrics()[1])
        kind, payload = check_frame(frame)  # the reply itself is schema-valid
        assert kind == "metrics_reply"
        assert payload["totals"]["hosts"] == 1
        assert payload["totals"]["observe_batch_calls"] >= 1
        assert payload["hosts"]["h0"]["live"] == 2
        assert payload["hosts"]["h0"]["classes"][AppClass.STREAMING.value] == 1
        assert payload["hosts"]["h0"]["classes"][AppClass.UNKNOWN.value] == 1
        assert payload["classes"][AppClass.STREAMING.value] == 1
        with pytest.raises(ServiceProtocolError, match="protocol version"):
            core.handle_metrics({"protocol": -1})

    def test_metrics_served_over_the_wire_without_a_handshake(self):
        """A metrics scraper is not a host: no hello required, no host
        binding, and the probe never perturbs session state."""
        with PartitionDaemon(("127.0.0.1", 0)) as daemon:
            with socket.create_connection(daemon.address, timeout=10) as sock:
                sock.settimeout(10)
                sock.sendall(pack_frame(protocol.metrics()))
                for _ in range(100):
                    daemon.pump(timeout=0.01)
                    sock.setblocking(False)
                    try:
                        peek = sock.recv(1, socket.MSG_PEEK)
                    except (BlockingIOError, InterruptedError):
                        peek = b""
                    finally:
                        sock.settimeout(10)
                    if peek:
                        break
                kind, payload = check_frame(recv_frame(sock))
                assert kind == "metrics_reply"
                assert payload["totals"]["hosts"] == 0
            assert daemon.frame_errors == 0
