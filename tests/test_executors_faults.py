"""Fault-tolerance tests: wire fuzzing, handshakes, chaos plans, supervision.

The wire-layer twin of the checkpoint truncation fuzz
(``tests/test_experiments_checkpoint.py``), plus the robustness guarantees
of the distributed executors:

* framing survives truncation at every byte boundary and single-byte
  corruption with at worst a :class:`FrameProtocolError` — never a crash of
  another kind, and never a silently wrong message;
* version/codec negotiation rejects mismatched workers with a reason that
  lands in the link server's drop log and the starvation error;
* the removed pickle codec is refused by name: its frames by the reader,
  its hello by the coordinator, its spec key and CLI flags by the parsers;
* a scripted :class:`FaultPlan` (worker kills + corrupted frames +
  duplicated results) on a supervised TCP executor leaves study rows
  bit-identical to :class:`SerialExecutor`;
* the worker supervisor respawns dead workers with backoff and trips its
  circuit breaker on crash loops instead of respawning forever.
"""

from __future__ import annotations

import json
import math
import socket as socket_mod
import struct
import time
from collections import OrderedDict, deque, namedtuple

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.runtime import EngineConfig, RunSpec, SerialExecutor, TCPExecutor
from repro.runtime.executors import (
    CODEC_SAFE,
    PROTOCOL_VERSION,
    FaultPlan,
    FrameProtocolError,
    WorkerSupervisor,
)
from repro.runtime.executors import framing
from repro.runtime.executors.framing import (
    FrameReader,
    MAX_FRAME,
    _HEADER,
    _PREFIX,
    pack_frame,
    recv_frame,
)
from repro.runtime.scheduler import StockLinuxDriver
from repro.workloads import workload_by_name

FAST = EngineConfig(
    instructions_per_run=2.0e8, min_completions=1, record_traces=False
)


# ---------------------------------------------------------------------------
# Safe codec round-trips
# ---------------------------------------------------------------------------


def roundtrip(obj):
    reader = FrameReader()
    frames = list(reader.feed(pack_frame(obj)))
    assert len(frames) == 1 and reader.pending() == 0
    return frames[0]


class TestSafeCodec:
    def test_container_round_trips_preserve_exact_types(self):
        od = OrderedDict([("b", 1), ("a", 2)])
        message = (
            "result",
            7,
            {
                "od": od,
                "dq": deque([1, 2, 3], maxlen=5),
                "set": {1, 2},
                "frozen": frozenset({"x"}),
                "bytes": b"\x00\xff",
                "tuple": (1, (2, 3)),
                "none": None,
            },
        )
        out = roundtrip(message)
        assert out[0] == "result" and out[1] == 7
        body = out[2]
        assert type(body["od"]) is OrderedDict
        assert list(body["od"]) == ["b", "a"]  # insertion order survives
        assert type(body["dq"]) is deque and body["dq"].maxlen == 5
        assert body["set"] == {1, 2} and type(body["set"]) is set
        assert body["frozen"] == frozenset({"x"})
        assert body["bytes"] == b"\x00\xff"
        assert body["tuple"] == (1, (2, 3))
        assert body["none"] is None

    def test_numpy_arrays_round_trip_bit_exact(self):
        arrays = [
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([], dtype=np.int32),
            np.array([[True, False]]),
        ]
        out = roundtrip(("payload", arrays))
        for original, restored in zip(arrays, out[1]):
            assert restored.dtype == original.dtype
            assert restored.shape == original.shape
            assert np.array_equal(restored, original)

    def test_run_spec_round_trips_through_safe_codec(self):
        spec = RunSpec(
            workload=workload_by_name("S1"),
            driver_cls=StockLinuxDriver,
            label="base",
        )
        out = roundtrip(("run", 3, spec))
        assert out[2].driver_cls is StockLinuxDriver
        assert out[2].label == "base"
        assert out[2].workload == spec.workload

    def test_pickle_frames_refused_by_name(self):
        """A hand-built tag-0x01 frame names the removed codec."""
        body = b"\x01" + b"\x80\x05N."  # the pickle of None
        blob = _HEADER.pack(len(body)) + body
        with pytest.raises(FrameProtocolError, match="pickle codec was removed"):
            list(FrameReader().feed(blob))
        ours, theirs = socket_mod.socketpair()
        try:
            theirs.sendall(blob)
            with pytest.raises(FrameProtocolError, match="pickle codec was removed"):
                recv_frame(ours)
        finally:
            ours.close()
            theirs.close()

    def test_untrusted_class_references_refused(self):
        blob = pack_frame(("error", object()))
        with pytest.raises(FrameProtocolError, match="builtins"):
            list(FrameReader().feed(blob))


# ---------------------------------------------------------------------------
# The v3 grammar: JSON-native containers, markers for everything else
# ---------------------------------------------------------------------------

Point = namedtuple("Point", "x y")

#: Every marker key set, sorted; a str-keyed dict with one of these key sets
#: must be escaped, not mistaken for the marker.
MARKER_KEY_SETS = sorted(tuple(sorted(keys)) for keys in framing._MARKERS)


def assert_identical(left, right):
    """Equal values of exactly equal types, floats compared bit for bit."""
    assert type(left) is type(right), (left, right)
    if isinstance(left, np.ndarray):
        assert left.dtype == right.dtype and left.shape == right.shape
        assert left.tobytes() == right.tobytes()
    elif isinstance(left, np.generic):
        assert left.dtype == right.dtype and left.tobytes() == right.tobytes()
    elif isinstance(left, float):
        assert struct.pack(">d", left) == struct.pack(">d", right)
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_identical(a, b)
    elif isinstance(left, deque):
        assert left.maxlen == right.maxlen
        assert_identical(list(left), list(right))
    elif isinstance(left, dict):
        assert len(left) == len(right)
        for (ka, va), (kb, vb) in zip(left.items(), right.items()):
            assert_identical(ka, kb)
            assert_identical(va, vb)
    elif isinstance(left, (set, frozenset)):
        def typed(x):
            return type(x).__name__, repr(x)

        assert sorted(map(typed, left)) == sorted(map(typed, right))
    else:
        assert left == right


def raw_safe_frame(body: str, version: int = PROTOCOL_VERSION) -> bytes:
    """A hand-built section-free safe frame carrying ``body`` as its JSON."""
    data = body.encode("utf-8")
    payload = _PREFIX.pack(version, len(data), 0) + data
    return _HEADER.pack(1 + len(payload)) + b"\x02" + payload


# JSON carries NaN without its sign or payload bits, so NaNs are canonical.
wire_floats = st.floats().map(lambda x: math.nan if x != x else x)
wire_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), wire_floats, st.text(max_size=6)
)
hashable_keys = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    st.tuples(st.integers(), st.text(max_size=3)),
)
numpy_values = st.one_of(
    wire_floats.map(np.float64),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_),
    hnp.arrays(
        dtype=st.sampled_from([np.float64, np.float32, np.int64, np.uint8, np.bool_]),
        shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    ),
)
wire_leaves = st.one_of(
    wire_scalars,
    st.binary(max_size=6),
    st.binary(max_size=6).map(bytearray),
    numpy_values,
    st.sets(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
    st.frozensets(st.integers(), max_size=3),
)


def _marker_shaped(children):
    return st.sampled_from(MARKER_KEY_SETS).flatmap(
        lambda keys: st.lists(children, min_size=len(keys), max_size=len(keys)).map(
            lambda values: dict(zip(keys, values))
        )
    )


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        _marker_shaped(children),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(hashable_keys, children, max_size=4),
        st.lists(st.tuples(st.text(max_size=3), children), max_size=4).map(OrderedDict),
        st.builds(
            deque,
            st.lists(children, max_size=4),
            st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        ),
    )


wire_trees = st.recursive(wire_leaves, _containers, max_leaves=12)


class TestV3Grammar:
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(wire_trees)
    def test_round_trip_preserves_exact_types_and_float_bits(self, tree):
        assert_identical(roundtrip(tree), tree)

    @pytest.mark.parametrize(
        "value",
        [
            {"t": 1},
            {"t": {"t": [1]}},
            {"nd": 0, "dt": "<f8", "sh": [1]},
            {"sh": [], "dt": "x", "nd": None},
            {"o": "repro:nothing", "st": 1},
            {"d": [[1, 2]]},
            {"r": "builtins:eval"},
            {"dq": [1], "mx": None},
            [{"ns": 1, "dt": "<i4"}, ({"by": 0},)],
        ],
    )
    def test_dicts_shaped_like_markers_come_back_as_dicts(self, value):
        assert_identical(roundtrip(value), value)

    def test_non_str_keys_tuples_and_ordered_containers(self):
        value = {
            "ints": {1: "a", -2: (3, [4, (5,)])},
            "mixed": {None: 1, True: [2], "s": 3, (1, "x"): 4},
            "ordered": OrderedDict([("z", 1), ("a", 2), ("m", 3)]),
            "bounded": deque([1, 2, 3], maxlen=3),
            "numpy": [np.float64(-0.0), np.int32(7), np.arange(4.0).reshape(2, 2)],
            "floats": [-0.0, math.inf, -math.inf, math.nan, 5e-324],
        }
        out = roundtrip(value)
        assert_identical(out, value)
        assert list(out["ordered"]) == ["z", "a", "m"]
        assert out["bounded"].maxlen == 3

    def test_plain_containers_travel_as_bare_json(self):
        blob = pack_frame({"samples": [{"app": "a", "ways": 4}], "n": 1.5})
        assert b'{"samples":[{"app":"a","ways":4}],"n":1.5}' in blob

    def test_namedtuple_round_trips_through_a_trusted_class(self, monkeypatch):
        monkeypatch.setattr(
            framing, "_TRUSTED_PREFIXES", [*framing._TRUSTED_PREFIXES, __name__]
        )
        out = roundtrip(("p", Point(1, [2.5])))
        assert_identical(out, ("p", Point(1, [2.5])))

    def test_namedtuple_marker_refuses_non_tuple_callables(self):
        blob = raw_safe_frame(
            '{"nt":"repro.runtime.executors.framing:pack_frame","a":[1]}'
        )
        with pytest.raises(FrameProtocolError, match="not a tuple class"):
            list(FrameReader().feed(blob))

    def test_v2_frame_refused_naming_both_versions(self):
        envelope = json.dumps(
            {"v": 2, "s": [], "b": {"t": ["ping"]}}, separators=(",", ":")
        ).encode("utf-8")
        payload = struct.pack(">I", len(envelope)) + envelope
        blob = _HEADER.pack(1 + len(payload)) + b"\x02" + payload
        with pytest.raises(
            FrameProtocolError,
            match=f"peer speaks wire protocol 2, this build speaks {PROTOCOL_VERSION}",
        ):
            list(FrameReader().feed(blob))

    def test_newer_version_refused_naming_both_versions(self):
        blob = raw_safe_frame('{"t":["ping"]}', version=PROTOCOL_VERSION + 1)
        with pytest.raises(
            FrameProtocolError,
            match=f"wire protocol {PROTOCOL_VERSION + 1}, this build speaks "
            f"{PROTOCOL_VERSION}",
        ):
            list(FrameReader().feed(blob))


# ---------------------------------------------------------------------------
# Framing fuzz (the wire-layer mirror of the checkpoint truncation fuzz)
# ---------------------------------------------------------------------------


def fuzz_messages():
    return [
        ("hello", {"protocol": PROTOCOL_VERSION, "codec": CODEC_SAFE, "pid": 7}),
        ("result", 11, {"rows": [1.5, -2.25], "name": "αβ"}),
        ("payload", np.arange(6, dtype=np.float32)),
        ("ping",),
    ]


def frames_equal(left, right):
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and np.array_equal(left, right)
        )
    if isinstance(left, tuple) and isinstance(right, tuple):
        return len(left) == len(right) and all(
            frames_equal(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return set(left) == set(right) and all(
            frames_equal(v, right[k]) for k, v in left.items()
        )
    return left == right


class TestFramingFuzz:
    def test_truncation_at_every_byte(self):
        """A stream cut anywhere yields exactly the complete frames before
        the cut and never an error — torn tails just wait for more bytes."""
        messages = fuzz_messages()
        blobs = [pack_frame(m) for m in messages]
        stream = b"".join(blobs)
        boundaries = []
        offset = 0
        for blob in blobs:
            offset += len(blob)
            boundaries.append(offset)
        for cut in range(len(stream) + 1):
            reader = FrameReader()
            frames = list(reader.feed(stream[:cut]))
            expected = sum(1 for b in boundaries if b <= cut)
            assert len(frames) == expected, f"cut at byte {cut}"
            for message, frame in zip(messages, frames):
                assert frames_equal(frame, message), f"cut at byte {cut}"
            # The tail parses once the missing bytes arrive.
            rest = list(reader.feed(stream[cut:]))
            assert len(frames) + len(rest) == len(messages)

    def test_single_byte_corruption_never_crashes_the_reader(self):
        """Flipping any one byte either raises FrameProtocolError, parses
        fewer frames (the reader waits for bytes that never come), or — for
        flips inside free-form values — decodes different content.  It never
        raises anything else."""
        stream = b"".join(pack_frame(m) for m in fuzz_messages())
        rejected = 0
        for position in range(len(stream)):
            corrupted = bytearray(stream)
            corrupted[position] ^= 0xFF
            reader = FrameReader()
            try:
                list(reader.feed(bytes(corrupted)))
            except FrameProtocolError:
                rejected += 1
            except SimulationError:
                rejected += 1  # FrameProtocolError subclasses it anyway
        # Sanity: corruption is actually being detected, not waved through.
        assert rejected > len(stream) // 4

    def test_oversized_length_prefix_rejected_immediately(self):
        header = _HEADER.pack(MAX_FRAME + 1)
        with pytest.raises(FrameProtocolError, match="frame limit"):
            list(FrameReader().feed(header))

    def test_oversized_frame_refused_at_send_time(self):
        big = np.zeros(MAX_FRAME // 8 + 16, dtype=np.float64)
        with pytest.raises(FrameProtocolError, match="frame limit"):
            pack_frame(("payload", big))


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_seeded_plans_are_deterministic(self):
        a = FaultPlan.seeded(42, frames=20, runs=10, corrupt=2, kills=1, slow=2)
        b = FaultPlan.seeded(42, frames=20, runs=10, corrupt=2, kills=1, slow=2)
        assert a == b
        assert a.corrupt_frames and a.kill_runs and a.slow_runs
        assert a != FaultPlan.seeded(43, frames=20, runs=10, corrupt=2, kills=1)

    def test_dict_round_trip(self):
        plan = FaultPlan(corrupt_frames=(1, 3), kill_runs=(0,), slow_s=0.1)
        data = json.loads(json.dumps(plan.to_dict()))  # the CLI/spec path
        assert FaultPlan.from_dict(data) == plan
        assert FaultPlan.from_dict(None) == FaultPlan()
        assert FaultPlan().to_dict() == {}

    def test_unknown_keys_and_bad_indexes_rejected(self):
        with pytest.raises(SimulationError, match="unknown FaultPlan key"):
            FaultPlan.from_dict({"corrupt_frame": [1]})
        with pytest.raises(SimulationError, match="non-negative"):
            FaultPlan(kill_runs=(-1,))
        with pytest.raises(SimulationError, match="must be a list"):
            FaultPlan(drop_frames=3)


# ---------------------------------------------------------------------------
# Handshake negotiation
# ---------------------------------------------------------------------------


def attach_fake_worker(executor):
    """A socketpair posing as a worker link, bypassing accept()."""
    ours, theirs = socket_mod.socketpair()
    return executor.server.adopt(ours, "test"), theirs


class TestHandshake:
    def send_hello(self, executor, info):
        link, theirs = attach_fake_worker(executor)
        try:
            theirs.sendall(pack_frame(("hello", info)))
            executor.server.read(link)
            reject = recv_frame(theirs)
        finally:
            theirs.close()
        return link, reject

    def test_version_mismatch_rejected_with_reason(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            link, reject = self.send_hello(
                executor, {"protocol": 1, "codec": CODEC_SAFE}
            )
            assert link not in executor.server.links
            assert reject[0] == "reject" and "version mismatch" in reject[1]
            assert any(
                "version mismatch" in reason
                for _peer, reason in executor.server.drops
            )
        finally:
            executor.close()

    def test_pickle_hello_rejected_naming_the_codec(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            link, reject = self.send_hello(
                executor, {"protocol": PROTOCOL_VERSION, "codec": "pickle"}
            )
            assert link not in executor.server.links
            assert reject == ("reject", "unknown wire codec 'pickle'")
        finally:
            executor.close()

    def test_good_hello_marks_link_ready_and_ships_context(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            link, theirs = attach_fake_worker(executor)
            try:
                theirs.sendall(
                    pack_frame(
                        ("hello", {"protocol": PROTOCOL_VERSION, "codec": CODEC_SAFE})
                    )
                )
                executor.server.read(link)
                assert link.ready and link in executor.server.links
                context = recv_frame(theirs)
                assert context[0] == "context"
            finally:
                theirs.close()
        finally:
            executor.close()

    def test_work_before_handshake_drops_the_link(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            link, theirs = attach_fake_worker(executor)
            try:
                theirs.sendall(pack_frame(("pong",)))
                executor.server.read(link)
            finally:
                theirs.close()
            assert link not in executor.server.links
            assert any(
                "before handshake" in reason
                for _peer, reason in executor.server.drops
            )
        finally:
            executor.close()

    def test_starvation_error_names_recent_drop_reasons(self, platform):
        """Satellite: the final error says *why* workers went away."""
        executor = TCPExecutor(("127.0.0.1", 0), connect_timeout_s=0.4)
        try:
            executor.prepare(platform, default_config=FAST)
            self.send_hello(executor, {"protocol": 1, "codec": CODEC_SAFE})
            executor.submit(
                RunSpec(
                    workload=workload_by_name("S1"), driver_cls=StockLinuxDriver
                )
            )
            with pytest.raises(
                SimulationError, match="recent drops.*version mismatch"
            ):
                for _ in executor.as_completed():
                    pass
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# Heartbeat grace configuration
# ---------------------------------------------------------------------------


class TestHeartbeatGrace:
    def test_default_grace_tracks_heartbeat(self):
        executor = TCPExecutor(("127.0.0.1", 0), heartbeat_s=2.0)
        try:
            assert executor.heartbeat_grace_s == 10.0
        finally:
            executor.close()
        executor = TCPExecutor(("127.0.0.1", 0), heartbeat_s=8.0)
        try:
            assert executor.heartbeat_grace_s == 24.0
        finally:
            executor.close()

    def test_explicit_grace_reaches_the_executor_via_spec(self):
        from repro.experiments.specs import ExecutorSpec

        spec = ExecutorSpec(name="tcp", heartbeat_grace_s=42.0)
        assert ExecutorSpec.from_dict(spec.to_dict()) == spec
        executor = spec.create()
        try:
            assert executor.heartbeat_grace_s == 42.0
        finally:
            executor.close()

    def test_invalid_grace_rejected(self):
        from repro.errors import SpecError
        from repro.experiments.specs import ExecutorSpec

        with pytest.raises(SimulationError):
            TCPExecutor(("127.0.0.1", 0), heartbeat_grace_s=0.0)
        with pytest.raises(SpecError):
            ExecutorSpec(name="tcp", heartbeat_grace_s=-1.0)

    def test_unfinished_handshake_dropped_after_grace(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0), heartbeat_grace_s=0.05)
        try:
            executor.prepare(platform, default_config=FAST)
            link, theirs = attach_fake_worker(executor)
            try:
                time.sleep(0.1)
                executor._heartbeat(time.monotonic())
                assert link not in executor.server.links
                assert any(
                    reason == "handshake timeout"
                    for _peer, reason in executor.server.drops
                )
            finally:
                theirs.close()
        finally:
            executor.close()

    def test_answered_ping_keeps_an_idle_worker_and_silence_drops_it(
        self, platform
    ):
        """Any bytes received clear the pending ping, even when they are only
        read by the drain just before the grace judgement."""
        executor = TCPExecutor(
            ("127.0.0.1", 0), heartbeat_s=0.01, heartbeat_grace_s=0.05
        )
        try:
            executor.prepare(platform, default_config=FAST)
            link, theirs = attach_fake_worker(executor)
            try:
                hello = {"protocol": PROTOCOL_VERSION, "codec": CODEC_SAFE}
                theirs.sendall(pack_frame(("hello", hello)))
                executor.server.read(link)
                assert recv_frame(theirs)[0] == "context"
                executor._heartbeat(time.monotonic())
                assert recv_frame(theirs) == ("ping",)
                theirs.sendall(pack_frame(("pong",)))
                time.sleep(0.1)
                executor._heartbeat(time.monotonic())
                assert link in executor.server.links
                assert link.awaiting_pong_since is None
                # A fresh ping left unanswered past the grace costs the link.
                for _ in range(2):
                    time.sleep(0.1)
                    executor._heartbeat(time.monotonic())
                assert link not in executor.server.links
                assert executor.server.drops[-1] == ("test", "heartbeat timeout")
            finally:
                theirs.close()
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# Worker supervision
# ---------------------------------------------------------------------------


class TestWorkerSupervisor:
    def test_first_spawn_extra_applies_once_to_slot_zero(self):
        supervisor = WorkerSupervisor(
            ("127.0.0.1", 1), count=2, first_spawn_extra=("--chaos", "{}")
        )
        first, second = supervisor._slots
        assert "--chaos" in supervisor._command(first)
        assert "--chaos" not in supervisor._command(second)
        first.spawn_count = 1  # the replacement spawns clean
        assert "--chaos" not in supervisor._command(first)
        supervisor.stop()

    def test_respawns_a_killed_worker(self):
        listener = socket_mod.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        supervisor = WorkerSupervisor(
            listener.getsockname(),
            count=1,
            backoff_initial_s=0.05,
            backoff_max_s=0.2,
            healthy_uptime_s=0.2,
        )
        try:
            deadline = time.monotonic() + 60.0
            supervisor.poll()
            proc = supervisor._slots[0].proc
            assert proc is not None
            # Let it live past healthy_uptime_s, then murder it.
            time.sleep(0.3)
            supervisor.poll()
            proc.kill()
            proc.wait(timeout=30)
            while supervisor.restarts < 1:
                assert time.monotonic() < deadline, "respawn never happened"
                supervisor.poll()
                time.sleep(0.02)
            assert supervisor.summary()["restarts"] >= 1
            assert supervisor._slots[0].exits  # the kill was recorded
        finally:
            supervisor.stop()
            listener.close()
        assert supervisor.summary()["alive"] == 0

    def test_circuit_breaker_trips_on_crash_loop(self):
        # --connect with an unparseable flag makes every spawn die young.
        supervisor = WorkerSupervisor(
            ("127.0.0.1", 1),
            count=1,
            extra_args=("--definitely-not-a-flag",),
            backoff_initial_s=0.01,
            backoff_max_s=0.05,
            breaker_threshold=3,
            healthy_uptime_s=3600.0,  # every exit counts as a fast crash
        )
        try:
            deadline = time.monotonic() + 120.0
            with pytest.raises(SimulationError, match="crash-looped"):
                while True:
                    assert time.monotonic() < deadline, "breaker never tripped"
                    supervisor.poll()
                    time.sleep(0.02)
        finally:
            supervisor.stop()

    def test_retired_slot_is_reaped_and_never_respawned(self):
        # The bad flag makes the worker exit young; once retired, that exit
        # is neither respawned nor counted as a crash.
        supervisor = WorkerSupervisor(
            ("127.0.0.1", 1),
            count=2,
            extra_args=("--definitely-not-a-flag",),
            backoff_initial_s=0.01,
            breaker_threshold=1,
            healthy_uptime_s=3600.0,
        )
        try:
            supervisor.poll()
            supervisor.retire(0)
            supervisor.retire(1)
            deadline = time.monotonic() + 60.0
            # breaker_threshold=1: a counted crash would raise from poll().
            while not all(supervisor.summary()["exit_codes"]):
                assert time.monotonic() < deadline, "a worker never exited"
                supervisor.poll()
                time.sleep(0.02)
            supervisor.poll()
            summary = supervisor.summary()
            assert summary["restarts"] == 0
            assert summary["retired"] == [0, 1]
            assert [slot.proc for slot in supervisor._slots] == [None, None]
        finally:
            supervisor.stop()

    def test_needs_at_least_one_slot(self):
        with pytest.raises(SimulationError):
            WorkerSupervisor(("127.0.0.1", 1), count=0)


# ---------------------------------------------------------------------------
# The chaos soak: scripted faults on every backend, rows pinned to serial
# ---------------------------------------------------------------------------


class TestChaosSoak:
    def make_specs(self, workload):
        from repro.runtime import DunnUserLevelDaemon

        return [
            RunSpec(workload=workload, driver_cls=StockLinuxDriver),
            RunSpec(workload=workload, driver_cls=DunnUserLevelDaemon, label="Dunn"),
            RunSpec(workload=workload, driver_cls=StockLinuxDriver, label="base-2"),
            RunSpec(workload=workload, driver_cls=DunnUserLevelDaemon),
        ]

    def result_key(self, result):
        return (
            result.policy,
            result.label,
            result.workload,
            result.duration_s,
            {name: stats.completion_times for name, stats in result.app_stats.items()},
            sorted(result.slowdowns().items()),
            result.n_repartitions,
        )

    def test_supervised_executor_under_adversarial_chaos(self, platform):
        """The acceptance pin: worker kills + corrupted frames + duplicated
        results on a supervised TCP executor; rows bit-identical to serial."""
        workload = workload_by_name("P1")
        serial = SerialExecutor()
        serial.prepare(platform, default_config=FAST)
        with serial:
            expected = [
                self.result_key(r) for r in serial.map_specs(self.make_specs(workload))
            ]

        executor = TCPExecutor(
            ("127.0.0.1", 0),
            min_workers=2,
            supervise=2,
            heartbeat_s=1.0,
            chaos=FaultPlan(corrupt_frames=(1,), duplicate_frames=(2,)),
            supervise_first_extra=(
                "--chaos",
                '{"kill_runs": [0], "duplicate_results": [1]}',
            ),
        )
        with executor:
            executor.prepare(platform, default_config=FAST)
            results = executor.map_specs(self.make_specs(workload))
            summary = executor.summary()
        assert [self.result_key(r) for r in results] == expected
        # The faults actually fired: the killed worker and the corrupted
        # frame each cost a link and forced a resubmission.
        assert executor.retries >= 1
        assert any("chaos" in reason for _peer, reason in executor.server.drops)
        assert summary["supervisor"]["restarts"] >= 1

    def test_seeded_chaos_study_rows_identical_across_backends(self):
        """A small fig7-style study under a seeded FaultPlan, spec-driven,
        on serial / pool / supervised — bit-identical rows throughout."""
        from repro.experiments import run_study

        spec = {
            "name": "chaos-soak",
            "scenarios": [
                {
                    "name": "dyn",
                    "kind": "dynamic",
                    "workloads": [{"suite": "all", "names": ["S1"]}],
                    "policies": [{"name": "dunn"}],
                    "engine": {
                        "instructions_per_run": 2.0e8,
                        "min_completions": 1,
                        "record_traces": False,
                    },
                }
            ],
        }
        serial_rows = run_study(spec, executor="serial").rows()
        pool_rows = run_study(
            spec, executor={"name": "pool", "workers": 2}
        ).rows()
        chaos = FaultPlan.seeded(7, frames=4, duplicates=1, delay_s=0.0)
        supervised_rows = run_study(
            spec,
            executor={
                "name": "supervised",
                "workers": 2,
                "heartbeat_s": 1.0,
                "chaos": chaos.to_dict(),
            },
        ).rows()
        assert pool_rows == serial_rows
        assert supervised_rows == serial_rows
