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

import importlib
import json
import math
import socket as socket_mod
import struct
import sys
import time
from collections import OrderedDict, deque, namedtuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.types import WayAllocation
from repro.errors import SimulationError
from repro.experiments.specs import PolicySpec, SolverSpec
from repro.experiments.study import StaticContext, _static_scenario_worker
from repro.policies import LfocPolicy
from repro.runtime import (
    EngineConfig,
    RunContext,
    RunSpec,
    SerialExecutor,
    TCPExecutor,
    execute_run,
)
from repro.runtime.executors import (
    CODEC_SAFE,
    PROTOCOL_VERSION,
    FaultPlan,
    FrameProtocolError,
    TaskError,
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
    send_frame,
)
from repro.runtime.scheduler import (
    DunnUserLevelDaemon,
    LfocSchedulerPlugin,
    StockLinuxDriver,
)
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


def raw_safe_frame(body: str, version: int = PROTOCOL_VERSION) -> bytes:
    """A hand-built safe frame carrying ``body`` as its JSON."""
    payload = _PREFIX.pack(version) + body.encode("utf-8")
    return _HEADER.pack(1 + len(payload)) + b"\x02" + payload


def decode_raw(body: str):
    (message,) = FrameReader().feed(raw_safe_frame(body))
    return message


class TestSafeCodec:
    def test_container_round_trips_preserve_exact_types(self):
        message = (
            "result",
            7,
            {
                "ints": {1: "a", -2: (3, [4, (5,)])},
                "mixed": {None: 1, True: [2], "s": 3, (1, "x"): 4},
                "tuple": (1, (2, 3)),
                "none": None,
            },
        )
        out = roundtrip(message)
        assert_identical(out, message)

    def test_envelope_is_the_version_then_the_json(self):
        """No section table: the payload is the version and the JSON."""
        body = b'{"t":["ping"]}'
        payload = _PREFIX.pack(PROTOCOL_VERSION) + body
        assert pack_frame(("ping",)) == _HEADER.pack(1 + len(payload)) + b"\x02" + payload
        assert PROTOCOL_VERSION == 4

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

    def test_run_spec_driver_travels_by_registry_name(self):
        spec = RunSpec(workload=workload_by_name("S1"), driver_cls=LfocSchedulerPlugin)
        assert b'"driver_cls":"lfoc"' in pack_frame(spec)
        assert roundtrip(spec) == spec

    def test_results_and_errors_round_trip_as_records(self, platform):
        workload = workload_by_name("S1")
        spec = RunSpec(workload=workload, driver_cls=DunnUserLevelDaemon)
        result = execute_run(
            RunContext(platform, EngineConfig(
                instructions_per_run=2.0e8, min_completions=1, record_traces=True
            )),
            spec,
        )
        assert result.traces and result.repartitions
        assert result.final_allocation is not None
        out = roundtrip(("result", 1, result))
        assert out[2] == result
        assert type(out[2].final_allocation) is WayAllocation
        error = TaskError(ticket=4, label="x@S1", kind="ValueError", message="m")
        assert roundtrip(("error", error))[1] == error

    def test_kernels_and_contexts_travel_by_fixed_names(self, platform):
        config = EngineConfig(min_completions=1)
        kernel, context = roundtrip((execute_run, RunContext(platform, config)))
        assert kernel is execute_run
        assert context == RunContext(platform, config)
        static = StaticContext(
            platform,
            (("L", PolicySpec("lfoc")), (None, PolicySpec("best_static"))),
            SolverSpec(exact_limit=4),
        )
        blob = pack_frame(("context", _static_scenario_worker, static))
        assert b'"static_scenario"' in blob and b"repro." not in blob
        (frame,) = FrameReader().feed(blob)
        assert frame[1] is _static_scenario_worker
        assert frame[2] == static
        assert frame[2].resolved_policies()[1][1].exact_limit == 4

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


# ---------------------------------------------------------------------------
# The v4 grammar: plain data and the listed records, nothing else
# ---------------------------------------------------------------------------

Point = namedtuple("Point", "x y")


class _Unlisted:
    pass


def assert_identical(left, right):
    """Equal values of exactly equal types, floats compared bit for bit."""
    assert type(left) is type(right), (left, right)
    if isinstance(left, float):
        assert struct.pack(">d", left) == struct.pack(">d", right)
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert_identical(a, b)
    elif isinstance(left, dict):
        assert len(left) == len(right)
        for (ka, va), (kb, vb) in zip(left.items(), right.items()):
            assert_identical(ka, kb)
            assert_identical(va, vb)
    else:
        assert left == right


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
#: Key sets of the v4 markers and of the removed v3 object markers.
MARKER_KEY_SETS = [("t",), ("d",), ("f", "w"), ("o", "st"), ("r",), ("a", "nt")]


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
    )


wire_trees = st.recursive(wire_scalars, _containers, max_leaves=12)

RECORD_NAMES = sorted(framing._record_table())
RECORD_TYPES = tuple(
    entry.key for entry in framing._record_table().values()
    if isinstance(entry.key, type)
)
KERNELS = [
    entry.key for entry in framing._record_table().values()
    if not isinstance(entry.key, type)
]

#: Raw JSON objects a hostile peer might send: old object markers naming
#: real modules, record markers with listed or made-up names, and noise.
hostile_keys = st.sampled_from(
    ["t", "d", "w", "f", "o", "st", "r", "nt", "a", "name", "benchmarks",
     "kind", "platform", "driver_cls", "llc_ways", "masks", "x"]
)
hostile_names = st.one_of(
    st.sampled_from(RECORD_NAMES),
    st.sampled_from([
        "repro.runtime.executors.framing:send_frame",
        "repro.workloads.generator:Workload",
        "os:system",
        "builtins:eval",
        "importlib:import_module",
    ]),
    st.text(max_size=8),
)
hostile_leaves = st.one_of(wire_scalars, hostile_names)


def _hostile_containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(hostile_keys, children, max_size=4),
        st.builds(lambda name, fields: {"w": name, "f": fields}, hostile_names,
                  st.dictionaries(hostile_keys, children, max_size=3)),
        st.builds(lambda ref, state: {"o": ref, "st": state}, hostile_names, children),
        st.builds(lambda ref: {"r": ref}, hostile_names),
        st.builds(lambda ref, args: {"nt": ref, "a": args}, hostile_names,
                  st.lists(children, max_size=3)),
    )


hostile_trees = st.recursive(hostile_leaves, _hostile_containers, max_leaves=16)


def assert_plain_or_listed(value):
    if isinstance(value, RECORD_TYPES) or any(value is k for k in KERNELS):
        return
    assert type(value) in (type(None), bool, int, float, str, list, tuple, dict), value
    if isinstance(value, (list, tuple)):
        for item in value:
            assert_plain_or_listed(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            assert_plain_or_listed(key)
            assert_plain_or_listed(item)


class TestV4Grammar:
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
            {"d": [[1, 2]]},
            {"w": "Workload", "f": {"name": "x", "benchmarks": ["nope"]}},
            {"f": {}, "w": "execute_run"},
            [{"w": 1, "f": 2}, ({"t": 0},)],
        ],
    )
    def test_dicts_shaped_like_markers_come_back_as_dicts(self, value):
        assert_identical(roundtrip(value), value)

    def test_plain_containers_travel_as_bare_json(self):
        blob = pack_frame({"samples": [{"app": "a", "ways": 4}], "n": 1.5})
        assert b'{"samples":[{"app":"a","ways":4}],"n":1.5}' in blob

    @pytest.mark.parametrize(
        "value, named",
        [
            (object(), "builtins.object"),
            (_Unlisted(), "_Unlisted"),
            ({1, 2}, "builtins.set"),
            (frozenset({1}), "builtins.frozenset"),
            (b"\x00", "builtins.bytes"),
            (np.float64(1.5), "numpy.float64"),
            (np.arange(3), "numpy.ndarray"),
            (OrderedDict(a=1), "collections.OrderedDict"),
            (deque([1]), "collections.deque"),
            (Point(1, 2), "Point"),
            (send_frame, "framing.send_frame"),
            (StockLinuxDriver, "StockLinuxDriver"),
        ],
    )
    def test_unlisted_values_refused_on_the_sender(self, value, named):
        with pytest.raises(FrameProtocolError, match=f"{named}.*not wire-encodable"):
            pack_frame(("error", value))

    def test_workload_record_with_unknown_benchmark_refused(self):
        """The receiver calls the class, so Workload's own checks run."""
        with pytest.raises(FrameProtocolError, match="invalid Workload record.*nope"):
            decode_raw('{"w":"Workload","f":{"name":"x","benchmarks":["nope"]}}')
        with pytest.raises(FrameProtocolError, match="invalid PlatformSpec record"):
            decode_raw('{"w":"PlatformSpec","f":{"llc_ways":0}}')
        with pytest.raises(FrameProtocolError, match="invalid RunSpec record"):
            decode_raw(
                '{"w":"RunSpec","f":{"workload":{"w":"Workload","f":{"name":"x",'
                '"benchmarks":["tonto06"]}},"driver_cls":"os.system"}}'
            )
        with pytest.raises(FrameProtocolError, match="unknown record 'Point'"):
            decode_raw('{"w":"Point","f":{}}')

    def test_removed_object_markers_decode_as_plain_dicts(self):
        old = [
            {"o": "repro.workloads.generator:Workload",
             "st": {"name": "x", "benchmarks": ["nope"], "kind": 1}},
            {"r": "repro.runtime.executors.framing:send_frame"},
            {"nt": "repro.runtime.executors.framing:pack_frame", "a": [1]},
        ]
        assert decode_raw(json.dumps(old)) == old

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(hostile_trees)
    def test_hostile_frames_never_import(self, tree):
        """Marker-shaped peer JSON decodes to plain data or listed records,
        or is refused; it never imports a module."""
        before = set(sys.modules)
        real_import_module = importlib.import_module

        def forbidden(name, package=None):
            raise AssertionError(f"decoding imported {name!r}")

        importlib.import_module = forbidden
        try:
            try:
                value = decode_raw(json.dumps(tree))
            except FrameProtocolError:
                pass
            else:
                assert_plain_or_listed(value)
        finally:
            importlib.import_module = real_import_module
        assert set(sys.modules) == before

    def test_v3_frame_refused_naming_both_versions(self):
        body = b'{"t":["ping"]}'
        payload = struct.pack(">III", 3, len(body), 0) + body
        blob = _HEADER.pack(1 + len(payload)) + b"\x02" + payload
        with pytest.raises(
            FrameProtocolError,
            match="peer speaks wire protocol 3, this build speaks 4",
        ):
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


class TestSenderRefusals:
    """The coordinator refuses what the wire cannot carry before sending."""

    def test_unregistered_driver_refused_by_name_at_submit(self, platform):
        class HomeMadeDriver(StockLinuxDriver):
            pass

        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            spec = RunSpec(workload=workload_by_name("S1"), driver_cls=HomeMadeDriver)
            with pytest.raises(FrameProtocolError, match="HomeMadeDriver.*register"):
                executor.submit(spec)
            assert executor.outstanding() == 0
        finally:
            executor.close()

    def test_inline_static_policy_refused_by_name(self, platform):
        executor = TCPExecutor(("127.0.0.1", 0))
        context = StaticContext(
            platform, (("mine", PolicySpec.inline(LfocPolicy())),)
        )
        try:
            with pytest.raises(
                FrameProtocolError,
                match="'<inline:LfocPolicy>' wraps an inline component",
            ):
                executor.set_context(_static_scenario_worker, context)
        finally:
            executor.close()


# ---------------------------------------------------------------------------
# Framing fuzz (the wire-layer mirror of the checkpoint truncation fuzz)
# ---------------------------------------------------------------------------


def fuzz_messages():
    return [
        ("hello", {"protocol": PROTOCOL_VERSION, "codec": CODEC_SAFE, "pid": 7}),
        ("result", 11, {"rows": [1.5, -2.25], "name": "αβ"}),
        ("run", 2, RunSpec(workload=workload_by_name("S1"), driver_cls=StockLinuxDriver)),
        ("ping",),
    ]


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
                assert frame == message, f"cut at byte {cut}"
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
        # Sanity: corruption is actually being detected, not waved through.
        assert rejected > len(stream) // 4

    def test_oversized_length_prefix_rejected_immediately(self):
        header = _HEADER.pack(MAX_FRAME + 1)
        with pytest.raises(FrameProtocolError, match="frame limit"):
            list(FrameReader().feed(header))

    def test_oversized_frame_refused_at_send_time(self, monkeypatch):
        monkeypatch.setattr(framing, "MAX_FRAME", 1000)
        with pytest.raises(FrameProtocolError, match="frame limit"):
            pack_frame(("payload", "x" * 2000))


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
