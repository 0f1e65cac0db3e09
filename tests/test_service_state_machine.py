"""Model-based test of :class:`~repro.service.session.ServiceCore`.

A hypothesis state machine drives the production core (fused
``MonitorBank`` ingest, gathered drains, snapshot/restore) and the
sequential per-``AppMonitor`` oracle (:class:`oracles.ReferenceServiceCore`,
one frame at a time) with the same random frames: hellos under the same and
a new boot token, tenant churn, monitor samples carrying sweep outcomes,
duplicate and stale sequence numbers, sequence gaps and ``host_bye``.
Mid-run the production core is replaced by its own ``to_state`` →
``from_state`` image.  After every step both cores must have answered
alike and hold the same decision log and session bookkeeping.
"""

from __future__ import annotations

import json

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import oracles
from repro.core.classification import AppClass
from repro.errors import SimulationError
from repro.runtime import MonitorConfig
from repro.service import ServiceCore, ServiceProtocolError, protocol
from repro.service.protocol import check_frame

HOSTS = ("h0", "h1")
APPS = ("a", "b", "c", "d")
WAYS = 11
#: Short warm-up and windows, so sweeps trigger and re-trigger within a run.
MONITOR = MonitorConfig(warmup_samples=1, history_window=2)

SAMPLE = st.fixed_dictionaries(
    {
        "llcmpkc": st.floats(0.0, 60.0),
        "stall_fraction": st.floats(0.0, 1.0),
        "effective_ways": st.one_of(
            st.integers(1, WAYS), st.floats(0.25, float(WAYS))
        ),
    }
)
SLOWDOWN_TABLE = st.lists(
    st.floats(1.0, 4.0), min_size=WAYS - 1, max_size=WAYS - 1
).map(lambda values: sorted(values, reverse=True) + [1.0])
CLASSIFY = st.fixed_dictionaries(
    {
        "app": st.sampled_from(APPS),
        "class": st.sampled_from([cls.value for cls in AppClass]),
        "slowdown_table": st.one_of(st.none(), SLOWDOWN_TABLE),
        "critical_size": st.one_of(st.none(), st.integers(1, WAYS)),
    }
)
#: One sequenced frame, minus its sequence number.
OPS = st.one_of(
    st.tuples(st.just("app_arrive"), st.sampled_from(APPS)),
    st.tuples(st.just("app_depart"), st.sampled_from(APPS)),
    st.tuples(
        st.just("monitor_samples"),
        st.dictionaries(st.sampled_from(APPS), SAMPLE, max_size=len(APPS)),
        st.lists(CLASSIFY, max_size=2),
    ),
    st.tuples(st.just("host_bye")),
)


def frame(op, seq: int):
    """The validated ``(kind, payload)`` of ``op`` sent as ``seq``."""
    kind = op[0]
    if kind == "monitor_samples":
        samples = [dict(sample, app=app) for app, sample in op[1].items()]
        built = protocol.monitor_samples(seq, samples, op[2])
    elif kind == "host_bye":
        built = protocol.host_bye(seq)
    else:
        built = getattr(protocol, kind)(seq, op[1])
    return check_frame(built)


def outcome(result):
    """A reply, or an error reduced to its type and message."""
    if isinstance(result, Exception):
        return ("error", type(result).__name__, str(result))
    return ("reply", result)


def call(fn, *args):
    try:
        return outcome(fn(*args))
    except (ServiceProtocolError, SimulationError) as exc:
        return outcome(exc)


class ServiceCoreMachine(RuleBasedStateMachine):
    POLICY = "lfoc"

    def __init__(self) -> None:
        super().__init__()
        self.bank = ServiceCore(policy=self.POLICY, n_ways=WAYS, monitor_config=MONITOR)
        self.reference = oracles.ReferenceServiceCore(
            policy=self.POLICY, n_ways=WAYS, monitor_config=MONITOR
        )
        self.boot = {}
        self.next_boot = 1

    def last_seq(self, host: str) -> int:
        session = self.bank.sessions.get(host)
        return session.last_seq if session is not None else 0

    def send(self, host: str, kind: str, payload):
        bank = call(self.bank.handle, host, kind, payload)
        reference = call(self.reference.handle, host, kind, payload)
        assert bank == reference
        return bank

    @initialize()
    def connect(self):
        for host in HOSTS:
            self.hello(host, reboot=True)

    @rule(host=st.sampled_from(HOSTS), reboot=st.booleans())
    def hello(self, host, reboot):
        if reboot or host not in self.boot:
            self.boot[host] = self.next_boot
            self.next_boot += 1
        _kind, payload = check_frame(protocol.host_hello(host, self.boot[host], 0))
        assert self.bank.handle_hello(payload) == self.reference.handle_hello(payload)

    @rule(host=st.sampled_from(HOSTS), op=OPS)
    def next_frame(self, host, op):
        self.send(host, *frame(op, self.last_seq(host) + 1))

    @rule(ops=st.lists(st.tuples(st.sampled_from(HOSTS), OPS), min_size=1, max_size=6))
    def drain(self, ops):
        """One gathered drain on the bank core, frame by frame on the oracle."""
        seqs = {host: self.last_seq(host) for host in HOSTS}
        items = []
        for host, op in ops:
            seqs[host] += 1
            items.append((host, *frame(op, seqs[host])))
        drained = [outcome(result) for result in self.bank.handle_drain(items)]
        sequential = [call(self.reference.handle, *item) for item in items]
        assert drained == sequential

    @rule(host=st.sampled_from(HOSTS), back=st.integers(0, 5), op=OPS)
    def duplicate(self, host, back, op):
        """``back == 0`` repeats the last frame; deeper is a stale one."""
        seq = max(self.last_seq(host) - back, 1)
        self.send(host, *frame(op, seq))

    @rule(host=st.sampled_from(HOSTS), jump=st.integers(2, 4), op=OPS)
    def gap(self, host, jump, op):
        result = self.send(host, *frame(op, self.last_seq(host) + jump))
        assert result[:2] == ("error", "ServiceProtocolError")

    @rule()
    def snapshot_restore(self):
        state = json.loads(json.dumps(self.bank.to_state()))
        self.bank = ServiceCore.from_state(state)
        assert json.loads(json.dumps(self.bank.to_state())) == state

    @invariant()
    def cores_agree(self):
        assert self.bank.replay.signature() == self.reference.replay.signature()
        assert self.bank.ever_completed == self.reference.ever_completed
        assert sorted(self.bank.sessions) == sorted(self.reference.sessions)
        for host, session in self.bank.sessions.items():
            other = self.reference.sessions[host]
            assert (session.epoch, session.last_seq, session.completed) == (
                other.epoch, other.last_seq, other.completed
            )
            assert session.live == other.live
            assert sorted(session.parked) == sorted(other.parked)
            for app in session.live:
                mine, theirs = session.monitors[app], other.monitors[app]
                assert mine.app_class is theirs.app_class
                assert mine.in_sampling_mode == theirs.in_sampling_mode


class DunnServiceCoreMachine(ServiceCoreMachine):
    POLICY = "dunn"


TestServiceCoreModel = ServiceCoreMachine.TestCase
TestServiceCoreModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestDunnServiceCoreModel = DunnServiceCoreMachine.TestCase
TestDunnServiceCoreModel.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
