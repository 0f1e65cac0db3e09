"""Message schema of the partitioning service.

The service speaks the executor's safe wire codec
(:mod:`repro.runtime.executors.framing`) and adds its message kinds on
top of it.  Frames are ``(kind, payload)`` tuples with a string kind and
a plain-dict payload; this module owns the builders and — more
importantly — the validators.  Everything arriving off the wire goes
through :func:`check_frame` before any state is touched, so a corrupt or
adversarial frame surfaces as a :class:`ServiceProtocolError` (and a
dropped link), never as misbehaving session state.  The corrupt-every-
byte fuzz test pins exactly that.

Agent → daemon:

* ``host_hello`` — handshake: protocol version, host id, and a *boot*
  token that changes with every (re)connection.  A new boot means the
  agent re-registers its full state from scratch; the daemon parks the
  host's monitors and bumps the session epoch, so classifications
  survive while sequence numbers restart.
* ``app_arrive`` / ``app_depart`` — tenant churn; sequenced.
* ``monitor_samples`` — one batch of per-app counter samples, plus the
  classification outcomes of any sweeps the daemon requested in its
  previous reply; sequenced.
* ``host_bye`` — orderly end of the session; sequenced.

Daemon → agent:

* ``hello_ack`` — accepts the handshake: the new session epoch and the
  last sequence number the daemon has processed for this boot.
* ``mask_update`` — the reply to *every* sequenced frame (the service is
  lockstep per host).  ``masks`` is only populated when the decision
  actually changed; ``sample`` lists applications the daemon wants the
  host to run a classification sweep on.
* ``reject`` — handshake refusal (version mismatch), mirroring the
  worker protocol.

Read-only observability (either direction of a connection, no
handshake required — a metrics scraper is not a host):

* ``metrics`` — request the daemon's live counters; carries only the
  protocol version.
* ``metrics_reply`` — per-host and per-class live counters plus service
  totals.  Purely observational: serving one never touches session
  state, so the reporting layer can poll without perturbing replay
  determinism.

Sequencing makes duplicated or stale frames idempotent: every stateful
agent frame carries ``seq``; the daemon processes ``last_seq + 1``,
answers a duplicate (``seq <= last_seq``) by re-sending its cached reply,
and treats a gap as a protocol error.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.classification import AppClass
from repro.errors import SimulationError
from repro.runtime.executors.framing import PROTOCOL_VERSION

__all__ = [
    "SERVICE_KINDS",
    "SEQUENCED_KINDS",
    "ServiceProtocolError",
    "host_hello",
    "hello_ack",
    "app_arrive",
    "app_depart",
    "monitor_samples",
    "mask_update",
    "host_bye",
    "reject",
    "metrics",
    "metrics_reply",
    "check_frame",
    "check_protocol",
]


class ServiceProtocolError(SimulationError):
    """A frame violates the service schema (malformed, wrong kind, bad types)."""


#: Every message kind the service speaks, in both directions.
SERVICE_KINDS = (
    "host_hello",
    "hello_ack",
    "app_arrive",
    "app_depart",
    "monitor_samples",
    "mask_update",
    "host_bye",
    "reject",
    "metrics",
    "metrics_reply",
)

#: Agent → daemon kinds that carry a per-host sequence number.
SEQUENCED_KINDS = ("app_arrive", "app_depart", "monitor_samples", "host_bye")

_CLASS_VALUES = {cls.value for cls in AppClass}

_SAMPLE_NUMBERS = ("llcmpkc", "stall_fraction", "effective_ways")
_SAMPLE_KEYS = frozenset(("app",) + _SAMPLE_NUMBERS)
_CLASSIFY_KEYS = frozenset(("app", "class", "slowdown_table", "critical_size"))
_PAYLOAD_KEYS = {
    "host_hello": frozenset(("protocol", "host", "boot", "pid")),
    "hello_ack": frozenset(("protocol", "epoch", "last_seq")),
    "app_arrive": frozenset(("seq", "app")),
    "app_depart": frozenset(("seq", "app")),
    "monitor_samples": frozenset(("seq", "samples", "classify")),
    "host_bye": frozenset(("seq",)),
    "metrics": frozenset(("protocol",)),
    "metrics_reply": frozenset(("protocol", "hosts", "classes", "totals")),
    "mask_update": frozenset(("epoch", "ack", "masks", "sample", "decision")),
}
_INF = math.inf


# -- builders ---------------------------------------------------------------------


def host_hello(host: str, boot: int, pid: int) -> Tuple[str, Dict[str, Any]]:
    return (
        "host_hello",
        {"protocol": PROTOCOL_VERSION, "host": host, "boot": int(boot), "pid": int(pid)},
    )


def hello_ack(epoch: int, last_seq: int) -> Tuple[str, Dict[str, Any]]:
    return (
        "hello_ack",
        {"protocol": PROTOCOL_VERSION, "epoch": int(epoch), "last_seq": int(last_seq)},
    )


def app_arrive(seq: int, app: str) -> Tuple[str, Dict[str, Any]]:
    return ("app_arrive", {"seq": int(seq), "app": app})


def app_depart(seq: int, app: str) -> Tuple[str, Dict[str, Any]]:
    return ("app_depart", {"seq": int(seq), "app": app})


def monitor_samples(
    seq: int,
    samples: Sequence[Mapping[str, Any]],
    classify: Sequence[Mapping[str, Any]] = (),
) -> Tuple[str, Dict[str, Any]]:
    return (
        "monitor_samples",
        {"seq": int(seq), "samples": list(samples), "classify": list(classify)},
    )


def mask_update(
    epoch: int,
    ack: int,
    masks: Optional[Mapping[str, int]] = None,
    sample: Sequence[str] = (),
    decision: Optional[int] = None,
) -> Tuple[str, Dict[str, Any]]:
    return (
        "mask_update",
        {
            "epoch": int(epoch),
            "ack": int(ack),
            "masks": dict(masks) if masks is not None else None,
            "sample": list(sample),
            "decision": int(decision) if decision is not None else None,
        },
    )


def host_bye(seq: int) -> Tuple[str, Dict[str, Any]]:
    return ("host_bye", {"seq": int(seq)})


def reject(reason: str) -> Tuple[str, str]:
    return ("reject", reason)


def metrics() -> Tuple[str, Dict[str, Any]]:
    return ("metrics", {"protocol": PROTOCOL_VERSION})


def metrics_reply(
    hosts: Mapping[str, Mapping[str, Any]],
    classes: Mapping[str, int],
    totals: Mapping[str, Any],
) -> Tuple[str, Dict[str, Any]]:
    return (
        "metrics_reply",
        {
            "protocol": PROTOCOL_VERSION,
            "hosts": {h: dict(v) for h, v in hosts.items()},
            "classes": dict(classes),
            "totals": dict(totals),
        },
    )


# -- validation -------------------------------------------------------------------


def _require_str(payload: Mapping[str, Any], key: str, where: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise ServiceProtocolError(f"{where}.{key} must be a non-empty string")
    return value


def _require_int(
    payload: Mapping[str, Any], key: str, where: str, minimum: int = 0
) -> int:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ServiceProtocolError(f"{where}.{key} must be an integer >= {minimum}")
    return value


def _check_keys(payload: Any, keys: AbstractSet[str], where: str) -> Dict[str, Any]:
    if type(payload) is dict and payload.keys() == keys:
        return payload
    if not isinstance(payload, dict):
        raise ServiceProtocolError(f"{where} payload must be a mapping")
    extra = sorted(set(payload) - keys, key=str)
    missing = sorted(keys - set(payload))
    if extra or missing:
        raise ServiceProtocolError(
            f"{where} payload has wrong keys "
            f"(missing {missing or '[]'}, unexpected {extra or '[]'})"
        )
    return payload


def _check_samples(samples: List[Any]) -> None:
    # One pass that allocates nothing per well-formed entry: the exact-type
    # tests take the common case, and anything unusual (a bool, a NumPy
    # scalar) is judged by the isinstance tests behind them.
    where = "monitor_samples.samples[]"
    seen_apps = set()
    for entry in samples:
        entry = _check_keys(entry, _SAMPLE_KEYS, where)
        app = entry["app"]
        if not isinstance(app, str) or not app:
            raise ServiceProtocolError(f"{where}.app must be a non-empty string")
        for key in _SAMPLE_NUMBERS:
            value = entry[key]
            number = type(value)
            if number is not float and number is not int and (
                number is bool or not isinstance(value, (int, float))
            ):
                raise ServiceProtocolError(f"{where}.{key} must be a number")
            if not 0.0 <= value < _INF:
                raise ServiceProtocolError(f"{where}.{key} must be finite and >= 0")
        # One sample per app per batch: a duplicate row would make the
        # fused bank ingest diverge from the sequential reference (the
        # batched partial-sum add touches each row exactly once).
        if app in seen_apps:
            raise ServiceProtocolError(
                f"monitor_samples.samples[] repeats app {app!r} within one batch"
            )
        seen_apps.add(app)


def _check_masks(masks: Any) -> None:
    if not isinstance(masks, dict) or not masks:
        raise ServiceProtocolError(
            "mask_update.masks must be None or a non-empty mapping"
        )
    for app, mask in masks.items():
        if not isinstance(app, str) or not app:
            raise ServiceProtocolError("mask_update.masks keys must be app names")
        if isinstance(mask, bool) or not isinstance(mask, int) or mask <= 0:
            raise ServiceProtocolError(
                "mask_update.masks values must be positive capacity bitmasks"
            )


def _check_classify(entry: Any, where: str) -> Dict[str, Any]:
    entry = _check_keys(entry, _CLASSIFY_KEYS, where)
    _require_str(entry, "app", where)
    if entry["class"] not in _CLASS_VALUES:
        raise ServiceProtocolError(
            f"{where}.class must be one of {sorted(_CLASS_VALUES)}"
        )
    table = entry["slowdown_table"]
    if table is not None:
        if not isinstance(table, list) or not table:
            raise ServiceProtocolError(
                f"{where}.slowdown_table must be None or a non-empty list"
            )
        for value in table:
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or value != value
                or value < 0
            ):
                raise ServiceProtocolError(
                    f"{where}.slowdown_table entries must be numbers >= 0"
                )
            if value == _INF:
                # LFOC's lookahead sums slowdowns; an infinite one would
                # poison every cluster the app could join.
                raise ServiceProtocolError(
                    f"{where}.slowdown_table entries must be finite"
                )
    critical = entry["critical_size"]
    if critical is not None and (
        isinstance(critical, bool) or not isinstance(critical, int) or critical < 1
    ):
        raise ServiceProtocolError(
            f"{where}.critical_size must be None or an integer >= 1"
        )
    return entry


def check_frame(frame: Any) -> Tuple[str, Any]:
    """Validate one decoded service frame; returns ``(kind, payload)``.

    Raises :class:`ServiceProtocolError` on any structural violation.  Only
    frames that passed this check may touch session state.
    """
    if (
        not isinstance(frame, tuple)
        or len(frame) != 2
        or not isinstance(frame[0], str)
    ):
        raise ServiceProtocolError(
            f"service frames are (kind, payload) tuples, got {type(frame).__name__}"
        )
    kind, payload = frame
    if kind not in SERVICE_KINDS:
        raise ServiceProtocolError(f"unknown service message kind {kind!r}")
    if kind == "reject":
        if not isinstance(payload, str):
            raise ServiceProtocolError("reject payload must be a reason string")
        return kind, payload
    if kind == "host_hello":
        payload = _check_keys(payload, _PAYLOAD_KEYS[kind], kind)
        _require_int(payload, "protocol", kind, minimum=1)
        _require_str(payload, "host", kind)
        _require_int(payload, "boot", kind)
        _require_int(payload, "pid", kind)
        return kind, payload
    if kind == "hello_ack":
        payload = _check_keys(payload, _PAYLOAD_KEYS[kind], kind)
        _require_int(payload, "protocol", kind, minimum=1)
        _require_int(payload, "epoch", kind, minimum=1)
        _require_int(payload, "last_seq", kind)
        return kind, payload
    if kind in ("app_arrive", "app_depart"):
        payload = _check_keys(payload, _PAYLOAD_KEYS[kind], kind)
        _require_int(payload, "seq", kind, minimum=1)
        _require_str(payload, "app", kind)
        return kind, payload
    if kind == "monitor_samples":
        payload = _check_keys(payload, _PAYLOAD_KEYS[kind], kind)
        _require_int(payload, "seq", kind, minimum=1)
        samples = payload["samples"]
        classify = payload["classify"]
        if not isinstance(samples, list) or not isinstance(classify, list):
            raise ServiceProtocolError(
                "monitor_samples.samples/.classify must be lists"
            )
        _check_samples(samples)
        for entry in classify:
            _check_classify(entry, "monitor_samples.classify[]")
        return kind, payload
    if kind == "host_bye":
        payload = _check_keys(payload, _PAYLOAD_KEYS[kind], kind)
        _require_int(payload, "seq", kind, minimum=1)
        return kind, payload
    if kind == "metrics":
        payload = _check_keys(payload, _PAYLOAD_KEYS[kind], kind)
        _require_int(payload, "protocol", kind, minimum=1)
        return kind, payload
    if kind == "metrics_reply":
        payload = _check_keys(payload, _PAYLOAD_KEYS[kind], kind)
        _require_int(payload, "protocol", kind, minimum=1)
        for key in ("hosts", "classes", "totals"):
            if not isinstance(payload[key], dict):
                raise ServiceProtocolError(f"metrics_reply.{key} must be a mapping")
        for host, counters in payload["hosts"].items():
            if not isinstance(host, str) or not host or not isinstance(counters, dict):
                raise ServiceProtocolError(
                    "metrics_reply.hosts must map host ids to counter mappings"
                )
        for cls, count in payload["classes"].items():
            if cls not in _CLASS_VALUES or not isinstance(count, int):
                raise ServiceProtocolError(
                    "metrics_reply.classes must map app classes to integer counts"
                )
        return kind, payload
    # mask_update
    payload = _check_keys(payload, _PAYLOAD_KEYS[kind], kind)
    _require_int(payload, "epoch", kind, minimum=1)
    _require_int(payload, "ack", kind)
    masks = payload["masks"]
    if masks is not None:
        _check_masks(masks)
    sample = payload["sample"]
    if not isinstance(sample, list) or any(
        not isinstance(app, str) or not app for app in sample
    ):
        raise ServiceProtocolError("mask_update.sample must be a list of app names")
    decision = payload["decision"]
    if decision is not None and (
        isinstance(decision, bool) or not isinstance(decision, int) or decision < 0
    ):
        raise ServiceProtocolError(
            "mask_update.decision must be None or an integer >= 0"
        )
    return kind, payload


def check_protocol(payload: Mapping[str, Any], where: str) -> None:
    """Refuse a handshake whose peer speaks a different protocol version."""
    if payload.get("protocol") != PROTOCOL_VERSION:
        raise ServiceProtocolError(
            f"{where}: protocol version {payload.get('protocol')!r} does not "
            f"match this peer's {PROTOCOL_VERSION}"
        )
