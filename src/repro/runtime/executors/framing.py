"""Schema-versioned, length-framed wire codec for the TCP executor.

The partitioning service (:mod:`repro.service`) speaks the same codec and
negotiates the same :data:`PROTOCOL_VERSION` in its ``host_hello``
handshake; its message kinds are defined and validated in
:mod:`repro.service.protocol` on top of this framing layer.

Every message on the wire is::

    [4-byte big-endian length][1-byte codec tag][payload]

where the length covers the tag byte plus the payload.  The one codec is
**safe** (tag ``0x02``): its payload is the 4-byte big-endian protocol
version, then the message as UTF-8 JSON in the v4 grammar:

- ``None``, bools, ints, floats (``NaN``/``Infinity`` included; a NaN
  arrives as the canonical NaN), strings, lists and str-keyed dicts are
  bare JSON; ``{"t": [...]}`` is a tuple and ``{"d": [[k, v], ...]}`` a
  dict with other keys;
- ``{"w": name, "f": {field: value}}`` is a *record*, an entry of the
  closed table in :func:`_record_table` (run specs, contexts, results,
  errors and the workload, platform, engine, policy and solver
  descriptions they carry).  The receiver calls the record's class with
  the fields, so its ``__init__``/``__post_init__`` checks run on peer
  data.  The two worker kernels travel as field-less records by fixed
  name; a ``RunSpec``'s driver travels as its
  :data:`~repro.experiments.registry.DRIVERS` name;
- **escape rule**: a str-keyed dict whose key set equals a marker's
  (``{"t": 1}``, ``{"w": .., "f": ..}``) travels in the ``"d"`` form, so
  a JSON object with a marker's key set is always that marker.

The sender refuses any other value (a set, a NumPy value, an unregistered
driver) and names its type; the receiver refuses an unknown record name or
fields the class rejects.  A name read off the wire selects a table entry
or nothing — never a module or a dotted path.  A driver registered by
extension code reaches TCP workers through the registry: start the worker
from a script that imports the registering module and then calls
:func:`~repro.runtime.executors.worker.run_worker`.

Any other tag is refused with a :class:`ProtocolError`; tag ``0x01``, the
removed pickle codec, is refused by name.  Version skew is detected twice:
every payload leads with its version (v1/v2 payloads led with a JSON
length and ``{"v": N``, which the refusal reads to name the peer's
version), and the worker handshake (``("hello", {...})``, see
:mod:`repro.runtime.executors.worker`) negotiates version and codec before
any run is dispatched.  Both surface as :class:`ProtocolError`.
"""

from __future__ import annotations

import dataclasses
import json
import socket
import struct
import types
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from repro.errors import ReproError, SimulationError

__all__ = [
    "PROTOCOL_VERSION",
    "CODEC_SAFE",
    "pack_frame",
    "send_frame",
    "recv_frame",
    "FrameReader",
    "FrameProtocolError",
    "ProtocolError",
    "MAX_FRAME",
    "enable_keepalive",
    "decode_payload",
]

#: Version of the safe wire protocol.  Bump on any change to the frame
#: layout, the payload prefix, or the grammar; mismatched peers refuse each
#: other loudly at handshake time instead of misparsing.
PROTOCOL_VERSION = 4

#: The wire codec workers advertise in their hello; the only one there is.
CODEC_SAFE = "safe"

_TAG_SAFE = 0x02


class FrameProtocolError(SimulationError):
    """The byte stream violates the framing protocol (corruption/version skew).

    Distinct from plain connection loss (EOF mid-frame), which peers treat
    as a clean shutdown: a protocol violation should surface as a failure.
    """


#: The public name for wire-protocol violations (version skew, refused
#: codecs, unlisted records); ``FrameProtocolError`` is the historical
#: alias and remains the actual class for isinstance checks.
ProtocolError = FrameProtocolError


def enable_keepalive(sock: socket.socket) -> None:
    """Detect a silently vanished peer at the kernel level.

    Without this a half-open connection (peer host powered off, network
    partition with no FIN/RST) would block reads forever.  With keepalive
    the kernel probes an idle peer and delivers an error a couple of
    minutes after it stops answering.  The tuning knobs are Linux-specific;
    elsewhere the system defaults apply.  Best-effort: both sides of the
    executor transport still handle EOF/RST without it.
    """
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
        if hasattr(socket, "TCP_KEEPIDLE"):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPIDLE, 60)
        if hasattr(socket, "TCP_KEEPINTVL"):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPINTVL, 10)
        if hasattr(socket, "TCP_KEEPCNT"):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_KEEPCNT, 5)
    except OSError:
        pass


_HEADER = struct.Struct(">I")

#: Upper bound on one frame's payload; a corrupt length prefix fails fast
#: instead of attempting a multi-gigabyte allocation.
MAX_FRAME = 1 << 30


# ---------------------------------------------------------------------------
# The record table
# ---------------------------------------------------------------------------


class _Record(NamedTuple):
    """How one listed value becomes named fields, and back."""

    #: The class of the record's instances; for a kernel, the function.
    key: Any
    #: ``value -> {field: value}``.
    fields: Callable[[Any], Dict[str, Any]]
    #: Called with the decoded fields as keyword arguments.
    build: Callable[..., Any]


def _dataclass_record(cls: type) -> _Record:
    names = tuple(f.name for f in dataclasses.fields(cls) if f.init)
    return _Record(cls, lambda obj: {n: getattr(obj, n) for n in names}, cls)


def _spec_record(cls: type) -> _Record:
    return _Record(cls, cls.to_dict, lambda **data: cls.from_dict(data))


def _kernel_record(kernel: Callable) -> _Record:
    return _Record(kernel, lambda _: {}, lambda: kernel)


_TABLE: Optional[Dict[str, _Record]] = None
_BY_KEY: Dict[Any, Tuple[str, _Record]] = {}


def _record_table() -> Dict[str, _Record]:
    """Record name -> entry: everything but plain data that may travel.

    Built once, on first use, from fixed imports (the experiments layer
    imports this module's package, so they cannot run at import time).
    """
    global _TABLE
    if _TABLE is not None:
        return _TABLE
    from repro.core.types import WayAllocation
    from repro.experiments.registry import DRIVERS
    from repro.experiments.specs import PolicySpec, SolverSpec
    from repro.experiments.study import StaticContext, _static_scenario_worker
    from repro.hardware.platform import PlatformSpec
    from repro.runtime.engine import EngineConfig
    from repro.runtime.executors.base import RunContext, RunSpec, TaskError, execute_run
    from repro.runtime.multirun import RunGroup
    from repro.runtime.results import (
        AppRunStats,
        RepartitionEvent,
        RunResult,
        TracePoint,
    )
    from repro.workloads.generator import Workload

    def run_spec_fields(spec: RunSpec) -> Dict[str, Any]:
        names = [n for n in DRIVERS.names() if DRIVERS.resolve(n) is spec.driver_cls]
        if not names:
            raise FrameProtocolError(
                f"driver {getattr(spec.driver_cls, '__qualname__', spec.driver_cls)!r} "
                f"is not registered in DRIVERS; only registered drivers travel "
                f"over the wire (register it with register_driver in a module "
                f"the worker imports)"
            )
        return {
            "workload": spec.workload,
            "driver_cls": names[0],
            "driver_kwargs": dict(spec.driver_kwargs),
            "config": spec.config,
            "label": spec.label,
        }

    def run_spec(driver_cls: str, **fields: Any) -> RunSpec:
        return RunSpec(driver_cls=DRIVERS.resolve(driver_cls), **fields)

    table = {
        "RunSpec": _Record(RunSpec, run_spec_fields, run_spec),
        "PolicySpec": _spec_record(PolicySpec),
        "SolverSpec": _spec_record(SolverSpec),
        "execute_run": _kernel_record(execute_run),
        "static_scenario": _kernel_record(_static_scenario_worker),
    }
    for cls in (
        RunContext, StaticContext, RunGroup, RunResult, AppRunStats,
        RepartitionEvent, TracePoint, WayAllocation, TaskError, Workload,
        PlatformSpec, EngineConfig,
    ):
        table[cls.__name__] = _dataclass_record(cls)
    _BY_KEY.update((entry.key, (name, entry)) for name, entry in table.items())
    _TABLE = table
    return table


# ---------------------------------------------------------------------------
# The v4 encoder / decoder (grammar in the module docstring)
# ---------------------------------------------------------------------------

#: Values the JSON encoder writes and the JSON parser reads back as exactly
#: themselves.  Subclasses (an IntEnum, NumPy's float64) are refused.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))

#: Every marker's key set; a str-keyed dict with one of them is escaped.
_MARKERS = frozenset((frozenset(("t",)), frozenset(("d",)), frozenset(("w", "f"))))


def _encode(obj: Any) -> Any:
    cls = type(obj)
    if cls in _JSON_SCALARS:
        return obj
    if cls is list:
        return [v if type(v) in _JSON_SCALARS else _encode(v) for v in obj]
    if cls is dict:
        if (len(obj) > 2 or frozenset(obj) not in _MARKERS) and all(
            type(k) is str for k in obj
        ):
            return {
                k: v if type(v) in _JSON_SCALARS else _encode(v)
                for k, v in obj.items()
            }
        return {"d": [[_encode(k), _encode(v)] for k, v in obj.items()]}
    if cls is tuple:
        return {"t": [v if type(v) in _JSON_SCALARS else _encode(v) for v in obj]}
    names = _record_table()
    found = _BY_KEY.get(obj if cls is types.FunctionType else cls)
    if found is None:
        what = obj if isinstance(obj, (type, types.FunctionType)) else cls
        raise FrameProtocolError(
            f"{what.__module__}.{what.__qualname__} is not wire-encodable: the "
            f"wire carries plain data (None, bools, ints, floats, strings, "
            f"lists, tuples, dicts) and the records {', '.join(sorted(names))}"
        )
    name, entry = found
    try:
        fields = entry.fields(obj)
    except FrameProtocolError:
        raise
    except ReproError as exc:
        raise FrameProtocolError(f"{name} record refused: {exc}") from exc
    return {"w": name, "f": _encode(fields)}


def _record(name: Any, fields: Any) -> Any:
    entry = _record_table().get(name) if type(name) is str else None
    if entry is None:
        raise FrameProtocolError(f"frame names unknown record {name!r}")
    if type(fields) is not dict:
        raise FrameProtocolError(
            f"record {name!r} carries {type(fields).__name__} fields, not a dict"
        )
    try:
        return entry.build(**fields)
    except Exception as exc:  # whatever the class refuses, the frame is bad
        raise FrameProtocolError(
            f"invalid {name} record: {type(exc).__name__}: {exc}"
        ) from None


def _object_hook(node: Dict[str, Any]) -> Any:
    """Rebuild markers bottom-up; the parser hands over finished members."""
    size = len(node)
    if size == 1:
        if "t" in node:
            items = node["t"]
            if type(items) is list:
                return tuple(items)
            raise FrameProtocolError("tuple marker without a list")
        if "d" in node:
            return dict(node["d"])
    elif size == 2 and "w" in node and "f" in node:
        return _record(node["w"], node["f"])
    return node


_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_JSON_DECODER = json.JSONDecoder(object_hook=_object_hook)

#: ``[version]``, then the JSON.
_PREFIX = struct.Struct(">I")


def _claimed_version(payload: memoryview, head: int) -> Any:
    """The protocol a refused payload speaks.

    From v3 on the payload leads with its version; v1/v2 envelopes lead
    with their JSON length, and their JSON opens with ``{"v": N``.
    """
    if payload[4:9] == b'{"v":':
        try:
            return json.loads(str(payload[4 : 4 + head], "utf-8"))["v"]
        except (ValueError, TypeError, KeyError):
            pass
    return head


def decode_payload(payload: Union[bytes, bytearray, memoryview]) -> Any:
    """Parse a safe payload (version prefix, then JSON) into its message."""
    view = memoryview(payload)
    if len(view) < _PREFIX.size:
        raise FrameProtocolError("truncated safe frame: missing version prefix")
    (version,) = _PREFIX.unpack_from(view)
    if version != PROTOCOL_VERSION:
        raise FrameProtocolError(
            f"peer speaks wire protocol {_claimed_version(view, version)!r}, "
            f"this build speaks {PROTOCOL_VERSION}; upgrade the older side"
        )
    try:
        return _JSON_DECODER.decode(str(view[_PREFIX.size :], "utf-8"))
    except FrameProtocolError:
        raise
    except (TypeError, ValueError, RecursionError) as exc:
        raise FrameProtocolError(f"corrupt safe frame: {exc}")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def _decode_body(body: Union[bytes, bytearray]) -> Any:
    if not body:
        raise FrameProtocolError("empty frame (no codec tag)")
    tag = body[0]
    if tag == _TAG_SAFE:
        return decode_payload(memoryview(body)[1:])
    if tag == 0x01:
        raise FrameProtocolError(
            "peer sent a pickle frame (codec tag 0x01); the pickle codec was "
            "removed and only the safe codec (tag 0x02) is accepted"
        )
    raise FrameProtocolError(f"unknown codec tag 0x{tag:02x} (known: 0x02=safe)")


_TAG_AND_VERSION = bytes((_TAG_SAFE,)) + _PREFIX.pack(PROTOCOL_VERSION)


def pack_frame(obj: Any) -> bytes:
    """Serialize one message: length prefix + codec tag + payload."""
    try:
        body = _JSON_ENCODER.encode(_encode(obj)).encode("utf-8")
    except FrameProtocolError:
        raise
    except (TypeError, ValueError, RecursionError) as exc:
        raise FrameProtocolError(f"message is not wire-encodable: {exc}")
    size = _PREFIX.size + len(body)
    if 1 + size > MAX_FRAME:
        raise FrameProtocolError(
            f"message of {size} bytes exceeds the {MAX_FRAME}-byte frame limit"
        )
    return b"".join((_HEADER.pack(1 + size), _TAG_AND_VERSION, body))


def send_frame(sock: socket.socket, obj: Any) -> None:
    """Blocking send of one framed message."""
    sock.sendall(pack_frame(obj))


def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes, or None on a clean EOF at a frame boundary."""
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise SimulationError("connection closed mid-frame")
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Any]:
    """Blocking receive of one framed message; None on clean EOF."""
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise FrameProtocolError(f"frame of {length} bytes exceeds the frame limit")
    body = _recv_exactly(sock, length)
    if body is None:
        raise SimulationError("connection closed between frame header and payload")
    return _decode_body(body)


class FrameReader:
    """Incremental frame parser for non-blocking sockets.

    Corruption — an oversized length prefix, an unknown or removed codec
    tag, a malformed envelope — raises :class:`FrameProtocolError` out of
    :meth:`feed`; truncation (bytes simply missing) never raises, the parser
    just waits for more input.  The link server turns a raise into a dropped
    link with a recorded reason, never an event-loop crash.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def pending(self) -> int:
        """Bytes buffered but not yet parsed into a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> Iterator[Any]:
        """Absorb raw bytes; yield every complete message now available."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack(self._buffer[: _HEADER.size])
            if length > MAX_FRAME:
                raise FrameProtocolError(
                    f"frame of {length} bytes exceeds the frame limit"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            body = self._buffer[_HEADER.size : end]
            del self._buffer[:end]
            yield _decode_body(body)
