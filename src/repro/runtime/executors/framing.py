"""Schema-versioned, length-framed wire codec for the TCP executor.

The partitioning service (:mod:`repro.service`) speaks the same codec and
negotiates the same :data:`PROTOCOL_VERSION` in its ``host_hello``
handshake; its message kinds (``host_hello``, ``app_arrive``,
``app_depart``, ``monitor_samples``, ``mask_update``, ``host_bye``) are
defined and validated in :mod:`repro.service.protocol` on top of this
framing layer.

Every message on the wire is::

    [4-byte big-endian length][1-byte codec tag][payload]

where the length covers the tag byte plus the payload.  The one codec is
**safe** (tag ``0x02``): stdlib JSON plus raw binary sections for NumPy
arrays and byte strings, behind a binary prefix::

    [4-byte version][4-byte JSON length][4-byte section count n]
    [n x 4-byte section length][UTF-8 JSON][section 0]...[section n-1]

All integers are big-endian.  The prefix carries the protocol version
and the section table, so the sections are known before the JSON is
parsed.  The JSON is the message itself in the v3 grammar:

- ``None``, bools, ints, floats (``NaN``/``Infinity`` included; a NaN
  arrives as the canonical NaN), strings, lists and str-keyed dicts are
  bare JSON;
- every other value is a *marker* object, named by its key set:
  ``{"t": [...]}`` a tuple, ``{"d": [[k, v], ...]}`` a dict with other
  keys, ``{"od": [[k, v], ...]}`` an OrderedDict, ``{"s": [...]}`` /
  ``{"fs": [...]}`` a set / frozenset, ``{"dq": [...], "mx": maxlen}``
  a deque, ``{"by": i}`` / ``{"ba": i}`` bytes / a bytearray in section
  ``i``, ``{"nd": i, "dt": dtype, "sh": shape}`` an ndarray,
  ``{"ns": i, "dt": dtype}`` a NumPy scalar, ``{"r": "module:qualname"}``
  a class or function, ``{"nt": ref, "a": [...]}`` a namedtuple and
  ``{"o": ref, "st": state}`` any other instance;
- **escape rule**: a str-keyed dict whose key set equals a marker's
  (``{"t": 1}``, ``{"o": .., "st": ..}``) travels in the ``"d"`` pairs
  form, so a JSON object with a marker's key set is always that marker.

The decoder is one ``json.loads`` with an ``object_hook`` that rebuilds
markers bottom-up; objects with more than three keys are returned at
once.  Classes and functions travel only as references, and instances
as a reference plus their encoded state — *never* as executable
payloads.  The hook only resolves references into an allowlist of
trusted module prefixes (``repro`` and anything added with
:func:`trust_modules` or the ``REPRO_TRUSTED_MODULES`` environment
variable), so a hostile peer cannot make the receiver import or call
arbitrary code.

Any other tag is refused with a :class:`ProtocolError`; tag ``0x01``, the
removed legacy codec, is refused by name.

Version skew is detected twice: every safe payload leads with
:data:`PROTOCOL_VERSION` (v1/v2 payloads led with a JSON length and
``{"v": N``, which the refusal reads to name the peer's version), and the
worker handshake (``("hello", {...})``, see
:mod:`repro.runtime.executors.worker`) negotiates version and codec before
any run is dispatched.  Both mismatches surface as
:class:`ProtocolError`, never as silent misbehaviour.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import socket
import struct
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from repro.errors import SimulationError

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
    "trust_modules",
]

#: Version of the safe wire protocol.  Bump on any change to the frame
#: layout, the payload prefix, or the grammar; mismatched peers refuse each
#: other loudly at handshake time instead of misparsing.
PROTOCOL_VERSION = 3

#: The wire codec workers advertise in their hello; the only one there is.
CODEC_SAFE = "safe"

_TAG_SAFE = 0x02


class FrameProtocolError(SimulationError):
    """The byte stream violates the framing protocol (corruption/version skew).

    Distinct from plain connection loss (EOF mid-frame), which peers treat
    as a clean shutdown: a protocol violation should surface as a failure.
    """


#: The public name for wire-protocol violations (version skew, refused
#: codecs, untrusted references); ``FrameProtocolError`` is the historical
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
# Trust policy for decoded references
# ---------------------------------------------------------------------------

_TRUSTED_PREFIXES: List[str] = ["repro"]
for _extra in os.environ.get("REPRO_TRUSTED_MODULES", "").split(","):
    _extra = _extra.strip()
    if _extra and _extra not in _TRUSTED_PREFIXES:
        _TRUSTED_PREFIXES.append(_extra)


def trust_modules(*prefixes: str) -> None:
    """Allow the safe decoder to resolve references into these module trees.

    ``repro`` is always trusted.  Extensions that register their own
    policies or drivers call this once (in the module that defines them) so
    their instances can cross the wire; workers inherit the setting through
    the ``REPRO_TRUSTED_MODULES`` environment variable (comma-separated
    prefixes).
    """
    for prefix in prefixes:
        if prefix and prefix not in _TRUSTED_PREFIXES:
            _TRUSTED_PREFIXES.append(prefix)


def _is_trusted(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _TRUSTED_PREFIXES
    )


def _resolve_ref(path: str) -> Any:
    module_name, sep, qualname = path.partition(":")
    if not sep or not module_name or not qualname:
        raise FrameProtocolError(f"malformed object reference {path!r}")
    if not _is_trusted(module_name):
        raise FrameProtocolError(
            f"frame references {path!r} but module {module_name!r} is not a "
            f"trusted prefix ({', '.join(_TRUSTED_PREFIXES)}); extensions must "
            f"opt in via repro.runtime.executors.framing.trust_modules or the "
            f"REPRO_TRUSTED_MODULES environment variable"
        )
    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise FrameProtocolError(f"cannot resolve reference {path!r}: {exc}")
    return obj


def _ref_path(obj: Any) -> str:
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<locals>" in qualname:
        raise FrameProtocolError(
            f"{obj!r} is not wire-encodable: only module-level functions and "
            f"classes can travel by reference"
        )
    path = f"{module}:{qualname}"
    try:
        resolved: Any = importlib.import_module(module)
        for part in qualname.split("."):
            resolved = getattr(resolved, part)
    except (ImportError, AttributeError):
        resolved = None
    if resolved is not obj:
        raise FrameProtocolError(
            f"{obj!r} does not round-trip through its reference {path!r}; "
            f"ship a module-level object instead"
        )
    return path


# ---------------------------------------------------------------------------
# The v3 encoder / decoder (grammar in the module docstring)
# ---------------------------------------------------------------------------

_OBJECT_GETSTATE = getattr(object, "__getstate__", None)
_OBJECT_SETSTATE = getattr(object, "__setstate__", None)

#: Values the JSON encoder writes and the JSON parser reads back as exactly
#: themselves.  Subclasses (an IntEnum, NumPy's float64) take the slow path.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _object_state(obj: Any) -> Any:
    """Extract restorable state without ever consulting ``__reduce__``."""
    cls = type(obj)
    getstate = getattr(cls, "__getstate__", None)
    if getstate is not None and getstate is not _OBJECT_GETSTATE:
        return obj.__getstate__()
    instance_dict = getattr(obj, "__dict__", None)
    slots: Dict[str, Any] = {}
    for klass in cls.__mro__:
        for name in getattr(klass, "__slots__", ()) or ():
            if name in ("__dict__", "__weakref__"):
                continue
            if hasattr(obj, name):
                slots[name] = getattr(obj, name)
    if slots:
        return (dict(instance_dict) if instance_dict else None, slots)
    if instance_dict is None:
        return None
    return dict(instance_dict)


def _restore_state(obj: Any, state: Any) -> None:
    cls = type(obj)
    setstate = getattr(cls, "__setstate__", None)
    if setstate is not None and setstate is not _OBJECT_SETSTATE:
        obj.__setstate__(state)
        return
    if state is None:
        return
    if isinstance(state, tuple) and len(state) == 2 and isinstance(state[1], dict):
        instance_dict, slots = state
        if instance_dict:
            obj.__dict__.update(instance_dict)
        for name, value in slots.items():
            object.__setattr__(obj, name, value)
        return
    if isinstance(state, dict):
        obj.__dict__.update(state)
        return
    raise FrameProtocolError(
        f"cannot restore {type(obj).__name__} from state of type "
        f"{type(state).__name__}"
    )


class _Encoder:
    def __init__(self) -> None:
        self.sections: List[bytes] = []

    def _section(self, data: bytes) -> int:
        self.sections.append(data)
        return len(self.sections) - 1

    def _pairs(self, items: Any) -> List[List[Any]]:
        return [[self.encode(k), self.encode(v)] for k, v in items]

    def encode(self, obj: Any) -> Any:
        cls = type(obj)
        if cls in _JSON_SCALARS:
            return obj
        if cls is list:
            encode = self.encode
            return [v if type(v) in _JSON_SCALARS else encode(v) for v in obj]
        if cls is dict:
            if all(type(k) is str for k in obj) and (
                len(obj) > 3 or frozenset(obj) not in _MARKERS
            ):
                encode = self.encode
                return {
                    k: v if type(v) in _JSON_SCALARS else encode(v)
                    for k, v in obj.items()
                }
            return {"d": self._pairs(obj.items())}
        if cls is tuple:
            encode = self.encode
            return {"t": [v if type(v) in _JSON_SCALARS else encode(v) for v in obj]}
        if obj is None or isinstance(obj, (bool, str)):
            return obj
        if isinstance(obj, (int, float)) and not isinstance(obj, np.generic):
            return obj
        if isinstance(obj, np.ndarray):
            if obj.dtype.hasobject or obj.dtype.names:
                raise FrameProtocolError(
                    f"ndarray dtype {obj.dtype} is not wire-encodable "
                    f"(object/structured dtypes cannot cross the safe codec)"
                )
            contiguous = np.ascontiguousarray(obj)
            return {
                "nd": self._section(contiguous.tobytes()),
                "dt": obj.dtype.str,
                "sh": list(obj.shape),
            }
        if isinstance(obj, np.generic):
            return {"ns": self._section(obj.tobytes()), "dt": obj.dtype.str}
        if isinstance(obj, bytes):
            return {"by": self._section(obj)}
        if isinstance(obj, bytearray):
            return {"ba": self._section(bytes(obj))}
        if isinstance(obj, tuple) and hasattr(obj, "_fields"):
            # namedtuple: rebuilt through its class
            return {"nt": _ref_path(cls), "a": [self.encode(v) for v in obj]}
        if cls is frozenset:
            return {"fs": [self.encode(v) for v in obj]}
        if cls is set:
            return {"s": [self.encode(v) for v in obj]}
        if isinstance(obj, collections.OrderedDict):
            return {"od": self._pairs(obj.items())}
        if isinstance(obj, collections.deque):
            return {"dq": [self.encode(v) for v in obj], "mx": obj.maxlen}
        if isinstance(obj, (dict, list, tuple, set, frozenset)):
            # A silently degraded container subclass (defaultdict losing its
            # factory, a custom list losing its type) is a latent bug on the
            # far side; refuse loudly at send time instead.
            raise FrameProtocolError(
                f"container subclass {cls.__name__} is not wire-encodable; "
                f"ship a plain container (or an OrderedDict/deque, which are "
                f"supported)"
            )
        if isinstance(obj, (type, types.FunctionType, types.BuiltinFunctionType)):
            return {"r": _ref_path(obj)}
        # Everything else is an instance: reference + encoded state.
        try:
            state = _object_state(obj)
        except Exception as exc:
            raise FrameProtocolError(
                f"cannot extract wire state from {cls.__name__}: {exc}"
            )
        return {"o": _ref_path(cls), "st": self.encode(state)}


def _section(sections: List[bytes], index: Any) -> bytes:
    if type(index) is not int or not 0 <= index < len(sections):
        raise FrameProtocolError(f"frame references missing section {index!r}")
    return sections[index]


def _ndarray(node: Dict[str, Any], sections: List[bytes]) -> np.ndarray:
    raw = _section(sections, node["nd"])
    try:
        array = np.frombuffer(raw, dtype=np.dtype(node["dt"]))
        return array.reshape(tuple(node["sh"])).copy()
    except ValueError as exc:
        raise FrameProtocolError(f"corrupt ndarray section: {exc}")


def _numpy_scalar(node: Dict[str, Any], sections: List[bytes]) -> Any:
    raw = _section(sections, node["ns"])
    try:
        return np.frombuffer(raw, dtype=np.dtype(node["dt"]))[0]
    except (ValueError, IndexError) as exc:
        raise FrameProtocolError(f"corrupt numpy scalar section: {exc}")


def _namedtuple(node: Dict[str, Any], sections: List[bytes]) -> tuple:
    cls = _resolve_ref(node["nt"])
    if not (isinstance(cls, type) and issubclass(cls, tuple)):
        raise FrameProtocolError(
            f"namedtuple reference {node['nt']!r} is not a tuple class"
        )
    return cls(*node["a"])


def _instance(node: Dict[str, Any], sections: List[bytes]) -> Any:
    cls = _resolve_ref(node["o"])
    if not isinstance(cls, type):
        raise FrameProtocolError(f"instance reference {node['o']!r} is not a class")
    obj = cls.__new__(cls)
    _restore_state(obj, node["st"])
    return obj


#: Marker key set -> rebuild(node, sections).  The JSON parser hands the
#: hook each object after its members are decoded, so rebuilders see
#: finished values.
_MARKERS: Dict[frozenset, Callable[[Dict[str, Any], List[bytes]], Any]] = {
    frozenset(("t",)): lambda node, sections: tuple(node["t"]),
    frozenset(("d",)): lambda node, sections: dict(node["d"]),
    frozenset(("od",)): lambda node, sections: collections.OrderedDict(node["od"]),
    frozenset(("s",)): lambda node, sections: set(node["s"]),
    frozenset(("fs",)): lambda node, sections: frozenset(node["fs"]),
    frozenset(("by",)): lambda node, sections: _section(sections, node["by"]),
    frozenset(("ba",)): lambda node, sections: bytearray(
        _section(sections, node["ba"])
    ),
    frozenset(("r",)): lambda node, sections: _resolve_ref(node["r"]),
    frozenset(("dq", "mx")): lambda node, sections: collections.deque(
        node["dq"], maxlen=node["mx"]
    ),
    frozenset(("nd", "dt", "sh")): _ndarray,
    frozenset(("ns", "dt")): _numpy_scalar,
    frozenset(("nt", "a")): _namedtuple,
    frozenset(("o", "st")): _instance,
}


def _json_decoder(sections: List[bytes]) -> json.JSONDecoder:
    def object_hook(node: Dict[str, Any]) -> Any:
        if len(node) > 3:  # no marker has more than three keys
            return node
        rebuild = _MARKERS.get(frozenset(node))
        return node if rebuild is None else rebuild(node, sections)

    return json.JSONDecoder(object_hook=object_hook)


_JSON_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)
_SECTIONLESS_DECODER = _json_decoder([])

#: ``[version][JSON length][section count]``, then one length per section.
_PREFIX = struct.Struct(">III")


def _payload_parts(obj: Any) -> List[bytes]:
    encoder = _Encoder()
    try:
        body = _JSON_ENCODER.encode(encoder.encode(obj)).encode("utf-8")
    except FrameProtocolError:
        raise
    except (TypeError, ValueError, RecursionError) as exc:
        raise FrameProtocolError(f"message is not wire-encodable: {exc}")
    sections = encoder.sections
    prefix = _PREFIX.pack(PROTOCOL_VERSION, len(body), len(sections))
    if sections:
        lengths = struct.pack(f">{len(sections)}I", *map(len, sections))
        return [prefix, lengths, body, *sections]
    return [prefix, body]


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
    """Parse a safe envelope (binary prefix, JSON, sections) into its message."""
    view = memoryview(payload)
    size = len(view)
    if size < _PREFIX.size:
        raise FrameProtocolError("truncated safe frame: missing envelope header")
    version, json_len, count = _PREFIX.unpack_from(view)
    if version != PROTOCOL_VERSION:
        raise FrameProtocolError(
            f"peer speaks wire protocol {_claimed_version(view, version)!r}, "
            f"this build speaks {PROTOCOL_VERSION}; upgrade the older side"
        )
    offset = _PREFIX.size + 4 * count
    if offset > size:
        raise FrameProtocolError(
            "corrupt safe frame: section table exceeds the payload"
        )
    lengths = struct.unpack_from(f">{count}I", view, _PREFIX.size)
    json_end = offset + json_len
    end = json_end + sum(lengths)
    if end > size:
        raise FrameProtocolError(
            f"corrupt safe frame: envelope claims {end - _PREFIX.size} bytes "
            f"of JSON and sections but only {size - _PREFIX.size} follow"
        )
    if end != size:
        raise FrameProtocolError(
            f"corrupt safe frame: {size - end} trailing bytes after the last "
            f"section"
        )
    decoder = _SECTIONLESS_DECODER
    if count:
        sections: List[bytes] = []
        start = json_end
        for length in lengths:
            sections.append(view[start : start + length].tobytes())
            start += length
        decoder = _json_decoder(sections)
    try:
        return decoder.decode(str(view[offset:json_end], "utf-8"))
    except FrameProtocolError:
        raise
    except (TypeError, ValueError, KeyError, IndexError, AttributeError,
            RecursionError) as exc:
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


def pack_frame(obj: Any) -> bytes:
    """Serialize one message: length prefix + codec tag + payload."""
    parts = _payload_parts(obj)
    size = sum(map(len, parts))
    if 1 + size > MAX_FRAME:
        raise FrameProtocolError(
            f"message of {size} bytes exceeds the {MAX_FRAME}-byte frame limit"
        )
    return b"".join([_HEADER.pack(1 + size), b"\x02", *parts])


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
