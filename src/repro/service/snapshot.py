"""CRC-guarded snapshot files for the partitioning daemon.

A snapshot is one JSON document wrapping
:meth:`~repro.service.session.ServiceCore.to_state`, written as one line
with the envelope keys in sorted order:

.. code-block:: json

    {"crc32": 123456789, "format": "repro-service-snapshot", "state": {...}, "version": 1}

The checksum covers the canonical serialization of ``state``
(``json.dumps(..., sort_keys=True, separators=(",", ":"))``), and the
file embeds exactly those bytes, so a save encodes the state once.
Loading parses the whole document and re-serializes the parsed state to
verify it, so it accepts any JSON layout of the same envelope (files
whose state was written with default separators load too).  Floats
round-trip exactly through JSON (``repr`` is shortest-round-trip), so
the canonical bytes are reproducible and a flipped bit anywhere in the
state is caught before a daemon resumes from it.  Writes go through a
temp file in the target directory followed by :func:`os.replace`, so a
daemon killed mid-write leaves the previous snapshot intact rather than
a torn file — "restore from the latest snapshot" always means the latest
*complete* one.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict

from repro.errors import SimulationError
from repro.service.session import ServiceCore

__all__ = ["SNAPSHOT_FORMAT", "load_snapshot", "save_snapshot"]

SNAPSHOT_FORMAT = "repro-service-snapshot"
_ENVELOPE_VERSION = 1


def _canonical(state: Dict[str, Any]) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_snapshot(core: ServiceCore, path: str) -> None:
    """Atomically persist ``core``'s full control-plane state to ``path``."""
    body = _canonical(core.to_state())
    crc = zlib.crc32(body) & 0xFFFFFFFF
    # The envelope is written around the canonical bytes the CRC covers;
    # its keys appear in sorted order, as json.dumps(sort_keys=True) has them.
    head = (
        f'{{"crc32": {crc}, "format": {json.dumps(SNAPSHOT_FORMAT)}, "state": '
    ).encode("utf-8")
    tail = f', "version": {_ENVELOPE_VERSION}}}\n'.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp_path, "wb") as handle:
        handle.writelines((head, body, tail))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)


def load_snapshot(path: str) -> ServiceCore:
    """Rebuild a :class:`ServiceCore` from a snapshot file, verifying the CRC."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except ValueError as exc:
        raise SimulationError(f"corrupt service snapshot {path}: {exc}") from exc
    if not isinstance(envelope, dict) or envelope.get("format") != SNAPSHOT_FORMAT:
        raise SimulationError(f"{path} is not a {SNAPSHOT_FORMAT} file")
    if envelope.get("version") != _ENVELOPE_VERSION:
        raise SimulationError(
            f"unsupported snapshot envelope version {envelope.get('version')!r} "
            f"in {path} (this build speaks {_ENVELOPE_VERSION})"
        )
    state = envelope.get("state")
    if not isinstance(state, dict):
        raise SimulationError(f"snapshot {path} has no state object")
    expected = envelope.get("crc32")
    actual = zlib.crc32(_canonical(state)) & 0xFFFFFFFF
    if expected != actual:
        raise SimulationError(
            f"snapshot {path} failed its CRC check "
            f"(stored {expected!r}, computed {actual})"
        )
    return ServiceCore.from_state(state)
