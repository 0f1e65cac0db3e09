"""The JSONL result files of studies and tournaments: one grammar, two read policies.

Each line is one JSON object whose ``record`` field names its kind and whose
``crc`` field is the :func:`record_crc` of the rest.  :func:`dump_record`
writes a line and :func:`read_records` reads lines back; nothing else in the
package encodes, decodes or checks a record.

A study file is a ``study`` header, then per scenario a ``scenario`` record,
its ``row`` and ``failure`` records and a closing ``scenario_end`` marker
(:func:`scenario_block`).  :meth:`StudyResult.save` writes one in one go;
:class:`StudyCheckpoint` appends one completed scenario at a time (a
buffered write, ``flush`` and ``fsync``), so a study killed mid-run loses at
most the scenario it was computing.  :func:`read_study` applies the grammar
for two read policies:

* **strict**, :meth:`StudyResult.load`: a torn final line, a failed CRC
  and an unfinished scenario of a checkpoint are refused;
* **lenient**, :meth:`StudyCheckpoint.load_completed` (``run_study(...,
  resume=True)``): a torn final line is dropped, reading stops with a
  warning at a failed CRC, and only scenarios whose ``scenario_end`` is on
  disk count.  :meth:`StudyCheckpoint.start` truncates the file after the
  last of them, so a resume recomputes exactly the missing scenarios.

A breach of the grammar is a :class:`~repro.errors.SpecError` under both
policies.  Tournament files (:mod:`repro.tournament.leaderboard`) have
their own record kinds but the same reader and writer.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from repro.errors import SpecError

__all__ = [
    "StudyCheckpoint",
    "dump_record",
    "read_records",
    "read_study",
    "record_crc",
    "scenario_block",
]

_SCENARIO_KEYS = {"scenario", "scenario_id", "kind", "seed", "workloads"}


def record_crc(record: Mapping[str, Any]) -> int:
    """Checksum of a record's payload — everything but ``record``/``crc``.

    Computed over the canonical JSON form (sorted keys), so it is stable
    across a write/parse round-trip and across key insertion order.  A
    mismatch on read means the line was corrupted *after* it was durably
    written (bit rot, partial overwrite), which torn-tail handling cannot
    catch.
    """
    payload = {k: v for k, v in record.items() if k not in ("record", "crc")}
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=True)
    return zlib.crc32(canonical.encode("utf-8"))


def dump_record(kind: str, payload: Mapping[str, Any]) -> str:
    """One result-file line (without its newline), stamped with its CRC."""
    record = {"record": kind, **payload}
    record["crc"] = record_crc(record)
    return json.dumps(record)


def scenario_block(scenario) -> str:
    """The newline-terminated records of one finished scenario."""
    scenario_id = scenario.scenario_id
    lines = [dump_record("scenario", scenario.meta())]
    for kind, payloads in (("row", scenario.rows), ("failure", scenario.failures)):
        lines += [
            dump_record(kind, {"scenario_id": scenario_id, **payload})
            for payload in payloads
        ]
    lines.append(dump_record("scenario_end", {"scenario_id": scenario_id}))
    return "\n".join(lines) + "\n"


class Record(NamedTuple):
    """One non-blank line of a result file."""

    where: str  # "path:line", the prefix of every error about the line
    end: int  # byte offset just past the line
    kind: Optional[str]  # the ``record`` field
    data: Dict[str, Any]  # the payload, without ``record`` and ``crc``
    fault: Optional[str]  # why the line cannot be trusted, if it cannot
    torn: bool = False  # the fault is that the final line does not decode


def read_records(path) -> Iterator[Record]:
    """Decode a result file line by line.

    A line that is not a UTF-8 JSON object raises a ``path:line``
    :class:`~repro.errors.SpecError`, except the final line: a crash may
    have cut it short, so it is yielded as ``torn`` with a ``fault`` and the
    caller decides.  A record whose ``crc`` does not match its
    payload — or that has none, in a file whose first record has one — is
    yielded with a ``fault`` as well.
    """
    lines = Path(path).read_bytes().splitlines(keepends=True)
    end = 0
    signed: Optional[bool] = None  # does the first record carry a crc?
    for line_no, raw in enumerate(lines, start=1):
        end += len(raw)
        where = f"{path}:{line_no}"
        try:
            text = raw.decode("utf-8").strip()
            if not text:
                continue
            record = json.loads(text)
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
            fault = f"{where}: not valid JSONL: {exc}"
            if line_no < len(lines):
                raise SpecError(fault)
            yield Record(where, end, None, {}, fault, torn=True)
            return
        kind = record.pop("record", None)
        crc = record.pop("crc", None)
        if signed is None:
            signed = crc is not None
        fault = None
        if (crc is not None or signed) and crc != record_crc(record):
            fault = f"{where}: {kind} record failed its CRC check (corrupted line)"
        yield Record(where, end, kind, record, fault)


@dataclass
class StudyFile:
    """What :func:`read_study` found: every scenario block in file order,
    the prefix of them that ``scenario_end`` closed, the byte offset past the
    header or the last ``scenario_end``, and whether reading was ``cut``
    short at a torn final line or a failed CRC."""

    header: Optional[Dict[str, Any]] = None
    scenarios: List[Any] = field(default_factory=list)
    completed: List[Any] = field(default_factory=list)
    resume_offset: int = 0
    cut: bool = False


def read_study(path, *, lenient: bool) -> StudyFile:
    """Apply the study grammar to a result file.

    The ``study`` header comes first and only once; a ``scenario`` record
    opens a block, ``row`` and ``failure`` records belong to the open block,
    ``scenario_end`` closes it, and a scenario ID never repeats.  Only a
    marker-free file (the save format before ``scenario_end`` existed) may
    open a block while another is open.  A breach is a ``path:line``
    :class:`~repro.errors.SpecError`; so is a torn final line or a failed
    CRC unless ``lenient``, which stops reading there instead (with a
    warning for the CRC).
    """
    from repro.experiments.study import ScenarioResult

    found = StudyFile()
    current: Optional[ScenarioResult] = None  # the open block
    unended = False  # a block was left open by the next scenario record
    for rec in read_records(path):
        if rec.fault:
            if not lenient:
                raise SpecError(rec.fault)
            if not rec.torn:
                warnings.warn(
                    f"{rec.fault}; it and every record after it will be recomputed",
                    RuntimeWarning,
                    stacklevel=3,
                )
            found.cut = True
            break
        kind, data = rec.kind, rec.data
        scenario_id = data.get("scenario_id")
        if found.header is None:
            if kind != "study":
                raise SpecError(f"{rec.where}: {kind!r} record before the study header")
            found.header = data
            found.resume_offset = rec.end
        elif kind == "scenario":
            if set(data) != _SCENARIO_KEYS:
                raise SpecError(
                    f"{rec.where}: scenario record keys {sorted(data)} do not "
                    f"match the schema ({sorted(_SCENARIO_KEYS)})"
                )
            if any(s.scenario_id == scenario_id for s in found.scenarios):
                raise SpecError(f"{rec.where}: scenario {scenario_id!r} repeats")
            unended = unended or current is not None
            current = ScenarioResult(rows=[], **data)
            found.scenarios.append(current)
        elif kind in ("row", "failure", "scenario_end"):
            if current is None or scenario_id != current.scenario_id:
                raise SpecError(
                    f"{rec.where}: {kind} record for scenario {scenario_id!r}, "
                    f"which is not the open scenario block"
                )
            if kind == "scenario_end":
                found.completed.append(current)
                found.resume_offset = rec.end
                current = None
            else:
                (current.rows if kind == "row" else current.failures).append(data)
        elif kind == "study":
            raise SpecError(f"{rec.where}: a second study header")
        else:
            raise SpecError(f"{rec.where}: unknown record kind {kind!r}")
        if unended and found.completed:
            raise SpecError(
                f"{rec.where}: a scenario block ends without its scenario_end "
                f"marker in a file that uses them"
            )
    return found


class StudyCheckpoint:
    """Append-only study result file keyed by scenario ID (the resume path)."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        # Set by load_completed(); start(fresh=False) truncates to it so a
        # resume never appends after a torn line or an unfinished scenario.
        self._resume_offset: Optional[int] = None

    def exists(self) -> bool:
        return self.path.exists()

    def load_completed(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """``(header, completed)`` under the lenient policy.

        ``completed`` maps the IDs of the scenarios whose ``scenario_end``
        is on disk to their :class:`~repro.experiments.study.ScenarioResult`.
        A marker-free file without the header's ``checkpoint`` flag is a
        result saved before the checkpoint format: its complete scenarios
        cannot be told from crash debris, so it is refused rather than
        truncated.
        """
        found = read_study(self.path, lenient=True)
        header = found.header or {}
        self._resume_offset = found.resume_offset
        legacy = not (found.completed or found.cut or header.get("checkpoint"))
        if found.scenarios and legacy:
            raise SpecError(
                f"{self.path} contains scenario records but no scenario_end "
                f"markers — it predates the checkpoint format; re-save the "
                f"result with this version or start a fresh checkpoint"
            )
        return header, {s.scenario_id: s for s in found.completed}

    def start(
        self,
        *,
        name: str,
        description: str = "",
        spec: Optional[Dict[str, Any]] = None,
        fresh: bool,
    ) -> None:
        """Write the study header; ``fresh`` truncates, otherwise resume.

        On resume (``fresh=False``) an existing file keeps its on-disk
        header, but any crash debris after the last completed scenario — a
        torn trailing line, or an unfinished scenario's partial records — is
        truncated away (at the offset :meth:`load_completed` established),
        so the recomputed scenario is appended to a clean prefix instead of
        corrupting or duplicating records.
        """
        if not fresh and self.path.exists():
            if self._resume_offset is None:
                self.load_completed()
            if self.path.stat().st_size > self._resume_offset:
                with open(self.path, "r+b") as handle:
                    handle.truncate(self._resume_offset)
                    handle.flush()
                    os.fsync(handle.fileno())
            if self._resume_offset > 0:
                return
            # Nothing valid on disk (even the header was torn): fall through
            # and start the file over.
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # The checkpoint flag tells an interrupted checkpoint from a legacy
        # marker-free result store (see load_completed).
        header = {"name": name, "description": description, "spec": spec}
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(dump_record("study", {**header, "checkpoint": 1}) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, scenario) -> None:
        """Durably append one completed scenario (records + end marker)."""
        # A crash can cut a previous write exactly one byte short, leaving a
        # valid final record with no trailing newline; appending straight
        # after it would weld two records into one unparseable line.
        prefix = ""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    prefix = "\n"
        except (OSError, ValueError):
            pass  # missing or empty file: nothing to terminate
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(prefix + scenario_block(scenario))
            handle.flush()
            os.fsync(handle.fileno())
