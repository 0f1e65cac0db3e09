"""The one spec file format layer: JSON and TOML, both directions.

:func:`read_spec_file` is the one loader of study, tournament and service
spec files: it picks the format from the ``.toml`` / ``.json`` suffix and
turns every read or parse failure into a :class:`~repro.errors.SpecError`.
TOML is read with the standard library's ``tomllib`` (Python 3.11+) or, on
Python 3.10, the ``tomli`` backport it was taken from; without either, TOML
files are refused with a message that says so.  :func:`write_spec_file`
writes any spec's ``to_dict`` back out.  Writing TOML has no stdlib
counterpart, so :func:`toml_dumps` implements the subset the spec schema
needs — scalars, homogeneous arrays, nested tables and arrays of tables —
and the round-trip is pinned by the test suite
(``tomllib.loads(toml_dumps(d)) == d``).  Each spec kind keeps only its own
wrapper on top: ``load_study_spec`` here, ``load_tournament_spec`` in
:mod:`repro.tournament.grid` and :meth:`ServiceSpec.load
<repro.experiments.specs.ServiceSpec.load>` (which accepts a ``[service]``
table).
"""

from __future__ import annotations

import json
import math

try:  # stdlib from Python 3.11; 3.10 falls back to the tomli backport if present
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised only on 3.10
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]
from pathlib import Path
from typing import Any, List, Mapping, Sequence, Union

from repro.errors import SpecError
from repro.experiments.specs import StudySpec

__all__ = [
    "toml_dumps",
    "read_spec_file",
    "parse_spec_text",
    "write_spec_file",
    "study_to_json",
    "study_from_json",
    "study_to_toml",
    "study_from_toml",
    "load_study_spec",
    "dump_study_spec",
]


# ---------------------------------------------------------------------------
# Minimal TOML emitter
# ---------------------------------------------------------------------------


def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SpecError(f"TOML cannot represent non-finite float {value!r}")
        text = repr(value)
        # repr(float) always contains '.', 'e' or 'inf'/'nan'; the first two
        # are valid TOML floats as-is.
        return text
    if isinstance(value, str):
        # JSON string escaping is a subset of TOML basic-string escaping.
        return json.dumps(value)
    raise SpecError(f"cannot serialize {type(value).__name__} value {value!r} to TOML")


def _is_table_array(value: Any) -> bool:
    return (
        isinstance(value, Sequence)
        and not isinstance(value, (str, bytes))
        and len(value) > 0
        and all(isinstance(item, Mapping) for item in value)
    )


def _emit_table(lines: List[str], table: Mapping[str, Any], prefix: str) -> None:
    scalars: List[str] = []
    subtables: List[str] = []
    table_arrays: List[str] = []
    for key in table:
        value = table[key]
        if isinstance(value, Mapping):
            subtables.append(key)
        elif _is_table_array(value):
            table_arrays.append(key)
        else:
            scalars.append(key)

    for key in scalars:
        value = table[key]
        if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
            items = ", ".join(_toml_scalar(item) for item in value)
            lines.append(f"{_toml_key(key)} = [{items}]")
        else:
            lines.append(f"{_toml_key(key)} = {_toml_scalar(value)}")

    for key in subtables:
        path = f"{prefix}{_toml_key(key)}"
        lines.append("")
        lines.append(f"[{path}]")
        _emit_table(lines, table[key], f"{path}.")

    for key in table_arrays:
        path = f"{prefix}{_toml_key(key)}"
        for item in table[key]:
            lines.append("")
            lines.append(f"[[{path}]]")
            _emit_table(lines, item, f"{path}.")


def _toml_key(key: Any) -> str:
    if not isinstance(key, str) or not key:
        raise SpecError(f"TOML table keys must be non-empty strings, got {key!r}")
    if all(c.isalnum() or c in "-_" for c in key):
        return key
    return json.dumps(key)


def toml_dumps(data: Mapping[str, Any]) -> str:
    """Serialize a nested mapping as TOML (the subset the spec schema uses)."""
    if not isinstance(data, Mapping):
        raise SpecError(f"toml_dumps expects a mapping, got {type(data).__name__}")
    lines: List[str] = []
    _emit_table(lines, data, "")
    return "\n".join(lines).lstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# Reading and writing spec files
# ---------------------------------------------------------------------------


def parse_spec_text(text: str, fmt: str, what: str = "study") -> Any:
    """Parse spec text in ``fmt`` (``"toml"`` or ``"json"``)."""
    if fmt == "json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{what} spec is not valid JSON: {exc}")
    if tomllib is None:  # pragma: no cover - Python 3.10 without tomli
        raise SpecError(
            f"reading TOML {what} specs needs Python >= 3.11 (tomllib) or the "
            "'tomli' package; use a .json spec instead"
        )
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"{what} spec is not valid TOML: {exc}")


def _format(path: Path, what: str) -> str:
    suffix = path.suffix.lower()
    if suffix not in (".toml", ".json"):
        raise SpecError(f"{what} specs must be .toml or .json files, got {path.name!r}")
    return suffix[1:]


def read_spec_file(path: Union[str, Path], what: str = "study") -> Any:
    """The data in a ``.toml`` or ``.json`` spec file (``what`` names the
    spec kind in error messages)."""
    path = Path(path)
    fmt = _format(path, what)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {what} spec {path}: {exc}")
    return parse_spec_text(text, fmt, what)


def write_spec_file(spec: Any, path: Union[str, Path], what: str = "study") -> None:
    """Write ``spec.to_dict()`` to a ``.toml`` or ``.json`` file."""
    path = Path(path)
    if _format(path, what) == "toml":
        text = toml_dumps(spec.to_dict())
    else:
        text = json.dumps(spec.to_dict(), indent=2) + "\n"
    path.write_text(text, encoding="utf-8")


def study_to_json(spec: StudySpec, *, indent: int = 2) -> str:
    return json.dumps(spec.to_dict(), indent=indent) + "\n"


def study_from_json(text: str) -> StudySpec:
    return StudySpec.from_dict(parse_spec_text(text, "json"))


def study_to_toml(spec: StudySpec) -> str:
    return toml_dumps(spec.to_dict())


def study_from_toml(text: str) -> StudySpec:
    return StudySpec.from_dict(parse_spec_text(text, "toml"))


def load_study_spec(path: Union[str, Path]) -> StudySpec:
    """Load a study spec from a ``.toml`` or ``.json`` file."""
    return StudySpec.from_dict(read_spec_file(path))


def dump_study_spec(spec: StudySpec, path: Union[str, Path]) -> None:
    """Write a study spec to a ``.toml`` or ``.json`` file."""
    write_spec_file(spec, path)
