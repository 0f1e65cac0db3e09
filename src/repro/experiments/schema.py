"""One codec for every spec class: the dataclass fields are the schema.

A spec is a frozen dataclass that subclasses :class:`Spec`.  Each field's
name, default and annotated type are its schema, read once per class with
``dataclasses.fields`` and ``typing.get_type_hints`` and cached.  Supported
annotations are ``int``, ``float``, ``bool``, ``str``, ``Any``,
``Mapping[str, Any]``, a ``Spec`` subclass, ``Tuple[X, ...]`` of these and
``Optional[...]`` of any of them.  A field's ``metadata`` adds single-field
rules:

* ``ge`` / ``gt`` / ``lt`` — numeric bounds; ``choices`` — allowed values;
* ``blank=True`` — the string may be empty (strings are non-empty otherwise);
* ``parse`` — ``parse(value, where)`` validates the value instead of the
  type check (addresses);
* ``none_as`` — the dict value that stands for ``None`` (TOML has no null);
* ``required=True`` — ``from_dict`` needs the key although the field has a
  default;
* ``help`` — the field's one-line description, also the help text of the
  ``lfoc-repro`` flag generated from it;
* ``emit="always"`` — ``to_dict`` writes the field even at its default.
  Otherwise a field is written only when it differs from its default (a
  ``None`` as its ``none_as``, if it has one); fields without a default are
  always written.

:meth:`Spec.__post_init__` checks and normalises every field (an ``int``
given for a ``float`` becomes a float, lists become tuples, a mapping or
other accepted shorthand for a nested spec becomes that spec), so direct
construction and :meth:`Spec.from_dict` are validated alike; a subclass's
own ``__post_init__`` calls it first and then checks the rules that span
fields.  :meth:`Spec.from_dict` also refuses unknown keys, removed keys
(``_REMOVED`` maps each to its message), missing required keys and, for
classes with a ``_SCHEMA`` stamp, an unsupported ``schema`` version.  Fields
that take no part in equality (``compare=False``) are outside the schema.
Every refusal is a :class:`~repro.errors.SpecError`.
"""

from __future__ import annotations

import collections.abc
import typing
from dataclasses import MISSING, field, fields
from typing import Any, Callable, ClassVar, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SpecError

__all__ = ["Spec", "SpecField", "rule", "spec_fields"]

Decoder = Callable[[Any, str], Any]


def rule(default: Any = None, **meta: Any) -> Any:
    """A spec field with a default and single-field rules in its metadata."""
    return field(default=default, metadata=meta)


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{where} must be an integer, got {value!r}")
    return value


def _float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:
        raise SpecError(f"{where} must be a number, got {value!r}")
    return float(value)


def _bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{where} must be a boolean, got {value!r}")
    return value


def _text(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SpecError(f"{where} must be a string, got {value!r}")
    return value


def _str(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise SpecError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _mapping(value: Any, where: str) -> Dict[str, Any]:
    if not isinstance(value, Mapping):
        raise SpecError(f"{where} must be a mapping, got {type(value).__name__}")
    if not all(isinstance(key, str) for key in value):
        raise SpecError(f"{where} keys must be strings, got {list(value)!r}")
    return dict(value)


def _any(value: Any, where: str) -> Any:
    return value


_SCALARS: Dict[Any, Decoder] = {int: _int, float: _float, bool: _bool, Any: _any}


def _decoder(tp: Any, blank: bool) -> Decoder:
    """The check-and-normalise function of one annotation."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union:
        inner = _decoder(next(a for a in args if a is not type(None)), blank)
        return lambda value, where: None if value is None else inner(value, where)
    if origin is tuple:
        item = _decoder(args[0], blank)
        table = isinstance(args[0], type) and issubclass(args[0], Spec)

        def sequence(value: Any, where: str) -> Tuple[Any, ...]:
            if table and isinstance(value, Mapping):
                value = [value]  # one TOML table where an array was expected
            if isinstance(value, (str, bytes)) or not isinstance(value, Sequence):
                raise SpecError(f"{where} must be a list, got {type(value).__name__}")
            return tuple(item(entry, f"{where} entries") for entry in value)

        return sequence
    if origin is collections.abc.Mapping:
        return _mapping
    if isinstance(tp, type) and issubclass(tp, Spec):
        return tp.coerce
    if tp is str:
        return _text if blank else _str
    return _SCALARS[tp]


class SpecField:
    """One field of a spec class's schema (see the module docstring)."""

    __slots__ = ("name", "type", "meta", "default", "required", "always", "where", "_decode")

    def __init__(self, cls: type, f: Any, tp: Any) -> None:
        meta = f.metadata
        self.name = f.name
        self.type = tp
        self.meta = meta
        if f.default is not MISSING:
            self.default = f.default
        elif f.default_factory is not MISSING:
            self.default = f.default_factory()
        else:
            self.default = MISSING
        self.required = self.default is MISSING or meta.get("required", False)
        self.always = self.default is MISSING or meta.get("emit") == "always"
        self.where = f"{cls.__name__}.{f.name}"
        decode = _decoder(tp, meta.get("blank", False))
        parse = meta.get("parse")
        if parse is not None:
            optional = typing.get_origin(tp) is typing.Union
            decode = (
                lambda value, where: None if value is None and optional else parse(value, where)
            )
        self._decode = decode

    def decode(self, value: Any) -> Any:
        meta, where = self.meta, self.where
        if "none_as" in meta and type(value) is type(meta["none_as"]) and value == meta["none_as"]:
            return None
        value = self._decode(value, where)
        if value is None or not meta:
            return value
        if "ge" in meta and not value >= meta["ge"]:
            raise SpecError(f"{where} must be >= {meta['ge']}, got {value!r}")
        if "gt" in meta and not value > meta["gt"]:
            raise SpecError(f"{where} must be > {meta['gt']}, got {value!r}")
        if "lt" in meta and not value < meta["lt"]:
            raise SpecError(f"{where} must be < {meta['lt']}, got {value!r}")
        if "choices" in meta and value not in meta["choices"]:
            allowed = ", ".join(repr(c) for c in meta["choices"])
            raise SpecError(f"{where} must be one of {allowed}, got {value!r}")
        return value

    def encode(self, value: Any) -> Any:
        if value is None:
            return self.meta.get("none_as")
        return _plain(value)


def _plain(value: Any) -> Any:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


_PLANS: Dict[type, Tuple[SpecField, ...]] = {}


def spec_fields(cls: type) -> Tuple[SpecField, ...]:
    """The cached schema of a spec class, in field order."""
    plan = _PLANS.get(cls)
    if plan is None:
        hints = typing.get_type_hints(cls)
        plan = _PLANS[cls] = tuple(
            SpecField(cls, f, hints[f.name]) for f in fields(cls) if f.compare
        )
    return plan


class Spec:
    """Base of the spec dataclasses: the shared checks and the dict codec."""

    #: Removed keys and the message that refuses each.
    _REMOVED: ClassVar[Mapping[str, str]] = {}
    #: ``(label, version)`` of the ``schema`` stamp, for top-level specs.
    _SCHEMA: ClassVar[Optional[Tuple[str, int]]] = None

    def __post_init__(self) -> None:
        for f in spec_fields(type(self)):
            object.__setattr__(self, f.name, f.decode(getattr(self, f.name)))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self._SCHEMA is not None:
            out["schema"] = self._SCHEMA[1]
        for f in spec_fields(type(self)):
            value = getattr(self, f.name)
            if f.always or value != f.default:
                out[f.name] = f.encode(value)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        name = cls.__name__
        if not isinstance(data, Mapping):
            raise SpecError(f"{name} must be a mapping, got {type(data).__name__}")
        for key, message in cls._REMOVED.items():
            if key in data:
                raise SpecError(message)
        plan = spec_fields(cls)
        allowed = [f.name for f in plan] + (["schema"] if cls._SCHEMA else [])
        unknown = sorted(set(data) - set(allowed), key=repr)
        if unknown:
            raise SpecError(
                f"unknown key{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(k) for k in unknown)} in {name}; "
                f"allowed keys: {', '.join(sorted(allowed))}"
            )
        if cls._SCHEMA is not None:
            label, version = cls._SCHEMA
            schema = data.get("schema", version)
            if schema != version:
                raise SpecError(
                    f"unsupported {label} schema version {schema!r} "
                    f"(this build reads version {version})"
                )
        for f in plan:
            if f.required and f.name not in data:
                raise SpecError(f"{name} is missing the required key {f.name!r}")
        return cls(**{key: value for key, value in data.items() if key != "schema"})

    @classmethod
    def coerce(cls, value: Any, where: Optional[str] = None):
        """Accept an existing spec or a mapping (subclasses add shorthands)."""
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise SpecError(f"{where or cls.__name__} must be a mapping, got {value!r}")
