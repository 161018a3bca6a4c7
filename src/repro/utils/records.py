"""One JSON codec for the frozen records that cross a process, disk or
HTTP boundary (scenario blocks, execution policies, dynamics, jobs).

A frozen dataclass that also derives from :class:`Record` gets
``to_dict``/``from_dict``/``to_json``/``from_json`` by four rules:

* ``to_dict()`` emits the class-level ``kind`` tag first, when the class
  has one (and ``kind`` is not itself a field), then every field in
  declaration order, in JSON shape (:func:`listed`), so
  ``json.loads(r.to_json()) == r.to_dict()``;
* ``from_dict()`` rejects unknown keys with one ``ValueError`` naming
  them and the valid ones (and missing required keys likewise), then
  calls ``cls(**{k: tupled(v)})``. :func:`tupled` does not enter dicts,
  so opaque mapping payloads come back exactly as encoded;
* nested records are normalised by the outer class's ``__post_init__``
  (:func:`decoded`), so a record accepts its nested blocks as records
  or as their dicts alike;
* ``to_json()`` is ``json.dumps(to_dict(), sort_keys=True,
  allow_nan=False)``.

:func:`tagged_decoder` rebuilds one of several tagged records from its
dict by dispatching on ``kind``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from functools import lru_cache
from typing import Any, Callable, Dict, Mapping, Tuple, Type, TypeVar

R = TypeVar("R", bound="Record")


def tupled(value: Any) -> Any:
    """Recursively turn JSON lists into the tuples frozen fields hold.

    Dicts are not entered: a mapping-valued field is an opaque payload.
    """
    if isinstance(value, list):
        return tuple(tupled(v) for v in value)
    return value


def listed(value: Any) -> Any:
    """The JSON shape of a value: records become their ``to_dict``,
    tuples become lists and mappings plain dicts, recursively."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [listed(v) for v in value]
    if isinstance(value, Mapping):
        return {k: listed(v) for k, v in value.items()}
    return value


def decoded(value: Any, decode: Callable[[Any], "Record"]) -> Any:
    """``value`` when it is ``None`` or already a record, else
    ``decode(value)`` (how ``__post_init__`` normalises nested blocks)."""
    if value is None or isinstance(value, Record):
        return value
    return decode(value)


@lru_cache(maxsize=None)
def _layout(cls: type) -> Tuple[Any, Tuple[str, ...], Tuple[str, ...]]:
    """(class tag or None, field names, required field names)."""
    names = tuple(f.name for f in fields(cls))
    tag = None if "kind" in names else getattr(cls, "kind", None)
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    return tag, names, required


class Record:
    """The JSON round trip of a frozen dataclass (see the module doc).

    ``label`` names the record in error messages (default: the class
    name).
    """

    label = None

    def to_dict(self) -> Dict[str, Any]:
        tag, names, _ = _layout(type(self))
        out: Dict[str, Any] = {} if tag is None else {"kind": tag}
        for name in names:
            out[name] = listed(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls: Type[R], data: Mapping[str, Any]) -> R:
        label = cls.label or cls.__name__
        if not isinstance(data, Mapping):
            raise ValueError(f"{label} must be a JSON object, "
                             f"got {type(data).__name__}")
        tag, names, required = _layout(cls)
        valid = set(names) if tag is None else {"kind", *names}
        unknown = set(data) - valid
        if unknown:
            raise ValueError(f"unknown {label} field(s) {sorted(unknown)}; "
                             f"valid: {sorted(valid)}")
        missing = [name for name in required if name not in data]
        if missing:
            raise ValueError(f"missing {label} field(s) {missing}")
        if tag is not None and data.get("kind", tag) != tag:
            raise ValueError(f"{label} kind must be {tag!r}, "
                             f"got {data['kind']!r}")
        return cls(**{k: tupled(v) for k, v in data.items() if k in names})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls: Type[R], text: str) -> R:
        return cls.from_dict(json.loads(text))


def tagged_decoder(label: str, kinds: Mapping[str, Type[Record]]
                   ) -> Callable[[Mapping[str, Any]], Record]:
    """A ``from_dict`` for a union of tagged records: ``data["kind"]``
    picks the class from ``kinds``; any other kind is one ``ValueError``
    (``unknown {label} kind ...; valid: ...``)."""
    def decode(data: Mapping[str, Any]) -> Record:
        kind = data.get("kind") if isinstance(data, Mapping) else None
        cls = kinds.get(kind) if isinstance(kind, str) else None
        if cls is None:
            valid = ", ".join(sorted(kinds))
            raise ValueError(f"unknown {label} kind {kind!r}; valid: {valid}")
        return cls.from_dict(data)
    return decode
