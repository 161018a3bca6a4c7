"""Name lookup shared by algorithms, backends, policies and formats.

Every kind of thing the library dispatches on by name keeps one
module-level ``{canonical name: entry}`` table: a fixed one for the
execution backends, reaction policies and workflow formats, and the one
that :func:`repro.api.registry.register_algorithm` fills. :func:`lookup`
owns the parts that must behave identically everywhere: name
canonicalization and the single ``unknown <kind> ...; available: ...``
error listing the sorted valid names.

:func:`canonical_name` output is part of the result-cache fingerprint
(:func:`repro.api.cache.request_fingerprint` hashes the canonical
algorithm name), so changing it would orphan every stored cache entry.
"""

from __future__ import annotations

from typing import Mapping, TypeVar

Entry = TypeVar("Entry")


def canonical_name(name: str) -> str:
    """Normalize a registry name: lowercase, drop ``-``/``_``/spaces."""
    if not isinstance(name, str):
        raise TypeError(f"name must be a str, got {type(name).__name__}")
    return "".join(ch for ch in name.lower() if ch not in "-_ ")


def lookup(kind: str, table: Mapping[str, Entry], name: str) -> Entry:
    """The entry ``name`` canonicalizes to; unknown names list the valid
    ones. ``kind`` names the entries in the message (``"algorithm"``,
    ``"execution backend"``, ...)."""
    entry = table.get(canonical_name(name))
    if entry is None:
        valid = ", ".join(sorted(table)) or "(none registered)"
        raise ValueError(f"unknown {kind} {name!r}; available: {valid}")
    return entry
