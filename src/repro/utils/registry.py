"""One name registry shared by algorithms, backends, policies and formats.

Every pluggable kind of thing the library dispatches on by name keeps one
module-level :class:`Registry` of its ``*Info`` entries. The registry
owns the parts that must behave identically everywhere: name
canonicalization, empty-name and duplicate rejection, sorted listings,
and the single ``unknown <kind> ...; available: ...`` error. Each entry
carries its canonical key as ``info.name``.

:func:`canonical_name` output is part of the result-cache fingerprint
(:func:`repro.api.cache.request_fingerprint` hashes the canonical
algorithm name), so changing it would orphan every stored cache entry.
"""

from __future__ import annotations

from typing import Dict, Generic, Tuple, TypeVar

Info = TypeVar("Info")


def canonical_name(name: str) -> str:
    """Normalize a registry name: lowercase, drop ``-``/``_``/spaces."""
    if not isinstance(name, str):
        raise TypeError(f"name must be a str, got {type(name).__name__}")
    return "".join(ch for ch in name.lower() if ch not in "-_ ")


class Registry(Generic[Info]):
    """Canonical-name → ``Info`` map with loud, uniform errors.

    ``kind`` names the entries in messages (``"algorithm"``,
    ``"execution backend"``, ...).
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: Dict[str, Info] = {}

    def key(self, name: str) -> str:
        """The canonical key of a name about to be registered."""
        key = canonical_name(name)
        if not key:
            raise ValueError(
                f"{self.kind} name {name!r} is empty after canonicalization")
        return key

    def add(self, info: Info) -> None:
        """Register ``info`` under ``info.name``; duplicates are rejected."""
        key = info.name
        if key in self._entries:
            raise ValueError(
                f"{self.kind} {key!r} already registered; unregister it "
                f"first to replace it")
        self._entries[key] = info

    def remove(self, name: str) -> None:
        """Drop an entry (plugin teardown / tests); unknown names are a no-op."""
        self._entries.pop(canonical_name(name), None)

    def get(self, name: str) -> Info:
        """Resolve a (canonicalized) name; unknown names list the valid ones."""
        info = self._entries.get(canonical_name(name))
        if info is None:
            valid = ", ".join(self.names()) or "(none registered)"
            raise ValueError(f"unknown {self.kind} {name!r}; available: {valid}")
        return info

    def names(self) -> Tuple[str, ...]:
        """Sorted canonical names of every entry."""
        return tuple(sorted(self._entries))

    def infos(self) -> Tuple[Info, ...]:
        """Every entry, sorted by canonical name."""
        return tuple(self._entries[k] for k in self.names())
