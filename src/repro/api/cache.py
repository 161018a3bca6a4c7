"""On-disk result cache keyed by a stable request fingerprint.

:class:`CacheBackend` holds everything callers see — fingerprinting,
hit/miss accounting, and the retag-on-hit contract — and leaves storage
to ``_read``/``_write``/``__len__``/``__contains__``. The one shipped
store is :class:`~repro.api.cache_sqlite.SqliteResultCache`: one SQLite
file in WAL mode, committed per put, so a crashed sweep leaves every
completed entry behind and the next run resumes where it stopped.
:func:`open_cache` opens it from a URI — ``sqlite:///path.db``, or a
plain directory ``DIR`` meaning ``DIR/results.db``.

The fingerprint (:func:`request_fingerprint`) hashes everything that
determines the *outcome* of a solve — workflow structure and weights,
cluster processors and interconnect, canonical algorithm name, config
fields, the ``scale_memory``/``validate`` knobs and, for a dynamic
request, the ``dynamics`` block (hashed over the static key, so the
plan and each of its replays are separate entries). It deliberately
excludes ``tags`` (correlation metadata that does not influence the
result), ``want_mapping`` (which only controls whether the live mapping
rides on the envelope), and the execution ``policy`` (timeout/retry
knobs that govern *how* the request runs, not what it computes): two
requests for the same computation hit the same cache entry no matter how
they are labelled or executed. On a hit the stored
result is rehydrated with the *incoming* request's tags (the stored
``extra`` — algorithm-reported outcome metadata — is kept, since the
fingerprint keys the computation that produced it), so records rebuilt
from cached results are identical to freshly computed ones apart from
the recorded ``runtime``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import threading
from typing import Any, Dict, Iterator, Optional

from repro.api.envelopes import ScheduleRequest, ScheduleResult
from repro.api.registry import canonical_name

#: file name of the cache a plain directory URI opens
CACHE_FILENAME = "results.db"


def _num(value):
    """Ints and floats render identically in the fingerprint JSON.

    A request that crosses a JSON boundary (the queue backend's spool,
    the HTTP service) comes back with every numeric weight as a float;
    without this coercion ``4`` and ``4.0`` would hash differently and a
    job could never hit the entry an offline run wrote (or vice versa).
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    return value


def _workflow_key(wf) -> Dict[str, Any]:
    """Canonical description of a workflow: name, tasks, weights, edges."""
    return {
        "name": wf.name,
        "tasks": [[repr(u), _num(wf.work(u)), _num(wf.memory(u))]
                  for u in wf.tasks()],
        "edges": [[repr(u), repr(v), _num(c)] for u, v, c in wf.edges()],
    }


def _cluster_key(cluster) -> Dict[str, Any]:
    """Canonical description of a cluster: processors + interconnect model."""
    model = cluster.bandwidth_model
    model_key: Dict[str, Any] = {"type": type(model).__name__}
    for attr, value in sorted(vars(model).items()):
        model_key[attr] = _num(value) if isinstance(value, (int, float, str)) \
            else repr(value)
    return {
        "name": cluster.name,
        "processors": [[p.name, _num(p.speed), _num(p.memory), p.kind]
                       for p in cluster.processors],
        "bandwidth": model_key,
    }


def _config_key(config) -> Any:
    """Canonical description of an algorithm config (None, dataclass, dict)."""
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        fields = dataclasses.asdict(config)
    elif isinstance(config, dict):
        fields = dict(config)
    else:
        fields = {"repr": repr(config)}
    return {"type": type(config).__name__,
            "fields": json.loads(json.dumps(fields, sort_keys=True, default=repr))}


def request_fingerprint(request: ScheduleRequest) -> str:
    """Stable hex digest identifying the computation a request describes."""
    payload = {
        "workflow": _workflow_key(request.workflow),
        "cluster": _cluster_key(request.cluster),
        "algorithm": canonical_name(request.algorithm),
        "config": _config_key(request.config),
        "scale_memory": bool(request.scale_memory),
        "validate": bool(request.validate),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if request.dynamics is None:
        return digest
    # a replay layers on the plan's key, so a static solve and each of
    # its dynamic replays are distinct entries of one cache
    text = digest + ":" + request.dynamics.to_json()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CacheBackend:
    """The storage-agnostic result-cache contract.

    Subclasses implement ``_read(fingerprint)`` (the stored
    :class:`ScheduleResult` or ``None``), ``_write(fingerprint, result)``
    (persist one entry durably before returning), ``__len__`` and
    ``__contains__``; everything callers see — fingerprinting, hit/miss
    accounting, retag-on-hit, dedupe-on-put, context management — lives
    here, so every backend behaves identically.
    """

    #: short storage-kind label ("sqlite", ...) surfaced by
    #: :func:`describe_cache`; subclasses override
    kind = "custom"

    def __init__(self):
        self.hits = 0
        self.misses = 0
        #: the one guard of a shared cache: serializes get/put/stats/
        #: close across threads — the service dispatcher's workers drive
        #: one cache from several threads at once; subclasses reuse it
        #: for their own entry points (it is reentrant)
        self._lock = threading.RLock()

    @property
    def location(self) -> str:
        """Where the backend stores its entries (path, URI, ...)."""
        return ""

    # -- what a storage backend must provide ---------------------------
    def _read(self, fingerprint: str) -> Optional[ScheduleResult]:
        raise NotImplementedError

    def _write(self, fingerprint: str, result: ScheduleResult) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __contains__(self, fingerprint: str) -> bool:
        raise NotImplementedError

    # -- the shared behaviour ------------------------------------------
    def fingerprint(self, request: ScheduleRequest) -> str:
        return request_fingerprint(request)

    def get(self, fingerprint: str,
            request: Optional[ScheduleRequest] = None) -> Optional[ScheduleResult]:
        """The stored result, retagged with the incoming request's tags.

        Tags belong to the caller, so they are replaced wholesale; the
        stored ``extra`` (``SchedulerOutput.extra`` — e.g. the
        annealer's seed makespan) is kept, since it describes the computation,
        which is what the fingerprint keys.
        """
        with self._lock:
            result = self._read(fingerprint)
            if result is None:
                self.misses += 1
                return None
            self.hits += 1
        if request is not None:
            result = dataclasses.replace(result, tags=dict(request.tags))
        return result

    def put(self, fingerprint: str, result: ScheduleResult) -> None:
        """Record a freshly computed result; duplicates are ignored."""
        with self._lock:
            if fingerprint in self:
                return
            self._write(fingerprint, result)

    def close(self) -> None:
        pass

    def __enter__(self) -> "CacheBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        """Counters for summaries: stored entries, hits, misses."""
        with self._lock:
            return {"entries": len(self), "hits": self.hits,
                    "misses": self.misses}


#: URI scheme -> how :func:`open_cache` interprets the rest of the URI
SQLITE_SCHEME = "sqlite://"


def cache_path(uri: str) -> str:
    """The database file a cache URI names (``ValueError`` if it names none).

    * ``sqlite:///abs/path.db`` / ``sqlite://rel.db`` — that database file;
    * a plain directory path ``DIR`` — ``DIR/results.db``.
    """
    if uri.startswith(SQLITE_SCHEME):
        path = uri[len(SQLITE_SCHEME):]
        if not path:
            raise ValueError(
                f"cache URI {uri!r} has an empty location; expected "
                f"{SQLITE_SCHEME}PATH.db (e.g. sqlite:///tmp/results.db)")
        return path
    if "://" in uri:
        # a typo'd or unsupported scheme must fail loudly, not become a
        # literal directory named "sqlit://..." caching into the void
        scheme = uri.split("://", 1)[0]
        raise ValueError(
            f"unknown cache URI scheme {scheme + '://'!r}; valid: "
            f"sqlite:///PATH.db or a plain directory path")
    if not uri:
        raise ValueError(
            "empty cache URI; expected sqlite:///PATH.db or a plain "
            "directory path")
    return os.path.join(uri, CACHE_FILENAME)


def open_cache(uri: "str | CacheBackend") -> CacheBackend:
    """A cache backend from a URI (or a pass-through for open backends).

    Opens the database file the URI names (:func:`cache_path`, created
    if missing) as a :class:`~repro.api.cache_sqlite.SqliteResultCache`.
    An already-open :class:`CacheBackend` is returned unchanged, so call
    sites can accept "URI or backend" uniformly (the caller keeps
    ownership — :func:`open_cache` only closes nothing it did not open).
    """
    if isinstance(uri, CacheBackend):
        return uri
    if not isinstance(uri, str):
        raise TypeError(
            f"expected a cache URI string or CacheBackend, "
            f"got {type(uri).__name__}")
    from repro.api.cache_sqlite import SqliteResultCache
    return SqliteResultCache(cache_path(uri))


@contextlib.contextmanager
def opened_cache(cache: "None | str | CacheBackend"
                 ) -> Iterator[Optional[CacheBackend]]:
    """``with opened_cache(cache) as store``: a URI is opened and closed on
    exit; an open backend (or ``None``) passes through and stays open —
    only what this opened is closed."""
    if not isinstance(cache, str):
        yield cache
        return
    store = open_cache(cache)
    try:
        yield store
    finally:
        store.close()


def describe_cache(backend: CacheBackend) -> Dict[str, Any]:
    """One observability payload for any backend, shared by every surface.

    ``repro cache stats`` prints it and the service's ``/v1/stats``
    endpoint embeds it, so the CLI and the HTTP API can never drift:
    storage kind, location, stored-entry count, and this *session's*
    hit/miss counters (the store persists entries, not counters — a
    freshly opened cache always starts at 0/0).
    """
    stats = backend.stats()
    total = stats["hits"] + stats["misses"]
    return {
        "kind": backend.kind,
        "location": backend.location,
        "entries": stats["entries"],
        "hits": stats["hits"],
        "misses": stats["misses"],
        "hit_rate": round(stats["hits"] / total, 6) if total else None,
    }
