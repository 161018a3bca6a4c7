"""Span tracing installed from outside the program, for the traced run.

:func:`install` replaces public functions and methods of each layer with
thin timing wrappers (module attributes are patched where the caller
binds them, e.g. ``acyclic_partition`` as imported by
``repro.core.heuristic``). Each call becomes a span
``[name, start, end, parent, request id, thread, child time]`` kept in
memory; the parent is the innermost open span of the same thread, so a
span's self time is its duration minus its children's durations. At
process exit the spans and counters are written as JSON lines into
``$PERFBENCH_TRACE_DIR`` (one file per process) and
:func:`summarize` turns every file of a run into per-layer metrics.

Nothing under ``src/`` knows about this module: the measuring process
calls :func:`install` itself, and server/worker subprocesses get it from
``hook/sitecustomize.py`` when ``PERFBENCH_TRACE_DIR`` is set.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_perf = time.perf_counter
_local = threading.local()
_spans: List[list] = []
_counters: Dict[str, int] = defaultdict(int)
#: counters are bumped from the server's worker threads too, and an
#: exact count is only exact when no increment is lost
_counters_lock = threading.Lock()
_state = {"on": False, "passes0": 0, "passes": 0, "installed": False}


def set_request(rid: Optional[str]) -> None:
    """Tag every span opened by this thread from now on with ``rid``."""
    _local.rid = rid


def _stack() -> list:
    st = getattr(_local, "stack", None)
    if st is None:
        st = _local.stack = []
    return st


def _wrap(fn, name: str, on_result=None, request_of=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not _state["on"]:
            return fn(*args, **kwargs)
        if request_of is not None:
            _local.rid = request_of(args, kwargs)
        st = _stack()
        parent = st[-1] if st else None
        rec = [name, _perf(), 0.0, parent, getattr(_local, "rid", None),
               threading.get_ident(), 0.0]
        _spans.append(rec)
        st.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _perf()
            st.pop()
            rec[2] = end
            if parent is not None:
                parent[6] += end - rec[1]
        if on_result is not None:
            on_result(result)
        return result
    return traced


def _bump(name: str) -> None:
    with _counters_lock:
        _counters[name] += 1


def _count(name: str):
    def counted(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            if _state["on"]:
                _bump(name)
            return fn(*args, **kwargs)
        return inner
    return counted


def _patch_attr(owner, attr: str, make) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _cache_outcome(result) -> None:
    _bump("api.cache.hits" if result is not None else "api.cache.misses")


#: (module, owner attribute or None, function, span name)
SPAN_POINTS = (
    ("repro.api.batch", None, "solve", "solve"),
    ("repro.experiments.instances", None, "scaled_cluster_for",
     "platform.scale"),
    ("repro.core.heuristic", None, "acyclic_partition", "partition"),
    ("repro.core.assignment", None, "bisect_block", "partition"),
    ("repro.core.heuristic", None, "biggest_assign", "core.assignment"),
    ("repro.memdag.requirement", None, "block_requirement", "memdag"),
    ("repro.core.heuristic", None, "merge_unassigned_to_assigned",
     "core.merging"),
    ("repro.core.heuristic", None, "improve_by_swaps", "core.swaps"),
    ("repro.core.heuristic", None, "move_critical_to_idle",
     "core.swaps.idle"),
    ("repro.core.evaluator", "MakespanEvaluator", "__init__",
     "core.evaluator.init"),
    ("repro.core.evaluator", "MakespanEvaluator", "eval_swap",
     "core.evaluator.eval"),
    ("repro.core.evaluator", "MakespanEvaluator", "eval_move",
     "core.evaluator.eval"),
    ("repro.core.evaluator", "MakespanEvaluator", "apply_swap",
     "core.evaluator.apply"),
    ("repro.core.evaluator", "MakespanEvaluator", "apply_move",
     "core.evaluator.apply"),
    ("repro.core.evaluator", "MakespanEvaluator", "makespan",
     "core.evaluator.makespan"),
    ("repro.core.mapping", "Mapping", "from_quotient", "core.mapping"),
    ("repro.core.mapping", "Mapping", "validate", "core.mapping"),
    ("repro.api.envelopes", "ScheduleRequest", "from_dict",
     "api.envelope.decode"),
    ("repro.api.envelopes", "ScheduleResult", "to_dict",
     "api.envelope.encode"),
    ("repro.api.cache", None, "request_fingerprint", "api.fingerprint"),
    ("repro.api.cache", "CacheBackend", "put", "api.cache.put"),
    ("repro.api.cache_sqlite", "SqliteResultCache", "put", "api.cache.put"),
    ("repro.service.store", "JobStore", "submit", "service.store.write"),
    ("repro.service.store", "JobStore", "update", "service.store.write"),
    ("repro.service.store", "JobStore", "finish", "service.store.write"),
)


def install() -> None:
    """Patch every span point (idempotent); tracing starts switched off."""
    if _state["installed"]:
        return
    _state["installed"] = True
    for module_name, owner_name, attr, name in SPAN_POINTS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        _patch_attr(owner, attr, lambda fn, name=name: _wrap(fn, name))
    cache = importlib.import_module("repro.api.cache")
    _patch_attr(cache.CacheBackend, "get",
                lambda fn: _wrap(fn, "api.cache.get",
                                 on_result=_cache_outcome))
    requirement = importlib.import_module("repro.memdag.requirement")
    _patch_attr(requirement.RequirementCache, "requirement",
                _count("memdag.lookups"))
    dispatcher = importlib.import_module("repro.service.dispatcher")
    _patch_attr(dispatcher.Dispatcher, "_run_job",
                lambda fn: _wrap(fn, "service.job",
                                 request_of=lambda a, k: a[1]))
    worker = importlib.import_module("repro.api.exec.worker")
    _patch_attr(worker, "_solve_one",
                lambda fn: _wrap(fn, "exec.worker.job",
                                 request_of=lambda a, k: a[0].get("id")))


def _full_passes() -> int:
    return importlib.import_module("repro.core.makespan").FULL_PASSES


def start() -> None:
    _state["passes0"] = _full_passes()
    _state["on"] = True


def stop() -> None:
    if _state["on"]:
        _state["on"] = False
        _state["passes"] += _full_passes() - _state["passes0"]


def write(directory: str) -> str:
    """Dump this process's spans and counters; returns the file path."""
    stop()
    index = {id(rec): i for i, rec in enumerate(_spans)}
    path = os.path.join(directory, f"spans-{os.getpid()}.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps({"counters": dict(_counters),
                             "full_passes": _state["passes"]}) + "\n")
        for rec in _spans:
            name, t0, t1, parent, rid, tid, child = rec
            fh.write(json.dumps([name, t0, t1,
                                 None if parent is None
                                 else index[id(parent)],
                                 rid, tid, child]) + "\n")
    return path



# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load(directory: str):
    """All span files of a run: (spans, counters, full passes)."""
    spans: List[list] = []
    counters: Dict[str, int] = defaultdict(int)
    passes = 0
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("spans-") and entry.endswith(".jsonl")):
            continue
        with open(os.path.join(directory, entry)) as fh:
            head = json.loads(fh.readline())
            for key, value in head["counters"].items():
                counters[key] += value
            passes += head["full_passes"]
            spans.extend(json.loads(line) for line in fh)
    return spans, counters, passes


def summarize(directory: str) -> Dict[str, float]:
    """Per-layer totals over every traced process of a run.

    Returns raw sums: ``<span>.n`` (calls) and ``<span>.self`` (self
    seconds) per span name, the counters, and ``full_passes``.
    """
    spans, counters, passes = load(directory)
    out: Dict[str, float] = defaultdict(float)
    for name, t0, t1, _parent, _rid, _tid, child in spans:
        out[name + ".n"] += 1
        out[name + ".self"] += (t1 - t0) - child
        out[name + ".wall"] += t1 - t0
    for key, value in counters.items():
        out[key] += value
    out["full_passes"] = passes
    return dict(out)
