"""Scenario-level entry points for the dynamic simulator.

:func:`simulate_request` is the single-request façade: solve (or fetch)
the static plan, replay it under a :class:`~repro.sim.events.DynamicsSpec`
through :class:`~repro.sim.engine.SimEngine`, and return an ordinary
:class:`~repro.api.envelopes.ScheduleResult` whose ``makespan`` is the
*realized* makespan and whose ``extra`` carries the flat ``sim_*``
robustness metrics plus the resolved event log — so every downstream
consumer (JSONL records, ``repro scenario diff``, the experiment tables)
works on simulator output unchanged.

Caching layers on the static machinery without touching it: the cache
key is :func:`dynamic_fingerprint` — the static
:func:`~repro.api.cache.request_fingerprint` extended with the dynamics
spec's canonical JSON — so a static solve and its dynamic replays
coexist in one cache under distinct keys, and a re-run of the same
(request, dynamics) pair is a pure cache hit.

:func:`run_dynamic_scenario` streams a :class:`ScenarioSpec` whose
``dynamics`` block is set through the simulator in expansion order.
Simulation is sequential by design — the engine replays a virtual clock
and is not worth forking per request at smoke/bench scales.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterator, Optional, Union

from repro.api.batch import ProgressHook, solve
from repro.api.cache import CacheBackend, opened_cache, request_fingerprint
from repro.api.envelopes import FailureInfo, ScheduleRequest, ScheduleResult
from repro.api.scenario import ScenarioSpec, expand
from repro.sim.engine import SimEngine
from repro.sim.events import DynamicsSpec
from repro.utils.errors import ReproError

__all__ = ["dynamic_fingerprint", "simulate_request", "run_dynamic_scenario"]


def dynamic_fingerprint(request: ScheduleRequest,
                        dynamics: DynamicsSpec) -> str:
    """Cache key for one (request, dynamics) replay.

    The static fingerprint already hashes everything determining the
    plan; appending the dynamics spec's canonical JSON separates every
    distinct perturbation stream / policy / seed without changing the
    static cache entries at all.
    """
    payload = request_fingerprint(request) + ":" + dynamics.to_json()
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def simulate_request(request: ScheduleRequest,
                     dynamics: DynamicsSpec,
                     cache: Union[None, str, CacheBackend] = None,
                     policy: Optional[str] = None) -> ScheduleResult:
    """Solve the static plan, replay it under ``dynamics``, envelope it.

    ``policy`` overrides the spec's reaction policy (the CLI's
    ``--policy`` flag); it is part of the fingerprint via the effective
    dynamics spec, so overridden runs cache separately. Scheduling *and*
    simulation failures land in ``result.failure`` (``NoFeasibleMapping``
    when an orphaned or arriving block fits no live processor) — the
    same structured outcome the static batch façade records.
    """
    if policy is not None and policy != dynamics.policy:
        dynamics = dataclasses.replace(dynamics, policy=policy)

    with opened_cache(cache) as store:
        fingerprint = dynamic_fingerprint(request, dynamics)
        if store is not None:
            hit = store.get(fingerprint, request)
            if hit is not None:
                return hit

        plan = solve(dataclasses.replace(request, want_mapping=True))
        if plan.failure is not None or plan.mapping is None:
            # scheduling failed — a legitimate outcome, never cached
            # (consistent with the static batch façade)
            return dataclasses.replace(
                plan, mapping=plan.mapping if request.want_mapping else None)

        try:
            report = SimEngine(plan.mapping, dynamics,
                               algorithm=request.algorithm).run()
        except ReproError as exc:
            result = dataclasses.replace(
                plan,
                failure=FailureInfo.from_exception(exc),
                mapping=plan.mapping if request.want_mapping else None)
            return result

        extra = dict(plan.extra)
        extra.update(report.metrics)
        extra["sim_event_log"] = report.events
        result = dataclasses.replace(
            plan,
            makespan=report.realized,
            extra=extra,
            mapping=plan.mapping if request.want_mapping else None)
        if store is not None:
            store.put(fingerprint, result)
        return result


def run_dynamic_scenario(spec: ScenarioSpec,
                         cache: Union[None, str, CacheBackend] = None,
                         progress: Optional[ProgressHook] = None,
                         policy: Optional[str] = None,
                         ) -> Iterator[ScheduleResult]:
    """Stream the scenario through the simulator in expansion order.

    Requires the spec's ``dynamics`` block (``repro simulate`` rejects a
    static spec with the same error). ``cache`` accepts the usual URI or
    open backend; entries are keyed by :func:`dynamic_fingerprint`.
    """
    if spec.dynamics is None:
        raise ValueError(
            f"scenario {spec.name!r} has no dynamics block; "
            f"add one or use the static runner")
    with opened_cache(cache) as store:
        for index, request in enumerate(expand(spec)):
            result = simulate_request(request, spec.dynamics,
                                      cache=store, policy=policy)
            if progress is not None:
                progress(index, request, result)
            yield result
