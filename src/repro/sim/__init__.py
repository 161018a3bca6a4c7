"""Event-driven dynamic-scheduling simulator.

Replays a computed mapping under a virtual clock while a seeded
perturbation stream — job arrivals, processor fail/leave/join,
stochastic runtime inflation — disturbs it, and measures robustness:
makespan degradation against the undisturbed plan, re-solve latency,
and task migrations. The reaction policies (``static`` / ``warmstart`` /
``resolve``) are plain functions in one fixed name table
(:mod:`repro.sim.policies`).

A replay is requested like any solve: a
:class:`~repro.api.envelopes.ScheduleRequest` (or a scenario spec) with a
``dynamics`` block makes :func:`repro.api.solve` replay the plan through
:class:`~repro.sim.engine.SimEngine`, so caching, backends and the
service treat it as one more request.

Only the frozen event models (and the policy table they validate
against) are imported eagerly; the engine loads lazily so that
``repro.api`` can depend on :class:`DynamicsSpec` without a cycle. The warm-start vs cold re-solve gate lives in
``benchmarks/test_sim_warmstart_gate.py``.
"""

from repro.sim.events import (
    EVENT_KINDS,
    EVENT_MODEL_KINDS,
    DynamicsSpec,
    PoissonArrivals,
    ProcessorChurn,
    RuntimeInflation,
    SimEvent,
    TraceArrivals,
    model_from_dict,
)

__all__ = [
    "EVENT_KINDS",
    "EVENT_MODEL_KINDS",
    "DynamicsSpec",
    "PoissonArrivals",
    "ProcessorChurn",
    "RuntimeInflation",
    "SimEvent",
    "TraceArrivals",
    "model_from_dict",
    # lazy (see __getattr__)
    "SimEngine",
    "SimReport",
    "available_policies",
    "get_policy",
]

_LAZY = {
    "SimEngine": "repro.sim.engine",
    "SimReport": "repro.sim.engine",
    "available_policies": "repro.sim.policies",
    "get_policy": "repro.sim.policies",
}


def __getattr__(name):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(target)
    value = getattr(module, name)
    globals()[name] = value
    return value
