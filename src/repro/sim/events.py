"""Frozen, JSON-round-trippable perturbation models (the ``dynamics`` block).

The dynamic simulator is driven by a :class:`DynamicsSpec`: a seed, a
reaction policy, and a tuple of *event models* — each a frozen dataclass
that compiles to a deterministic list of :class:`SimEvent` records. Four
models cover the perturbations:

=====================  ====================================================
model                  events it emits
=====================  ====================================================
``poisson_arrivals``   new jobs at Poisson instants (rate, count, family)
``trace_arrivals``     new jobs at explicit trace instants
``churn``              processor ``fail`` (blocks killed), ``leave``
                       (graceful drain), ``join`` (new capacity)
``inflation``          stochastic runtime inflation of in-flight blocks
=====================  ====================================================

Everything stochastic draws through :mod:`repro.generators.events`
(seeded via :func:`repro.utils.rng.make_rng`); compiling the same spec
twice yields byte-identical event streams. Event *times* are virtual; by
default (``relative_times=True``) they are fractions of the undisturbed
plan's makespan, so one spec scales across instances of any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.generators.events import (
    event_seeds,
    lognormal_factor,
    merge_timelines,
    poisson_times,
)
from repro.sim.policies import get_policy
from repro.utils.records import Record, decoded, tagged_decoder
from repro.utils.rng import SeedLike, make_rng, spawn_rngs

#: the event kinds the engine understands
EVENT_KINDS = ("arrival", "fail", "leave", "join", "inflate")


@dataclass(frozen=True)
class SimEvent(Record):
    """One resolved perturbation on the virtual timeline.

    A flat record (payload fields are plain JSON scalars) so the engine's
    event log — the determinism artifact CI byte-compares — round-trips
    through JSON exactly. Fields irrelevant to a kind keep their
    defaults; ``processor`` is empty until the engine resolves a random
    victim (``pick``) against the live processor set at replay time.
    """

    time: float
    kind: str
    family: str = ""       # arrival: generator family of the incoming job
    n_tasks: int = 0       # arrival: job size
    seed: int = 0          # arrival: job seed / inflate: selection seed
    processor: str = ""    # fail/leave victim or join name (when explicit)
    pick: int = -1         # fail/leave: random-victim index (-1 = explicit)
    speed: float = 1.0     # join: processor speed
    memory: float = 0.0    # join: processor memory
    proc_kind: str = ""    # join: machine-kind label
    factor: float = 1.0    # inflate: work multiplier
    fraction: float = 0.0  # inflate: share of in-flight blocks hit

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; "
                             f"valid: {', '.join(EVENT_KINDS)}")


# ----------------------------------------------------------------------
# Event models
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoissonArrivals(Record):
    """``count`` job arrivals at Poisson instants (rate per time unit)."""

    kind = "poisson_arrivals"

    rate: float = 1.0
    count: int = 1
    family: str = "blast"
    n_tasks: int = 20
    start: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {self.n_tasks}")

    def events(self, seed: SeedLike) -> List[SimEvent]:
        rng = make_rng(seed)
        times = poisson_times(self.rate, self.count, rng, start=self.start)
        seeds = event_seeds(self.count, rng)
        return [SimEvent(time=t, kind="arrival", family=self.family,
                         n_tasks=self.n_tasks, seed=s)
                for t, s in zip(times, seeds)]


@dataclass(frozen=True)
class TraceArrivals(Record):
    """Job arrivals at explicit (trace-driven) instants."""

    kind = "trace_arrivals"

    times: Tuple[float, ...] = ()
    family: str = "blast"
    n_tasks: int = 20

    def __post_init__(self):
        object.__setattr__(self, "times",
                           tuple(float(t) for t in self.times))
        if self.n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {self.n_tasks}")

    def events(self, seed: SeedLike) -> List[SimEvent]:
        seeds = event_seeds(len(self.times), seed)
        return [SimEvent(time=t, kind="arrival", family=self.family,
                         n_tasks=self.n_tasks, seed=s)
                for t, s in zip(self.times, seeds)]


@dataclass(frozen=True)
class ProcessorChurn(Record):
    """Processors failing, leaving gracefully, or joining mid-run.

    ``victims`` names explicit targets, consumed in order by the fail
    events then the leave events; when exhausted (or empty) a seeded
    random pick is resolved against the live processor set at replay
    time. A *fail* kills the victim's in-flight blocks (their progress is
    lost); a *leave* stops new placements but lets started blocks drain;
    a *join* adds a fresh processor the policies may use immediately.
    """

    kind = "churn"

    fail_times: Tuple[float, ...] = ()
    leave_times: Tuple[float, ...] = ()
    join_times: Tuple[float, ...] = ()
    victims: Tuple[str, ...] = ()
    join_speed: float = 1.0
    join_memory: float = 16.0
    join_kind: str = "joined"

    def __post_init__(self):
        for name in ("fail_times", "leave_times", "join_times"):
            object.__setattr__(self, name,
                               tuple(float(t) for t in getattr(self, name)))
        object.__setattr__(self, "victims",
                           tuple(str(v) for v in self.victims))
        if self.join_speed <= 0 or self.join_memory <= 0:
            raise ValueError("joining processors need positive speed/memory")

    def events(self, seed: SeedLike) -> List[SimEvent]:
        rng = make_rng(seed)
        n_victims = len(self.fail_times) + len(self.leave_times)
        picks = event_seeds(n_victims, rng)
        out: List[SimEvent] = []
        i = 0
        for kind, times in (("fail", self.fail_times),
                            ("leave", self.leave_times)):
            for t in times:
                if i < len(self.victims):
                    out.append(SimEvent(time=t, kind=kind,
                                        processor=self.victims[i]))
                else:
                    out.append(SimEvent(time=t, kind=kind, pick=picks[i]))
                i += 1
        for j, t in enumerate(self.join_times):
            out.append(SimEvent(time=t, kind="join",
                                processor=f"{self.join_kind}-{j}",
                                speed=self.join_speed,
                                memory=self.join_memory,
                                proc_kind=self.join_kind))
        out.sort(key=lambda ev: ev.time)
        return out


@dataclass(frozen=True)
class RuntimeInflation(Record):
    """Stochastic runtime inflation: estimates prove optimistic mid-run.

    At each instant a lognormal factor ``>= 1`` multiplies the work of
    ~``fraction`` of the in-flight (incomplete) blocks — both the live
    replay and the policies' price model see the revised estimates, which
    is exactly what makes re-planning worthwhile.
    """

    kind = "inflation"

    times: Tuple[float, ...] = ()
    sigma: float = 0.25
    fraction: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "times",
                           tuple(float(t) for t in self.times))
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")

    def events(self, seed: SeedLike) -> List[SimEvent]:
        rng = make_rng(seed)
        seeds = event_seeds(len(self.times), rng)
        return [SimEvent(time=t, kind="inflate",
                         factor=lognormal_factor(self.sigma, rng),
                         fraction=self.fraction, seed=s)
                for t, s in zip(self.times, seeds)]


EventModel = Union[PoissonArrivals, TraceArrivals, ProcessorChurn,
                   RuntimeInflation]

EVENT_MODEL_KINDS = {cls.kind: cls for cls in
                     (PoissonArrivals, TraceArrivals, ProcessorChurn,
                      RuntimeInflation)}


model_from_dict = tagged_decoder("event model", EVENT_MODEL_KINDS)


# ----------------------------------------------------------------------
# The dynamics block
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DynamicsSpec(Record):
    """Everything dynamic about a scenario: perturbations + reaction.

    ``policy`` names a registered reaction policy (``static`` /
    ``resolve`` / ``warmstart``); ``algorithm`` is the cold re-solve
    algorithm (``None`` = the request's own). With ``relative_times``
    (the default) every model time is a fraction of the undisturbed
    plan's makespan — ``0.5`` means mid-run on any instance; absolute
    virtual times are available by switching it off. ``horizon`` drops
    events beyond it (same unit as the times). ``warm_sweep`` lets the
    warm-start policy follow forced repairs with one delta-priced
    improvement sweep over the not-yet-started blocks. Its canonical
    ``to_json`` is also the cache fingerprint payload.
    """

    label = "dynamics"

    models: Tuple[EventModel, ...] = ()
    seed: int = 0
    policy: str = "warmstart"
    algorithm: Optional[str] = None
    relative_times: bool = True
    warm_sweep: bool = True
    horizon: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(
            decoded(m, model_from_dict, *EVENT_MODEL_KINDS.values())
            for m in self.models))
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        # resolve now, so a bad policy name fails before any planning
        get_policy(self.policy)

    # ------------------------------------------------------------------
    def compile(self) -> List[SimEvent]:
        """The merged, time-ordered event stream (deterministic per seed).

        Each model draws from its own spawned child stream, so adding a
        model never shifts the events of its siblings.
        """
        if not self.models:
            return []
        rngs = spawn_rngs(self.seed, len(self.models))
        streams = [model.events(rng)
                   for model, rng in zip(self.models, rngs)]
        merged = merge_timelines(streams)
        if self.horizon is not None:
            merged = [ev for ev in merged if ev.time <= self.horizon]
        return merged
