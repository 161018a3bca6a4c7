"""Round-trip and determinism properties of the frozen dynamics configs.

Every config the simulator freezes — :class:`SimEvent`, the four event
models, and :class:`DynamicsSpec` — must survive ``to_dict``/``to_json``
round trips exactly (the JSON forms are the spec-file surface *and* the
cache-fingerprint payload), and compiling a spec must be deterministic
per seed with sibling models drawing from independent child streams.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

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

SETTINGS = dict(deadline=None, max_examples=60,
                suppress_health_check=[HealthCheck.too_slow])

_times = st.lists(st.floats(0.0, 10.0, allow_nan=False), max_size=4).map(tuple)
_name = st.sampled_from(["blast", "genome", "montage"])


@st.composite
def sim_events(draw):
    return SimEvent(
        time=draw(st.floats(0.0, 100.0, allow_nan=False)),
        kind=draw(st.sampled_from(EVENT_KINDS)),
        family=draw(_name),
        n_tasks=draw(st.integers(0, 500)),
        seed=draw(st.integers(0, 2**31)),
        processor=draw(st.sampled_from(["", "p0", "big-3"])),
        pick=draw(st.integers(-1, 2**31)),
        speed=draw(st.floats(0.1, 8.0, allow_nan=False)),
        memory=draw(st.floats(0.0, 64.0, allow_nan=False)),
        proc_kind=draw(st.sampled_from(["", "joined", "spot"])),
        factor=draw(st.floats(1.0, 4.0, allow_nan=False)),
        fraction=draw(st.floats(0.0, 1.0, allow_nan=False)))


@st.composite
def event_models(draw):
    which = draw(st.sampled_from(sorted(EVENT_MODEL_KINDS)))
    if which == "poisson_arrivals":
        return PoissonArrivals(
            rate=draw(st.floats(0.1, 10.0, allow_nan=False)),
            count=draw(st.integers(0, 5)),
            family=draw(_name),
            n_tasks=draw(st.integers(1, 100)),
            start=draw(st.floats(0.0, 1.0, allow_nan=False)))
    if which == "trace_arrivals":
        return TraceArrivals(times=draw(_times), family=draw(_name),
                             n_tasks=draw(st.integers(1, 100)))
    if which == "churn":
        return ProcessorChurn(
            fail_times=draw(_times),
            leave_times=draw(_times),
            join_times=draw(_times),
            victims=draw(st.lists(st.sampled_from(["p0", "p1", "big-2"]),
                                  max_size=3).map(tuple)),
            join_speed=draw(st.floats(0.1, 8.0, allow_nan=False)),
            join_memory=draw(st.floats(0.1, 64.0, allow_nan=False)),
            join_kind=draw(st.sampled_from(["joined", "spot"])))
    return RuntimeInflation(
        times=draw(_times),
        sigma=draw(st.floats(0.0, 2.0, allow_nan=False)),
        fraction=draw(st.floats(0.0, 1.0, allow_nan=False)))


@st.composite
def dynamics_specs(draw):
    return DynamicsSpec(
        models=tuple(draw(st.lists(event_models(), max_size=3))),
        seed=draw(st.integers(0, 2**31)),
        policy=draw(st.sampled_from(["static", "warmstart", "resolve"])),
        algorithm=draw(st.sampled_from([None, "cpack", "daghetpart"])),
        relative_times=draw(st.booleans()),
        warm_sweep=draw(st.booleans()),
        horizon=draw(st.one_of(st.none(),
                               st.floats(0.1, 10.0, allow_nan=False))))


class TestRoundTrips:
    @given(ev=sim_events())
    @settings(**SETTINGS)
    def test_sim_event_dict_round_trip(self, ev):
        assert SimEvent.from_dict(ev.to_dict()) == ev

    @given(ev=sim_events())
    @settings(**SETTINGS)
    def test_sim_event_json_round_trip(self, ev):
        # the event log is byte-compared by CI: the record must survive
        # a JSON round trip exactly, floats included
        text = json.dumps(ev.to_dict(), sort_keys=True)
        assert SimEvent.from_dict(json.loads(text)) == ev

    @given(model=event_models())
    @settings(**SETTINGS)
    def test_model_round_trip(self, model):
        again = model_from_dict(model.to_dict())
        assert type(again) is type(model)
        assert again == model

    @given(spec=dynamics_specs())
    @settings(**SETTINGS)
    def test_spec_json_round_trip(self, spec):
        again = DynamicsSpec.from_json(spec.to_json())
        assert again == spec
        # canonical form is stable — it is the fingerprint payload
        assert again.to_json() == spec.to_json()


class TestCompile:
    @given(spec=dynamics_specs())
    @settings(**SETTINGS)
    def test_compile_deterministic(self, spec):
        assert spec.compile() == spec.compile()
        assert DynamicsSpec.from_json(spec.to_json()).compile() == \
            spec.compile()

    @given(spec=dynamics_specs())
    @settings(**SETTINGS)
    def test_compile_sorted_and_bounded(self, spec):
        events = spec.compile()
        times = [ev.time for ev in events]
        assert times == sorted(times)
        if spec.horizon is not None:
            assert all(t <= spec.horizon for t in times)
        for ev in events:
            assert ev.kind in EVENT_KINDS

    @given(spec=dynamics_specs(), extra=event_models())
    @settings(**SETTINGS)
    def test_appending_a_model_keeps_siblings(self, spec, extra):
        # each model draws from its own spawned child stream, so adding
        # one must not shift the events its siblings emit
        grown = DynamicsSpec(models=spec.models + (extra,), seed=spec.seed)
        base = sorted(spec.compile(), key=lambda ev: (ev.time, repr(ev)))
        kept = [ev for ev in grown.compile()]
        for ev in base:
            assert ev in kept

    def test_seed_changes_stream(self):
        model = PoissonArrivals(rate=2.0, count=3)
        a = DynamicsSpec(models=(model,), seed=1).compile()
        b = DynamicsSpec(models=(model,), seed=2).compile()
        assert [ev.time for ev in a] != [ev.time for ev in b]


class TestValidation:
    def test_unknown_event_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            SimEvent(time=0.0, kind="meteor")

    def test_unknown_model_kind(self):
        with pytest.raises(ValueError, match="unknown event model kind"):
            model_from_dict({"kind": "solar_flare"})

    def test_unknown_dynamics_field(self):
        with pytest.raises(ValueError, match="unknown dynamics field"):
            DynamicsSpec.from_dict({"seed": 1, "polcy": "warmstart"})

    def test_bad_model_params(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0.0)
        with pytest.raises(ValueError):
            PoissonArrivals(count=-1)
        with pytest.raises(ValueError):
            TraceArrivals(times=(1.0,), n_tasks=0)
        with pytest.raises(ValueError):
            ProcessorChurn(join_speed=0.0)
        with pytest.raises(ValueError):
            RuntimeInflation(sigma=-0.1)
        with pytest.raises(ValueError):
            RuntimeInflation(fraction=1.5)
        with pytest.raises(ValueError):
            DynamicsSpec(horizon=0.0)

    def test_policy_resolved_at_construction(self):
        with pytest.raises(TypeError):
            DynamicsSpec(policy=7)
        with pytest.raises(ValueError, match="unknown reaction policy 'nope'; "
                                             "available: .*warmstart"):
            DynamicsSpec(policy="nope")
        # aliases resolve, and the spelling is stored unchanged: to_json()
        # is the cache-key payload of a dynamic request
        assert DynamicsSpec(policy="Warm-Start").policy == "Warm-Start"

        # a bad policy fails when the request is built, before any
        # (expensive) planning
        from repro.api.envelopes import ScheduleRequest
        from repro.generators.families import generate_workflow
        from repro.platform.presets import small_cluster

        with pytest.raises(ValueError, match="unknown reaction policy"):
            ScheduleRequest(workflow=generate_workflow("blast", 10, seed=0),
                            cluster=small_cluster(), algorithm="cpack",
                            dynamics={"policy": "nope"})

    def test_victims_consumed_then_random(self):
        churn = ProcessorChurn(fail_times=(0.2, 0.4), victims=("p7",))
        events = churn.events(0)
        explicit = [ev for ev in events if ev.processor]
        random = [ev for ev in events if not ev.processor]
        assert [ev.processor for ev in explicit] == ["p7"]
        assert len(random) == 1 and random[0].pick >= 0
