"""Tests of the request/result envelopes: failures, JSON round trip.

The property-style classes at the bottom sweep randomized envelopes —
arbitrary tags, configs, sweep traces, and non-finite floats — through
``to_json``/``from_json`` and hold the serialization to its contract:
**bit-for-bit round trip or explicit rejection**, never a silent
mutation (the one representational choice, ``+inf`` makespan ⇄ ``null``,
is itself round-trip-exact).
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AnnealConfig,
    FailureInfo,
    ScheduleRequest,
    ScheduleResult,
    SweepPoint,
    solve,
)
from repro.core.heuristic import DagHetPartConfig
from repro.generators.families import generate_workflow
from repro.platform.cluster import Cluster
from repro.platform.presets import default_cluster
from repro.platform.processor import Processor
from repro.utils.errors import (
    CyclicWorkflowError,
    InvalidPartitionError,
    NoFeasibleMappingError,
    ReproError,
)
from repro.workflow.graph import Workflow
from repro.workflow.io import workflow_to_dict

FAST_CFG = DagHetPartConfig(k_prime_values=(1, 4))


def _success_result():
    wf = generate_workflow("blast", 24, seed=1)
    return solve(ScheduleRequest(workflow=wf, cluster=default_cluster(),
                                 algorithm="daghetpart", config=FAST_CFG,
                                 scale_memory=True,
                                 tags={"instance": "blast-24", "n_tasks": 24}))


def _failed_result():
    wf = generate_workflow("blast", 24, seed=1)
    tiny = Cluster([Processor("p0", 1.0, 0.001)])
    return solve(ScheduleRequest(workflow=wf, cluster=tiny,
                                 algorithm="daghetpart", config=FAST_CFG,
                                 tags={"instance": "blast-24"}))


class TestFailureInfo:
    def test_from_exception_captures_unplaced(self):
        info = FailureInfo.from_exception(
            NoFeasibleMappingError("too small", unplaced_tasks=7))
        assert info.kind == "NoFeasibleMappingError"
        assert info.unplaced_tasks == 7
        assert "too small" in str(info)

    @pytest.mark.parametrize("exc", [
        NoFeasibleMappingError("m", unplaced_tasks=3),
        CyclicWorkflowError(message="m"),
        InvalidPartitionError("m"),
        ReproError("m"),
    ])
    def test_to_exception_roundtrip(self, exc):
        back = FailureInfo.from_exception(exc).to_exception()
        assert type(back) is type(exc)
        assert str(back) == str(exc)

    def test_unknown_kind_falls_back_to_repro_error(self):
        assert isinstance(FailureInfo("Weird", "m").to_exception(), ReproError)


class TestScheduleResult:
    def test_success_envelope(self):
        r = _success_result()
        assert r.success and r.failure is None
        assert r.algorithm == "DagHetPart"
        assert r.makespan > 0 and r.runtime >= 0 and r.n_blocks >= 1
        assert r.k_prime in (1, 4)
        assert [p.k_prime for p in r.sweep] == [1, 4]
        assert any(p.status == "ok" for p in r.sweep)
        assert r.mapping is not None
        assert r.mapping.makespan() == pytest.approx(r.makespan)
        assert r.raise_if_failed() is r

    def test_failure_envelope(self):
        r = _failed_result()
        assert not r.success
        assert r.failure.kind == "NoFeasibleMappingError"
        assert r.failure.unplaced_tasks == r.n_tasks > 0
        assert math.isinf(r.makespan)
        assert r.n_blocks == 0 and r.mapping is None and r.k_prime is None
        # the sweep trace survives the failure: every candidate was tried
        # (only k'=1 is a valid candidate on a 1-processor cluster)
        assert [p.status for p in r.sweep] == ["infeasible"]
        with pytest.raises(NoFeasibleMappingError):
            r.raise_if_failed()

    def test_result_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _success_result().makespan = 0.0

    def test_without_mapping(self):
        r = _success_result()
        stripped = dataclasses.replace(r, mapping=None)
        assert stripped.mapping is None
        assert stripped == r  # mapping is excluded from comparison


class TestJsonRoundTrip:
    def test_success_roundtrips_bit_for_bit(self):
        r = _success_result()
        text = r.to_json()
        back = ScheduleResult.from_json(text)
        assert back.to_json() == text
        assert back == r  # the live mapping is excluded from comparison
        assert back.mapping is None
        assert back.tags == {"instance": "blast-24", "n_tasks": 24}
        assert back.sweep == r.sweep

    def test_failure_roundtrips_bit_for_bit(self):
        r = _failed_result()
        text = r.to_json()
        # strict RFC 8259 JSON: the inf makespan serializes as null, not
        # the non-standard Infinity literal (which jq/JS reject)
        assert "Infinity" not in text
        back = ScheduleResult.from_json(text)
        assert back.to_json() == text
        assert back == r
        assert back.failure == r.failure
        assert math.isinf(back.makespan)
        with pytest.raises(NoFeasibleMappingError):
            back.raise_if_failed()

    def test_json_is_deterministic_and_sorted(self):
        r = _success_result()
        assert r.to_json() == r.to_json()
        data = json.loads(r.to_json())
        assert list(data) == sorted(data)

    def test_dict_roundtrip_preserves_sweep_points(self):
        r = _success_result()
        back = ScheduleResult.from_dict(r.to_dict())
        assert all(isinstance(p, SweepPoint) for p in back.sweep)
        assert back.sweep == r.sweep

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_nan_and_neg_inf_makespan_rejected(self, bad):
        # only +inf (a failed run) has a null representation; nan/-inf
        # would silently rehydrate as +inf, so they are rejected instead
        r = dataclasses.replace(_success_result(), makespan=bad)
        with pytest.raises(ValueError):
            r.to_dict()
        with pytest.raises(ValueError):
            r.to_json()


# ----------------------------------------------------------------------
# Property sweeps: randomized envelopes through the JSON round trip.
# Contract: bit-for-bit or explicit rejection (ValueError/TypeError) —
# never a silently mutated field.
# ----------------------------------------------------------------------
_any_float = st.floats(allow_nan=True, allow_infinity=True)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_tag_values = st.one_of(st.none(), st.booleans(), st.integers(-2**31, 2**31),
                        _any_float, st.text(max_size=12))
_tags = st.dictionaries(st.text(min_size=1, max_size=8), _tag_values,
                        max_size=4)
_sweep = st.lists(
    st.builds(SweepPoint,
              k_prime=st.integers(1, 64),
              makespan=st.one_of(st.none(), _any_float),
              status=st.sampled_from(["ok", "infeasible", "error"])),
    max_size=4).map(tuple)
_failure = st.one_of(
    st.none(),
    st.builds(FailureInfo,
              kind=st.sampled_from(["NoFeasibleMappingError",
                                    "CyclicWorkflowError", "ReproError"]),
              message=st.text(max_size=20),
              unplaced_tasks=st.integers(0, 10_000)))

_results = st.builds(
    ScheduleResult,
    algorithm=st.sampled_from(["DagHetMem", "DagHetPart", "Anneal"]),
    workflow=st.text(max_size=12),
    n_tasks=st.integers(0, 10**6),
    cluster=st.text(max_size=12),
    bandwidth=_any_float,
    makespan=st.one_of(_finite, st.sampled_from(
        [float("inf"), float("-inf"), float("nan")])),
    runtime=_any_float,
    n_blocks=st.integers(0, 10**4),
    k_prime=st.one_of(st.none(), st.integers(1, 64)),
    sweep=_sweep,
    failure=_failure,
    tags=_tags,
    extra=_tags,
)


def _has_non_finite(value):
    """Any non-finite float anywhere in a JSON-ready structure?"""
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_has_non_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_non_finite(v) for v in value)
    return False


class TestResultRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(result=_results)
    def test_bit_for_bit_or_explicit_rejection(self, result):
        try:
            text = result.to_json()
        except ValueError:
            # rejection is only legitimate for a non-finite float the
            # format cannot represent (+inf makespan excepted: it maps
            # to null and back)
            assert (_has_non_finite(dataclasses.asdict(result))
                    and not (result.makespan == math.inf
                             and not _has_non_finite(dataclasses.asdict(
                                 dataclasses.replace(result, makespan=0.0)))))
            return
        back = ScheduleResult.from_json(text)
        assert back.to_json() == text
        assert back == result

    @settings(max_examples=60, deadline=None)
    @given(result=_results)
    def test_rejection_never_writes_partial_output(self, result):
        # to_json either returns a complete document or raises before
        # producing anything parseable — re-serializing a successful dump
        # is always possible (no one-way envelopes)
        try:
            text = result.to_json()
        except ValueError:
            return
        assert ScheduleResult.from_json(text).to_json() == text


_part_configs = st.builds(
    DagHetPartConfig,
    k_prime_strategy=st.sampled_from(["auto", "all", "doubling"]),
    k_prime_values=st.one_of(
        st.none(), st.lists(st.integers(1, 36), min_size=1,
                            max_size=4).map(tuple)),
    eps=st.floats(0.01, 0.5),
    enable_swaps=st.booleans(),
)
_anneal_configs = st.builds(
    AnnealConfig,
    seed=st.integers(0, 2**31 - 1),
    iterations=st.integers(0, 5000),
    restarts=st.integers(1, 5),
    move_fraction=st.floats(0.0, 1.0),
    schedule=st.sampled_from(["geometric", "linear"]),
)
_algorithm_and_config = st.one_of(
    st.tuples(st.sampled_from(["daghetmem", "heftlist"]), st.none()),
    st.tuples(st.just("daghetpart"), st.one_of(st.none(), _part_configs)),
    st.tuples(st.just("anneal"), st.one_of(st.none(), _anneal_configs)),
)


@st.composite
def _workflows(draw):
    wf = Workflow(draw(st.text(min_size=1, max_size=8)))
    n = draw(st.integers(1, 5))
    weights = st.one_of(_finite.filter(lambda x: x >= 0), _any_float)
    for i in range(n):
        wf.add_task(f"t{i}", draw(weights), abs(draw(weights)))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                wf.add_edge(f"t{i}", f"t{j}", abs(draw(weights)))
    return wf


class TestRequestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(wf=_workflows(), alg_cfg=_algorithm_and_config, tags=_tags,
           scale=st.booleans(), validate=st.booleans(), want=st.booleans())
    def test_bit_for_bit_or_explicit_rejection(self, wf, alg_cfg, tags,
                                               scale, validate, want):
        algorithm, config = alg_cfg
        request = ScheduleRequest(
            workflow=wf, cluster=default_cluster(), algorithm=algorithm,
            config=config, scale_memory=scale, validate=validate,
            want_mapping=want, tags=tags)
        try:
            text = request.to_json()
        except ValueError:
            assert _has_non_finite(workflow_to_dict(wf)) \
                or _has_non_finite(dict(tags))
            return
        back = ScheduleRequest.from_json(text)
        assert back.to_json() == text
        assert back.config == config
        assert back.algorithm == algorithm
        assert workflow_to_dict(back.workflow) == workflow_to_dict(wf)
        assert back.cluster.to_dict() == request.cluster.to_dict()
        assert dict(back.tags) == dict(tags)
        assert (back.scale_memory, back.validate, back.want_mapping) == \
            (scale, validate, want)

    def test_non_dataclass_config_is_rejected_explicitly(self):
        request = ScheduleRequest(workflow=generate_workflow("blast", 16, seed=0),
                                  cluster=default_cluster(),
                                  algorithm="daghetpart", config=object())
        with pytest.raises(TypeError):
            request.to_dict()

    def test_unknown_algorithm_rejected_on_load_without_config(self):
        request = ScheduleRequest(workflow=generate_workflow("blast", 16, seed=0),
                                  cluster=default_cluster())
        data = request.to_dict()
        assert data["config"] is None
        data["algorithm"] = "daghetprt"
        with pytest.raises(ValueError, match="daghetprt"):
            ScheduleRequest.from_dict(data)

    def test_config_type_mismatch_rejected_on_load(self):
        wf = generate_workflow("blast", 16, seed=0)
        request = ScheduleRequest(workflow=wf, cluster=default_cluster(),
                                  algorithm="daghetpart",
                                  config=DagHetPartConfig())
        data = request.to_dict()
        data["algorithm"] = "anneal"  # carries a DagHetPartConfig payload
        with pytest.raises(ValueError):
            ScheduleRequest.from_dict(data)
