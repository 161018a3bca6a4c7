"""Job envelopes: validation, payload rehydration, JSON round trips.

The property classes sweep randomized envelopes through
``to_json``/``from_json`` under the same contract as the API envelopes:
bit-for-bit round trip or explicit rejection, never silent mutation.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScheduleRequest
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster
from repro.service import JobResult, JobSpec, JobStatus
from repro.service.jobs import JOB_KINDS, JOB_STATES, TERMINAL_STATES

# JSON-representable text: any codepoint except lone surrogates
_text = st.text(alphabet=st.characters(exclude_categories=("Cs",)))
_ids = _text.filter(bool)
_scalars = (st.none() | st.booleans() | st.integers(-2**53, 2**53)
            | st.floats(allow_nan=False, allow_infinity=False) | _text)
_payloads = st.dictionaries(_text, _scalars, max_size=5)
_counts = st.integers(0, 10**6)
_times = st.floats(min_value=0, max_value=4e9, allow_nan=False)


def _schedule_payload(n=24, algorithm="daghetpart"):
    wf = generate_workflow("blast", n, seed=3)
    return ScheduleRequest(workflow=wf, cluster=default_cluster(),
                           algorithm=algorithm, scale_memory=True).to_dict()


class TestJobSpec:
    def test_rejects_empty_id_and_unknown_kind(self):
        with pytest.raises(ValueError):
            JobSpec(id="", kind="schedule", payload={})
        with pytest.raises(ValueError):
            JobSpec(id="a", kind="interpretive-dance", payload={})
        with pytest.raises(ValueError):
            JobSpec(id="a", kind="schedule", payload="not-a-mapping")

    def test_schedule_payload_builds_one_request(self):
        spec = JobSpec(id="j1", kind="schedule",
                       payload=_schedule_payload())
        assert spec.total_requests() == 1
        (request,) = spec.build_requests()
        assert request.algorithm == "daghetpart"
        # the service variant is the cacheable one
        assert request.want_mapping is False

    def test_schedule_payload_strips_want_mapping(self):
        payload = _schedule_payload()
        payload["want_mapping"] = True
        (request,) = JobSpec(id="j", kind="schedule",
                             payload=payload).build_requests()
        assert request.want_mapping is False

    @settings(max_examples=50, deadline=None)
    @given(id=_ids, kind=st.sampled_from(JOB_KINDS), payload=_payloads,
           submitted_at=_times, tags=_payloads)
    def test_json_round_trip(self, id, kind, payload, submitted_at, tags):
        spec = JobSpec(id=id, kind=kind, payload=payload,
                       submitted_at=submitted_at, tags=tags)
        back = JobSpec.from_json(spec.to_json())
        assert back == spec
        assert back.to_json() == spec.to_json()

    def test_json_is_strict(self):
        spec = JobSpec(id="j", kind="schedule", payload={"b": 1, "a": 2})
        text = spec.to_json()
        assert json.loads(text) == spec.to_dict()
        assert text.index('"a"') < text.index('"b"')  # sorted keys


class TestJobStatus:
    def test_rejects_bad_states_and_counts(self):
        with pytest.raises(ValueError):
            JobStatus(id="j", state="meditating")
        with pytest.raises(ValueError):
            JobStatus(id="j", completed=-1)
        with pytest.raises(ValueError):
            JobStatus(id="")

    def test_terminal_property_matches_the_constant(self):
        for state in JOB_STATES:
            assert JobStatus(id="j", state=state).terminal \
                == (state in TERMINAL_STATES)

    @settings(max_examples=50, deadline=None)
    @given(id=_ids, state=st.sampled_from(JOB_STATES), total=_counts,
           completed=_counts, ok=_counts, failed=_counts, timeouts=_counts,
           submitted_at=_times,
           started_at=st.none() | _times, finished_at=st.none() | _times,
           error=st.none() | _text)
    def test_json_round_trip(self, **fields):
        status = JobStatus(**fields)
        back = JobStatus.from_json(status.to_json())
        assert back == status
        assert back.to_json() == status.to_json()


class TestJobResult:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            JobResult(id="j", n_ok=-1)

    @settings(max_examples=50, deadline=None)
    @given(id=_ids,
           results=st.lists(_payloads, max_size=4),
           n_ok=_counts, n_failed=_counts, n_timeout=_counts,
           cache_hits=_counts, cache_misses=_counts, elapsed_s=_times)
    def test_json_round_trip(self, **fields):
        result = JobResult(**fields)
        back = JobResult.from_json(result.to_json())
        assert back == result
        assert back.to_json() == result.to_json()

    def test_schedule_results_rehydrate_offline_envelopes(self):
        from repro.api import ScheduleResult, solve

        wf = generate_workflow("blast", 24, seed=3)
        offline = solve(ScheduleRequest(
            workflow=wf, cluster=default_cluster(),
            algorithm="daghetpart", scale_memory=True))
        stored = JobResult(id="j", results=(offline.to_dict(),), n_ok=1)
        (back,) = [ScheduleResult.from_dict(r) for r in stored.results]
        assert back.makespan == offline.makespan
        assert back.algorithm == offline.algorithm
