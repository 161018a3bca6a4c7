"""The shared JSON record codec (:mod:`repro.utils.records`).

One fixture per :class:`~repro.utils.records.Record` class, with every
field set away from its default. ``GOLDEN`` pins each fixture's
``to_json()`` to the bytes the hand-written codecs wrote before the
classes moved onto the mixin, so the wire format (job store lines,
cache fingerprints, event logs, spec files) cannot drift.
"""

import json

import pytest

from repro.api.envelopes import FailureInfo
from repro.api.exec.policy import ExecutionPolicy
from repro.api.scenario import (
    AlgorithmSpec,
    ExecutionSpec,
    FamilyGridSource,
    FileWorkflowSource,
    PlatformAxis,
    RealWorkflowSource,
    ScenarioSpec,
    TemplateWorkflowSource,
    source_from_dict,
)
from repro.service.jobs import JobResult, JobSpec, JobStatus
from repro.sim.events import (
    DynamicsSpec,
    PoissonArrivals,
    ProcessorChurn,
    RuntimeInflation,
    SimEvent,
    TraceArrivals,
    model_from_dict,
)
from repro.utils.records import Record, listed, tupled

POLICY = ExecutionPolicy(timeout_s=2.5, retries=2, retry_backoff=0.1,
                         on_timeout="requeue")
FAMILIES = FamilyGridSource(families=("bwa", "soykb"),
                            sizes={"small": (20, 30), "mid": (40,)},
                            seed=5, replications=2, work_factor=1.5)
TEMPLATE = TemplateWorkflowSource(
    path="pipeline.tmpl.json",
    data={"n": 3, "stages": ["a", "b"], "nested": {"x": [1, 2]}},
    name="rendered", checksum="c0ffee", category="templated", family="tpl")
CHURN = ProcessorChurn(fail_times=(0.2,), leave_times=(0.3, 0.35),
                       join_times=(0.5,), victims=("p0",), join_speed=2.0,
                       join_memory=32.0, join_kind="spare")
DYNAMICS = DynamicsSpec(models=(PoissonArrivals(rate=2.0, count=2), CHURN),
                        seed=7, policy="resolve", algorithm="daghetmem",
                        relative_times=False, warm_sweep=False, horizon=10.0)
EXECUTION = ExecutionSpec(backend="process", parallel=2, policy=POLICY,
                          cache="sqlite:///results.db")

FIXTURES = {
    "policy": POLICY,
    "families": FAMILIES,
    "real": RealWorkflowSource(names=("montage", "eager"), seed=3,
                               work_factor=2.0),
    "file": FileWorkflowSource(path="trace.dax", format="dax",
                               checksum="abc123", category="traces",
                               family="montage"),
    "template": TEMPLATE,
    "platform": PlatformAxis(preset="default", bandwidths=(0.5, 1.0),
                             memory_factors=(1.0, 2.0)),
    "algorithm": AlgorithmSpec("daghetpart",
                               config={"k_prime_strategy": "doubling"}),
    "execution": EXECUTION,
    "scenario": ScenarioSpec(
        name="codec", description="every block set",
        workflows=(FAMILIES, TEMPLATE),
        platforms=(PlatformAxis(bandwidths=(0.5, 2.0)),),
        algorithms=(AlgorithmSpec("daghetmem"),),
        tags={"series": "{family}@{bandwidth}", "run": 3},
        scale_memory=False, validate=True,
        execution=EXECUTION, dynamics=DYNAMICS),
    "job_spec": JobSpec(id="job-1", kind="schedule",
                        payload={"algorithm": "daghetpart",
                                 "tags": {"ids": [1, 2]}},
                        submitted_at=12.5, tags={"client": ["a", "b"]}),
    "job_status": JobStatus(id="job-1", state="done", total=3, completed=3,
                            ok=2, failed=1, timeouts=0, submitted_at=1.0,
                            started_at=2.0, finished_at=3.5,
                            error="partial"),
    "job_result": JobResult(id="job-1",
                            results=({"makespan": 1.5, "sweep": [1, 2]},),
                            n_ok=1, n_failed=0, n_timeout=0, cache_hits=1,
                            cache_misses=2, elapsed_s=0.25),
    "sim_event": SimEvent(time=0.5, kind="join", processor="spare-0",
                          speed=2.0, memory=8.0, proc_kind="spare"),
    "poisson": PoissonArrivals(rate=2.0, count=3, family="bwa", n_tasks=30,
                               start=0.1),
    "trace": TraceArrivals(times=(0.1, 0.4), family="soykb", n_tasks=24),
    "churn": CHURN,
    "inflation": RuntimeInflation(times=(0.25, 0.75), sigma=0.3,
                                  fraction=0.4),
    "dynamics": DYNAMICS,
    "failure": FailureInfo(kind="NoFeasibleMappingError", message="no fit",
                           unplaced_tasks=4),
}

#: fields whose values are opaque JSON payloads: they must come back
#: exactly as encoded, lists and all
OPAQUE = {
    "template": ("data",),
    "scenario": ("tags",),
    "job_spec": ("payload", "tags"),
    "job_result": ("results",),
}

#: each fixture's encoding as the hand-written codecs wrote it (the
#: failure one as ScheduleResult.to_dict wrote it inline)
GOLDEN = {
    "algorithm": (
        '{"config": {"k_prime_strategy": "doubling"}, "name": "daghetpart"}'
    ),
    "churn": (
        '{"fail_times": [0.2], "join_kind": "spare", "join_memory": 32.0, '
        '"join_speed": 2.0, "join_times": [0.5], "kind": "churn", '
        '"leave_times": [0.3, 0.35], "victims": ["p0"]}'
    ),
    "dynamics": (
        '{"algorithm": "daghetmem", "horizon": 10.0, "models": [{"count": 2, '
        '"family": "blast", "kind": "poisson_arrivals", "n_tasks": 20, '
        '"rate": 2.0, "start": 0.0}, {"fail_times": [0.2], '
        '"join_kind": "spare", "join_memory": 32.0, "join_speed": 2.0, '
        '"join_times": [0.5], "kind": "churn", "leave_times": [0.3, 0.35], '
        '"victims": ["p0"]}], "policy": "resolve", "relative_times": false, '
        '"seed": 7, "warm_sweep": false}'
    ),
    "execution": (
        '{"backend": "process", "cache": "sqlite:///results.db", '
        '"parallel": 2, "policy": {"on_timeout": "requeue", "retries": 2, '
        '"retry_backoff": 0.1, "timeout_s": 2.5}}'
    ),
    "failure": (
        '{"kind": "NoFeasibleMappingError", "message": "no fit", '
        '"unplaced_tasks": 4}'
    ),
    "families": (
        '{"families": ["bwa", "soykb"], "kind": "families", '
        '"replications": 2, "seed": 5, "sizes": {"mid": [40], "small": [20, '
        '30]}, "work_factor": 1.5}'
    ),
    "file": (
        '{"category": "traces", "checksum": "abc123", "family": "montage", '
        '"format": "dax", "kind": "file", "path": "trace.dax"}'
    ),
    "inflation": (
        '{"fraction": 0.4, "kind": "inflation", "sigma": 0.3, '
        '"times": [0.25, 0.75]}'
    ),
    "job_result": (
        '{"cache_hits": 1, "cache_misses": 2, "elapsed_s": 0.25, '
        '"id": "job-1", "n_failed": 0, "n_ok": 1, "n_timeout": 0, '
        '"results": [{"makespan": 1.5, "sweep": [1, 2]}]}'
    ),
    "job_spec": (
        '{"id": "job-1", "kind": "schedule", '
        '"payload": {"algorithm": "daghetpart", "tags": {"ids": [1, 2]}}, '
        '"submitted_at": 12.5, "tags": {"client": ["a", "b"]}}'
    ),
    "job_status": (
        '{"completed": 3, "error": "partial", "failed": 1, '
        '"finished_at": 3.5, "id": "job-1", "ok": 2, "started_at": 2.0, '
        '"state": "done", "submitted_at": 1.0, "timeouts": 0, "total": 3}'
    ),
    "platform": (
        '{"bandwidths": [0.5, 1.0], "memory_factors": [1.0, 2.0], '
        '"preset": "default"}'
    ),
    "poisson": (
        '{"count": 3, "family": "bwa", "kind": "poisson_arrivals", '
        '"n_tasks": 30, "rate": 2.0, "start": 0.1}'
    ),
    "policy": (
        '{"on_timeout": "requeue", "retries": 2, "retry_backoff": 0.1, '
        '"timeout_s": 2.5}'
    ),
    "real": (
        '{"kind": "real", "names": ["montage", "eager"], "seed": 3, '
        '"work_factor": 2.0}'
    ),
    "scenario": (
        '{\n "name": "codec",\n "description": "every block set",\n'
        ' "workflows": [\n  {\n   "kind": "families",\n   "families": [\n'
        '    "bwa",\n    "soykb"\n   ],\n   "sizes": {\n    "small": [\n'
        '     20,\n     30\n    ],\n    "mid": [\n     40\n    ]\n   },\n'
        '   "seed": 5,\n   "replications": 2,\n   "work_factor": 1.5\n  },\n'
        '  {\n   "kind": "template",\n   "path": "pipeline.tmpl.json",\n'
        '   "data": {\n    "n": 3,\n    "stages": [\n     "a",\n     "b"\n'
        '    ],\n    "nested": {\n     "x": [\n      1,\n      2\n     ]\n'
        '    }\n   },\n   "data_path": null,\n   "name": "rendered",\n'
        '   "checksum": "c0ffee",\n   "category": "templated",\n'
        '   "family": "tpl"\n  }\n ],\n "platforms": [\n  {\n'
        '   "preset": "default",\n   "bandwidths": [\n    0.5,\n    2.0\n'
        '   ],\n   "memory_factors": [\n    1.0\n   ]\n  }\n ],\n'
        ' "algorithms": [\n  {\n   "name": "daghetmem",\n   "config": null\n'
        '  }\n ],\n "tags": {\n  "series": "{family}@{bandwidth}",\n'
        '  "run": 3\n },\n "scale_memory": false,\n "validate": true,\n'
        ' "execution": {\n  "backend": "process",\n  "parallel": 2,\n'
        '  "policy": {\n   "timeout_s": 2.5,\n   "retries": 2,\n'
        '   "retry_backoff": 0.1,\n   "on_timeout": "requeue"\n  },\n'
        '  "cache": "sqlite:///results.db"\n },\n "dynamics": {\n'
        '  "models": [\n   {\n    "kind": "poisson_arrivals",\n'
        '    "rate": 2.0,\n    "count": 2,\n    "family": "blast",\n'
        '    "n_tasks": 20,\n    "start": 0.0\n   },\n   {\n'
        '    "kind": "churn",\n    "fail_times": [\n     0.2\n    ],\n'
        '    "leave_times": [\n     0.3,\n     0.35\n    ],\n'
        '    "join_times": [\n     0.5\n    ],\n    "victims": [\n     "p0"\n'
        '    ],\n    "join_speed": 2.0,\n    "join_memory": 32.0,\n'
        '    "join_kind": "spare"\n   }\n  ],\n  "seed": 7,\n'
        '  "policy": "resolve",\n  "algorithm": "daghetmem",\n'
        '  "relative_times": false,\n  "warm_sweep": false,\n'
        '  "horizon": 10.0\n }\n}'
    ),
    "sim_event": (
        '{"factor": 1.0, "family": "", "fraction": 0.0, "kind": "join", '
        '"memory": 8.0, "n_tasks": 0, "pick": -1, "proc_kind": "spare", '
        '"processor": "spare-0", "seed": 0, "speed": 2.0, "time": 0.5}'
    ),
    "template": (
        '{"category": "templated", "checksum": "c0ffee", "data": {"n": 3, '
        '"nested": {"x": [1, 2]}, "stages": ["a", "b"]}, "data_path": null, '
        '"family": "tpl", "kind": "template", "name": "rendered", '
        '"path": "pipeline.tmpl.json"}'
    ),
    "trace": (
        '{"family": "soykb", "kind": "trace_arrivals", "n_tasks": 24, '
        '"times": [0.1, 0.4]}'
    ),
}


def _decode(record, data):
    """Decode through the entry point the program itself uses."""
    if isinstance(record, (FamilyGridSource, RealWorkflowSource,
                           FileWorkflowSource, TemplateWorkflowSource)):
        return source_from_dict(data)
    if isinstance(record, (PoissonArrivals, TraceArrivals, ProcessorChurn,
                           RuntimeInflation)):
        return model_from_dict(data)
    return type(record).from_dict(data)


def _has_list(value):
    if isinstance(value, list):
        return True
    if isinstance(value, tuple):
        return any(_has_list(v) for v in value)
    if isinstance(value, Record):
        return any(_has_list(getattr(value, name))
                   for name in type(value).__dataclass_fields__)
    return False


def _record_classes():
    seen, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            seen.add(sub)
            todo.append(sub)
    return seen


IDS = sorted(FIXTURES)


def test_every_record_class_has_a_fixture():
    assert _record_classes() == {type(r) for r in FIXTURES.values()}


@pytest.mark.parametrize("name", IDS)
class TestRecordCodec:
    def test_round_trip(self, name):
        record = FIXTURES[name]
        assert _decode(record, record.to_dict()) == record
        assert type(record).from_json(record.to_json()) == record

    def test_dict_is_json_shaped(self, name):
        record = FIXTURES[name]
        assert json.loads(json.dumps(record.to_dict())) == record.to_dict()

    def test_reencode_is_byte_identical(self, name):
        record = FIXTURES[name]
        text = record.to_json()
        assert type(record).from_json(text).to_json() == text

    def test_unknown_field_is_a_value_error_naming_it(self, name):
        record = FIXTURES[name]
        data = dict(record.to_dict(), bogus_field=1)
        with pytest.raises(ValueError, match="bogus_field"):
            _decode(record, data)

    def test_list_fields_come_back_as_tuples(self, name):
        record = FIXTURES[name]
        back = _decode(record, json.loads(json.dumps(record.to_dict())))
        opaque = OPAQUE.get(name, ())
        for field_name in type(back).__dataclass_fields__:
            if field_name not in opaque:
                assert not _has_list(getattr(back, field_name)), field_name

    def test_opaque_payloads_come_back_unchanged(self, name):
        record = FIXTURES[name]
        encoded = json.loads(record.to_json())
        back = _decode(record, encoded)
        for field_name in OPAQUE.get(name, ()):
            value = getattr(back, field_name)
            assert listed(value) == encoded[field_name]
            if isinstance(value, dict):
                assert value == encoded[field_name]

    def test_to_json_matches_the_golden_bytes(self, name):
        assert FIXTURES[name].to_json() == GOLDEN[name]


class TestHelpers:
    def test_tupled_turns_lists_into_tuples_but_not_dict_values(self):
        value = tupled([1, [2, {"a": [3]}]])
        assert value == (1, (2, {"a": [3]}))

    def test_listed_gives_the_json_shape(self):
        assert listed((1, (2,), {"a": (3,)}, POLICY)) == \
            [1, [2], {"a": [3]}, POLICY.to_dict()]

    def test_tag_comes_first_then_declaration_order(self):
        assert list(FIXTURES["churn"].to_dict()) == [
            "kind", "fail_times", "leave_times", "join_times", "victims",
            "join_speed", "join_memory", "join_kind"]

    def test_missing_required_field_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"missing JobStatus field\(s\) "
                                             r"\['id'\]"):
            JobStatus.from_dict({"state": "done"})

    def test_non_object_and_wrong_kind_are_value_errors(self):
        with pytest.raises(ValueError, match="PlatformAxis must be a JSON "
                                             "object, got int"):
            ScenarioSpec.from_dict({"name": "n",
                                    "workflows": [FAMILIES.to_dict()],
                                    "platforms": [1]})
        with pytest.raises(ValueError, match="unknown workflow source kind"):
            ScenarioSpec.from_dict({"name": "n", "workflows": [["families"]]})
        with pytest.raises(ValueError, match="kind must be 'families', "
                                             "got 'real'"):
            FamilyGridSource.from_dict({"kind": "real"})

    def test_unknown_field_message_lists_the_valid_fields(self):
        with pytest.raises(ValueError) as exc:
            PlatformAxis.from_dict({"preset": "default", "bandwith": [1]})
        assert str(exc.value) == (
            "unknown PlatformAxis field(s) ['bandwith']; "
            "valid: ['bandwidths', 'memory_factors', 'preset']")

    def test_nested_blocks_normalise_at_construction(self):
        spec = ScenarioSpec(
            name="n", workflows=(FAMILIES.to_dict(),),
            platforms=({"bandwidths": [2.0]},),
            algorithms=({"name": "daghetmem"},),
            execution={"policy": {"retries": 1}},
            dynamics={"models": [{"kind": "inflation", "times": [0.5]}]})
        assert spec.workflows == (FAMILIES,)
        assert spec.platforms == (PlatformAxis(bandwidths=(2.0,)),)
        assert spec.algorithms == (AlgorithmSpec("daghetmem"),)
        assert spec.execution == ExecutionSpec(
            policy=ExecutionPolicy(retries=1))
        assert spec.dynamics.models == (RuntimeInflation(times=(0.5,)),)

    def test_scenario_top_level_unknown_key_is_rejected(self):
        data = dict(FIXTURES["scenario"].to_dict(), workflow=[])
        with pytest.raises(ValueError, match="unknown scenario field"):
            ScenarioSpec.from_dict(data)
