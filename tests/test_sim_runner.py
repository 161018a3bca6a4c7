"""Running the simulator: a dynamics block on the request, end to end.

The contract under test: a :class:`ScheduleRequest` carrying a
``dynamics`` block makes :func:`repro.api.solve` replay the plan and
return an ordinary :class:`ScheduleResult` (realized makespan + flat
``sim_*`` extras + the resolved event log). The block is part of the
request's wire form and of its cache key — layered over the static key
exactly as the retired ``dynamic_fingerprint`` did, so caches written
before keep hitting. Every front end (``repro scenario run``,
``repro simulate``, the service) and every backend reports the same
replay, and the scenario differ treats the simulator metrics as part of
the outcome — flagging degradation/migration deltas while ignoring
wall-clock latencies.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.api import solve, solve_batch
from repro.api.cache import open_cache, request_fingerprint
from repro.api.diff import diff_results, format_diff, load_result_lines
from repro.api.envelopes import ScheduleRequest
from repro.api.exec.policy import ExecutionPolicy
from repro.api.scenario import expand, load_scenario, run_scenario
from repro.cli import main
from repro.generators.families import generate_workflow
from repro.platform.presets import cluster_by_name
from repro.sim.events import DynamicsSpec, ProcessorChurn, TraceArrivals

SPEC_PATH = "examples/specs/dynamics_smoke.json"

#: digests recorded before the dynamics block moved onto the request:
#: the static request's fingerprint and ``to_json()``, and the key the
#: retired ``repro.sim.runner.dynamic_fingerprint`` gave the replay
STATIC_FINGERPRINT = \
    "77384c04cc65e1addf86a0d80c38aa4c3ecb0920a76013bdba6260fa448170dd"
STATIC_WIRE_SHA256 = \
    "6d24ba82d303c9e74dec5850068b69d54756d3242c3358fdbf427c8ebc13d47c"
DYNAMIC_FINGERPRINT = \
    "8e15eb98664fb60348695c964ca5c81fbf29ea7136ce01ca66314e6a8facae5c"


@pytest.fixture(scope="module")
def request_():
    return ScheduleRequest(
        workflow=generate_workflow("blast", 30, seed=7),
        cluster=cluster_by_name("small"),
        algorithm="cpack", scale_memory=True, want_mapping=False)


@pytest.fixture(scope="module")
def dynamics():
    return DynamicsSpec(models=(TraceArrivals(times=(0.2,), family="blast",
                                              n_tasks=10),
                                ProcessorChurn(fail_times=(0.45,))),
                        seed=11, policy="warmstart")


def _with(request, dynamics):
    return dataclasses.replace(request, dynamics=dynamics)


def _records(results):
    return [result.to_dict() for result in results]


def _assert_clean(a, b):
    diff = diff_results(a, b)
    assert diff.clean, format_diff(diff)


class TestFingerprint:
    def test_layers_on_the_static_fingerprint(self, request_, dynamics):
        fp = request_fingerprint(_with(request_, dynamics))
        assert fp != request_fingerprint(request_)
        payload = request_fingerprint(request_) + ":" + dynamics.to_json()
        assert fp == hashlib.sha256(payload.encode("utf-8")).hexdigest()
        assert fp == request_fingerprint(_with(request_, dynamics))

    def test_distinct_per_policy_and_seed(self, request_, dynamics):
        fps = {request_fingerprint(_with(request_, d)) for d in (
            dynamics,
            dataclasses.replace(dynamics, policy="resolve"),
            dataclasses.replace(dynamics, policy="static"),
            dataclasses.replace(dynamics, seed=99))}
        assert len(fps) == 4

    def test_keys_match_the_recorded_digests(self, request_, dynamics):
        # a cache written before the block moved onto the request keeps
        # serving both static solves and replays
        assert request_fingerprint(request_) == STATIC_FINGERPRINT
        assert request_fingerprint(_with(request_, dynamics)) == \
            DYNAMIC_FINGERPRINT


class TestRequestCodec:
    def test_static_wire_form_unchanged(self, request_):
        assert "dynamics" not in request_.to_dict()
        digest = hashlib.sha256(request_.to_json().encode("utf-8"))
        assert digest.hexdigest() == STATIC_WIRE_SHA256

    def test_dynamics_round_trips(self, request_, dynamics):
        request = _with(request_, dynamics)
        data = request.to_dict()
        assert data["dynamics"] == dynamics.to_dict()
        for back in (ScheduleRequest.from_dict(data),
                     ScheduleRequest.from_json(request.to_json())):
            assert back.dynamics == dynamics
            assert back.to_json() == request.to_json()
            assert request_fingerprint(back) == DYNAMIC_FINGERPRINT

    @pytest.mark.parametrize("bad,match", [
        ({"policy": "nope"}, "unknown reaction policy"),
        ({"modles": []}, "unknown dynamics field"),
        ({"models": [{"kind": "meteor"}]}, "unknown event model kind"),
        ("warmstart", "dynamics must be a JSON object"),
        (ExecutionPolicy(), "dynamics must be a JSON object"),
    ], ids=["policy", "field", "model", "not-an-object", "other-record"])
    def test_malformed_dynamics_fails_at_construction(self, request_, bad,
                                                      match):
        with pytest.raises(ValueError, match=match):
            _with(request_, bad)
        data = dict(request_.to_dict(), dynamics=bad)
        with pytest.raises(ValueError, match=match):
            ScheduleRequest.from_dict(data)


class TestSimulateRequest:
    def test_envelope_shape(self, request_, dynamics):
        result = solve(_with(request_, dynamics))
        assert result.failure is None
        assert result.mapping is None        # want_mapping=False drops it
        assert result.extra["sim_policy"] == "warmstart"
        assert result.makespan == result.extra["sim_realized_makespan"]
        assert result.makespan >= result.extra["sim_plan_makespan"]
        assert result.extra["sim_plan_makespan"] == solve(request_).makespan
        log = result.extra["sim_event_log"]
        assert len(log) == result.extra["sim_events"] == 2
        # the log is JSON-serializable as-is (the determinism artifact)
        json.dumps(log)

    def test_policy_override(self, tmp_path, capsys):
        out = tmp_path / "static.jsonl"
        assert main(["simulate", SPEC_PATH, "--policy", "static",
                     "--json", str(out)]) == 0
        assert "policy    : static" in capsys.readouterr().out
        (record,) = load_result_lines(str(out))
        assert record["extra"]["sim_policy"] == "static"

    def test_cache_round_trip(self, request_, dynamics, tmp_path):
        request = _with(request_, dynamics)
        with open_cache(str(tmp_path / "cache")) as cache:
            (first,) = solve_batch([request], cache=cache)
            (again,) = solve_batch([request], cache=cache)
            assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert again.makespan == first.makespan
        # the hit still carries the metrics and the event log
        assert again.extra["sim_event_log"] == first.extra["sim_event_log"]

    def test_policies_cache_separately(self, request_, dynamics, tmp_path):
        requests = [_with(request_, dataclasses.replace(dynamics, policy=p))
                    for p in ("warmstart", "resolve")]
        with open_cache(str(tmp_path / "cache")) as cache:
            a, b = solve_batch(requests, cache=cache)
            assert cache.stats()["entries"] == 2
        assert a.extra["sim_policy"] != b.extra["sim_policy"]

    def test_failed_replay_is_structured_and_cached(self, tmp_path):
        from repro.platform.cluster import Cluster
        from repro.platform.processor import Processor
        from repro.workflow.graph import Workflow

        wf = Workflow("chain")
        for i in range(3):
            wf.add_task(i, work=10.0, memory=1.0)
        wf.add_edge(0, 1, 1.0)
        wf.add_edge(1, 2, 1.0)
        solo = Cluster([Processor(name="solo", speed=1.0, memory=100.0)],
                       name="solo-1")
        request = ScheduleRequest(
            workflow=wf, cluster=solo, algorithm="cpack", want_mapping=False,
            dynamics=DynamicsSpec(models=(
                ProcessorChurn(fail_times=(0.5,), victims=("solo",)),)))
        with open_cache(str(tmp_path / "cache")) as cache:
            (result,) = solve_batch([request], cache=cache)
            # the façade's rule: every failure but a timeout is cached
            assert cache.stats()["entries"] == 1
        assert result.failure.kind == "NoFeasibleMappingError"
        assert result.makespan == solve(dataclasses.replace(
            request, dynamics=None)).makespan  # the plan's makespan


class TestRunDynamicScenario:
    def test_streams_the_smoke_spec(self):
        spec = load_scenario(SPEC_PATH)
        seen = []
        results = list(run_scenario(
            spec, progress=lambda i, req, res: seen.append(i)))
        assert len(results) == spec.size() == len(seen)
        for result in results:
            assert result.failure is None
            assert result.extra["sim_policy"] == "warmstart"
            assert result.extra["sim_full_passes"] == 0

    def test_expand_puts_the_block_on_every_request(self):
        spec = load_scenario(SPEC_PATH)
        assert [r.dynamics for r in expand(spec)] == \
            [spec.dynamics] * spec.size()
        static = dataclasses.replace(spec, dynamics=None)
        (result,) = run_scenario(static)
        assert not any(key.startswith("sim_") for key in result.extra)

    def test_process_backend_matches_serial(self):
        spec = load_scenario(SPEC_PATH)
        spec = dataclasses.replace(spec, algorithms=(
            *spec.algorithms, {"name": "daghetpart"}))
        serial = _records(run_scenario(spec, backend="serial"))
        process = _records(run_scenario(spec, parallel=2,
                                        backend="process"))
        assert len(serial) == 2
        assert all("sim_event_log" in r["extra"] for r in process)
        _assert_clean(serial, process)


def _record(**extra):
    return {"workflow": "blast-30", "n_tasks": 30, "cluster": "small-18",
            "bandwidth": 1.0, "algorithm": "cpack", "tags": {},
            "makespan": 1200.0, "failure": None, "extra": extra}


class TestDiffRobustness:
    BASE = dict(sim_policy="warmstart", sim_task_migrations=4,
                sim_degradation_pct=12.5, sim_react_total_s=0.01)

    def test_identical_runs_are_clean(self):
        diff = diff_results([_record(**self.BASE)], [_record(**self.BASE)])
        assert diff.clean and diff.matched == 1

    def test_latency_keys_ignored(self):
        other = dict(self.BASE, sim_react_total_s=9.99)
        assert diff_results([_record(**self.BASE)],
                            [_record(**other)]).clean

    def test_metric_drift_is_flagged(self):
        other = dict(self.BASE, sim_task_migrations=7,
                     sim_degradation_pct=19.0)
        diff = diff_results([_record(**self.BASE)], [_record(**other)])
        assert not diff.clean
        keys = {key for _, key, _, _ in diff.robustness_deltas}
        assert keys == {"sim_task_migrations", "sim_degradation_pct"}
        assert "robustness deltas" in format_diff(diff)

    def test_float_tolerance(self):
        other = dict(self.BASE, sim_degradation_pct=12.5 * (1 + 1e-12))
        assert diff_results([_record(**self.BASE)],
                            [_record(**other)]).clean


class TestCli:
    def test_simulate_smoke(self, tmp_path, capsys):
        out = tmp_path / "sim.jsonl"
        events = tmp_path / "events.json"
        rc = main(["simulate", SPEC_PATH, "--json", str(out),
                   "--events-json", str(events)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "full passes: 0" in text
        records = load_result_lines(str(out))
        assert len(records) == 1
        assert records[0]["extra"]["sim_policy"] == "warmstart"
        dumped = json.loads(events.read_text())
        assert dumped[0]["events"] == \
            records[0]["extra"]["sim_event_log"]

    def test_simulate_diff_round_trip(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        assert main(["simulate", SPEC_PATH, "--json", str(a)]) == 0
        assert main(["simulate", SPEC_PATH, "--json", str(b)]) == 0
        capsys.readouterr()
        assert main(["scenario", "diff", str(a), str(b)]) == 0
        assert "runs agree" in capsys.readouterr().out

    def test_scenario_run_matches_simulate(self, tmp_path, capsys):
        run = tmp_path / "run.jsonl"
        sim = tmp_path / "sim.jsonl"
        assert main(["scenario", "run", SPEC_PATH, "--json", str(run)]) == 0
        assert main(["simulate", SPEC_PATH, "--json", str(sim)]) == 0
        capsys.readouterr()
        assert main(["scenario", "diff", str(run), str(sim)]) == 0
        assert "runs agree" in capsys.readouterr().out
        (record,) = load_result_lines(str(run))
        assert record["makespan"] == \
            record["extra"]["sim_realized_makespan"]

    def test_simulate_rejects_static_spec(self, tmp_path, capsys):
        spec = load_scenario(SPEC_PATH)
        static = dataclasses.replace(spec, dynamics=None)
        path = tmp_path / "static.json"
        path.write_text(json.dumps(static.to_dict()))
        assert main(["simulate", str(path)]) == 2
        assert "dynamics" in capsys.readouterr().err.lower()
