"""Scenario-level simulator plumbing: fingerprints, caching, diff, CLI.

The contract under test: ``simulate_request`` returns an ordinary
:class:`ScheduleResult` (realized makespan + flat ``sim_*`` extras +
the resolved event log), caches under :func:`dynamic_fingerprint` (so a
re-run is a pure hit that still carries the log), and the scenario
differ treats the simulator metrics as part of the outcome — flagging
degradation/migration deltas while ignoring wall-clock latencies.
"""

import json

import pytest

from repro.api.cache import open_cache, request_fingerprint
from repro.api.diff import diff_results, format_diff
from repro.api.envelopes import ScheduleRequest
from repro.api.scenario import ScenarioSpec, load_scenario
from repro.cli import main
from repro.generators.families import generate_workflow
from repro.platform.presets import cluster_by_name
from repro.sim.events import DynamicsSpec, ProcessorChurn, TraceArrivals
from repro.sim.runner import (
    dynamic_fingerprint,
    run_dynamic_scenario,
    simulate_request,
)

SPEC_PATH = "examples/specs/dynamics_smoke.json"


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


class TestFingerprint:
    def test_layers_on_the_static_fingerprint(self, request_, dynamics):
        fp = dynamic_fingerprint(request_, dynamics)
        assert fp != request_fingerprint(request_)
        assert fp == dynamic_fingerprint(request_, dynamics)

    def test_distinct_per_policy_and_seed(self, request_, dynamics):
        import dataclasses
        fps = {dynamic_fingerprint(request_, d) for d in (
            dynamics,
            dataclasses.replace(dynamics, policy="resolve"),
            dataclasses.replace(dynamics, policy="static"),
            dataclasses.replace(dynamics, seed=99))}
        assert len(fps) == 4


class TestSimulateRequest:
    def test_envelope_shape(self, request_, dynamics):
        result = simulate_request(request_, dynamics)
        assert result.failure is None
        assert result.mapping is None        # want_mapping=False drops it
        assert result.extra["sim_policy"] == "warmstart"
        assert result.makespan == result.extra["sim_realized_makespan"]
        assert result.makespan >= result.extra["sim_plan_makespan"]
        log = result.extra["sim_event_log"]
        assert len(log) == result.extra["sim_events"] == 2
        # the log is JSON-serializable as-is (the determinism artifact)
        json.dumps(log)

    def test_policy_override(self, request_, dynamics):
        result = simulate_request(request_, dynamics, policy="static")
        assert result.extra["sim_policy"] == "static"

    def test_cache_round_trip(self, request_, dynamics, tmp_path):
        with open_cache(str(tmp_path / "cache")) as cache:
            first = simulate_request(request_, dynamics, cache=cache)
            again = simulate_request(request_, dynamics, cache=cache)
            assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        assert again.makespan == first.makespan
        # the hit still carries the metrics and the event log
        assert again.extra["sim_event_log"] == first.extra["sim_event_log"]

    def test_policies_cache_separately(self, request_, dynamics, tmp_path):
        with open_cache(str(tmp_path / "cache")) as cache:
            a = simulate_request(request_, dynamics, cache=cache,
                                 policy="warmstart")
            b = simulate_request(request_, dynamics, cache=cache,
                                 policy="resolve")
            assert cache.stats()["entries"] == 2
        assert a.extra["sim_policy"] != b.extra["sim_policy"]


class TestRunDynamicScenario:
    def test_streams_the_smoke_spec(self):
        spec = load_scenario(SPEC_PATH)
        seen = []
        results = list(run_dynamic_scenario(
            spec, progress=lambda i, req, res: seen.append(i)))
        assert len(results) == spec.size() == len(seen)
        for result in results:
            assert result.failure is None
            assert result.extra["sim_policy"] == "warmstart"
            assert result.extra["sim_full_passes"] == 0

    def test_rejects_static_spec(self):
        spec = load_scenario(SPEC_PATH)
        import dataclasses
        static = dataclasses.replace(spec, dynamics=None)
        with pytest.raises(ValueError, match="no dynamics block"):
            list(run_dynamic_scenario(static))


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
        records = [json.loads(line) for line in
                   out.read_text().splitlines() if line.strip()]
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

    def test_simulate_rejects_static_spec(self, tmp_path, capsys):
        spec = load_scenario(SPEC_PATH)
        import dataclasses
        static = dataclasses.replace(spec, dynamics=None)
        path = tmp_path / "static.json"
        path.write_text(json.dumps(static.to_dict()))
        assert main(["simulate", str(path)]) == 2
        assert "dynamics" in capsys.readouterr().err.lower()
