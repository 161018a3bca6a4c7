"""Tests of the declarative scenario API: spec → request grid → results."""

import dataclasses
import json

import pytest

import repro.api.batch as batch_module
from repro.api import (
    AlgorithmSpec,
    ExecutionPolicy,
    ExecutionSpec,
    FamilyGridSource,
    FileWorkflowSource,
    PlatformAxis,
    RealWorkflowSource,
    ScenarioSpec,
    expand,
    load_scenario,
    run_scenario,
    save_scenario,
)
from repro.core.heuristic import DagHetPartConfig

FAST_CONFIG = {"k_prime_values": [1, 4, 12]}


def tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="tiny",
        workflows=(FamilyGridSource(families=("blast", "bwa"),
                                    sizes={"small": (24,)}),),
        platforms=(PlatformAxis(preset="default", bandwidths=(1.0,)),),
        algorithms=(AlgorithmSpec("daghetmem"),
                    AlgorithmSpec("daghetpart", config=FAST_CONFIG)),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecConstruction:
    def test_sizes_sequence_becomes_custom_category(self):
        src = FamilyGridSource(families=("blast",), sizes=(24, 32))
        assert src.sizes == {"custom": (24, 32)}

    def test_generator_seed_becomes_its_corpus_int(self):
        import numpy as np
        from repro.experiments.instances import seed_base
        src = FamilyGridSource(families=("blast",), sizes=(24,),
                               seed=np.random.default_rng(1))
        assert src.seed == seed_base(np.random.default_rng(1))
        spec = tiny_spec(workflows=(src,))
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        rebuilt = FamilyGridSource(families=("blast",), sizes=(24,), seed=src.seed)
        works = [[inst.workflow.work(u) for u in inst.workflow.tasks()]
                 for source in (src, rebuilt) for inst in source.instances()]
        assert works[0] == works[1]

    @pytest.mark.parametrize("seed", [1.5, "3", None, True, object()])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(TypeError, match="FamilyGridSource seed must be an int"):
            FamilyGridSource(families=("blast",), seed=seed)

    def test_numpy_int_seed_stored_as_int(self):
        import numpy as np
        src = FamilyGridSource(families=("blast",), seed=np.int64(7))
        assert type(src.seed) is int and src.seed == 7
        assert json.loads(tiny_spec(workflows=(src,)).to_json())

    def test_config_dataclass_normalised_to_dict(self):
        alg = AlgorithmSpec("daghetpart",
                            config=DagHetPartConfig(k_prime_values=(1, 4)))
        assert isinstance(alg.config, dict)
        assert alg.config["k_prime_values"] == [1, 4]
        rebuilt = alg.build_config()
        assert rebuilt == DagHetPartConfig(k_prime_values=(1, 4))

    def test_config_on_configless_algorithm_rejected(self):
        alg = AlgorithmSpec("daghetmem", config={"x": 1})
        with pytest.raises(ValueError, match="takes no config"):
            alg.build_config()

    def test_unknown_source_kind_rejected(self):
        from repro.api.scenario import source_from_dict
        with pytest.raises(ValueError, match="unknown workflow source kind"):
            source_from_dict({"kind": "nope"})

    @pytest.mark.parametrize("field, value, expected", [
        ("execution", ExecutionPolicy(), "ExecutionSpec"),
        ("dynamics", ExecutionPolicy(), "DynamicsSpec"),
        ("platforms", (ExecutionPolicy(),), "PlatformAxis"),
        ("algorithms", (PlatformAxis(),), "AlgorithmSpec"),
        ("workflows", (PlatformAxis(),), "FamilyGridSource"),
    ])
    def test_wrong_record_class_rejected_when_built(self, field, value,
                                                    expected):
        with pytest.raises(ValueError, match=f"expected {expected}"):
            tiny_spec(**{field: value})

    def test_wrong_nested_record_class_rejected(self):
        from repro.sim.events import DynamicsSpec
        with pytest.raises(ValueError, match="expected ExecutionPolicy"):
            ExecutionSpec(policy=PlatformAxis())
        with pytest.raises(ValueError, match="expected PoissonArrivals"):
            DynamicsSpec(models=(PlatformAxis(),))

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="workflow source"):
            ScenarioSpec(name="x", workflows=())
        with pytest.raises(ValueError, match="platform"):
            tiny_spec(platforms=())
        with pytest.raises(ValueError, match="algorithm"):
            tiny_spec(algorithms=())


class TestJsonRoundTrip:
    def test_round_trip_identity(self):
        spec = tiny_spec(
            workflows=(RealWorkflowSource(names=("airrflow",)),
                       FamilyGridSource(families=("blast",), sizes=(24,)),
                       ),
            platforms=(PlatformAxis(preset="small", bandwidths=(0.5, 2.0),
                                    memory_factors=(1.0, 4.0)),),
            tags={"series": "{family}@{bandwidth}", "constant": 7},
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "spec.json")
        spec = tiny_spec()
        save_scenario(spec, path)
        assert load_scenario(path) == spec
        # the file is plain, editable JSON
        with open(path) as fh:
            data = json.load(fh)
        assert data["name"] == "tiny"
        assert data["workflows"][0]["kind"] == "families"


class TestExpand:
    def test_grid_size_and_order(self):
        spec = tiny_spec(platforms=(PlatformAxis(bandwidths=(0.5, 1.0)),))
        requests = list(expand(spec))
        assert len(requests) == spec.size() == 2 * 2 * 2
        # instance-major, bandwidth middle, algorithm minor
        assert [r.tags["family"] for r in requests] == \
            ["blast"] * 4 + ["bwa"] * 4
        assert [r.cluster.bandwidth for r in requests] == [0.5, 0.5, 1.0, 1.0] * 2
        assert [r.algorithm for r in requests] == ["daghetmem", "daghetpart"] * 4

    def test_expansion_is_lazy(self, monkeypatch):
        import repro.generators.families as families_module
        generated = []
        real = families_module.generate_workflow
        monkeypatch.setattr(
            families_module, "generate_workflow",
            lambda *a, **kw: generated.append(a) or real(*a, **kw))
        big = tiny_spec(workflows=(FamilyGridSource(sizes={"small": (24,)}),))
        assert big.size() == 7 * 2  # every family, two algorithms
        # pulling the first request must generate exactly one workflow,
        # not the whole grid
        first = next(iter(expand(big)))
        assert first.workflow.n_tasks > 0
        assert len(generated) == 1

    def test_tag_templates(self):
        spec = tiny_spec(tags={"series": "{family}@{preset}", "run": 3})
        req = next(iter(expand(spec)))
        assert req.tags["series"] == "blast@default"
        assert req.tags["run"] == 3
        assert req.tags["instance"] == "blast-24"

    def test_algorithm_template_matches_result_display_name(self):
        spec = tiny_spec(tags={"algo": "{algorithm}"})
        results = list(run_scenario(spec))
        for r in results:  # the tag joins cleanly against result.algorithm
            assert r.tags["algo"] == r.algorithm

    def test_unknown_template_field_is_a_clear_error(self):
        spec = tiny_spec(tags={"oops": "{frobnicate}"})
        with pytest.raises(KeyError, match="frobnicate"):
            next(iter(expand(spec)))

    def test_memory_factor_axis_scales_cluster(self):
        spec = tiny_spec(platforms=(PlatformAxis(memory_factors=(1.0, 4.0)),),
                         scale_memory=False)
        requests = list(expand(spec))
        base, scaled = requests[0].cluster, requests[2].cluster
        assert scaled.max_memory() == pytest.approx(4 * base.max_memory())

    def test_replications_shift_seeds_and_names(self):
        spec = tiny_spec(workflows=(FamilyGridSource(
            families=("blast",), sizes={"small": (24,)}, replications=2),))
        names = [r.tags["instance"] for r in expand(spec)
                 if r.algorithm == "daghetmem"]
        assert names == ["blast-24", "blast-24#r1"]

    def test_file_source(self, tmp_path):
        from repro.generators.families import generate_workflow
        from repro.workflow.io import save_workflow_json
        path = str(tmp_path / "wf.json")
        save_workflow_json(generate_workflow("blast", 24, seed=3), path)
        spec = tiny_spec(workflows=(FileWorkflowSource(path=path),))
        requests = list(expand(spec))
        assert len(requests) == 2
        assert requests[0].tags["category"] == "file"
        assert requests[0].workflow.n_tasks >= 20

    def test_unknown_algorithm_fails_eagerly(self):
        spec = tiny_spec(algorithms=(AlgorithmSpec("nope"),))
        with pytest.raises(ValueError, match="unknown algorithm"):
            next(iter(expand(spec)))


class TestFig5Equivalence:
    """Acceptance: one JSON spec reproduces the fig5 family-sweep records."""

    KWARGS = dict(sizes={"small": (24,), "mid": (40,)},
                  families=("blast", "soykb"),
                  config=DagHetPartConfig(k_prime_values=(1, 4, 12)), seed=0)

    def _strip(self, record):
        return dataclasses.replace(record, runtime=0.0)

    def test_json_spec_reproduces_fig5_records(self, tmp_path):
        from repro.experiments import figures
        from repro.experiments.runner import scenario_records

        driver_records = figures.fig5(**self.KWARGS)["records"]

        spec = figures.corpus_scenario(
            "fig5", preset="default", include_real=False, **self.KWARGS)
        path = str(tmp_path / "fig5.json")
        save_scenario(spec, path)  # the whole workload as one JSON file
        spec_records = scenario_records(load_scenario(path))

        assert [self._strip(r) for r in spec_records] == \
            [self._strip(r) for r in driver_records]

    def test_second_cached_run_does_zero_solves(self, tmp_path, monkeypatch):
        from repro.experiments import figures
        from repro.experiments.runner import scenario_records

        spec = figures.corpus_scenario(
            "fig5", preset="default", include_real=False, **self.KWARGS)
        cache_dir = str(tmp_path / "cache")
        first = scenario_records(spec, cache=cache_dir)

        calls = []
        real_solve = batch_module.solve
        monkeypatch.setattr(batch_module, "solve",
                            lambda req: calls.append(req) or real_solve(req))
        second = scenario_records(spec, cache=cache_dir)
        assert calls == []  # served entirely from the on-disk cache
        assert [self._strip(r) for r in first] == \
            [self._strip(r) for r in second]
        # runtimes come back exactly as cached, so even they agree
        assert [r.runtime for r in first] == [r.runtime for r in second]


class TestRunScenario:
    def test_streaming_matches_collect(self):
        """run_scenario streams exactly the list solve_batch collects
        over the expanded requests."""
        from repro.api import solve_batch
        spec = tiny_spec()
        streamed = list(run_scenario(spec))
        collected = solve_batch(expand(spec))
        strip = lambda r: {k: v for k, v in r.to_dict().items()
                           if k != "runtime"}
        assert [strip(r) for r in streamed] == [strip(r) for r in collected]

    def test_parallel_matches_serial(self):
        spec = tiny_spec()
        strip = lambda r: {k: v for k, v in r.to_dict().items()
                           if k != "runtime"}
        assert [strip(r) for r in run_scenario(spec, parallel=2)] == \
            [strip(r) for r in run_scenario(spec)]

    def test_crashed_sweep_resumes(self, tmp_path, monkeypatch):
        """A partial cache (crash artifact) only re-solves what is missing."""
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        # simulate a crash after two results
        it = run_scenario(spec, cache=cache_dir)
        partial = [next(it), next(it)]
        it.close()
        assert len(partial) == 2

        calls = []
        real_solve = batch_module.solve
        monkeypatch.setattr(batch_module, "solve",
                            lambda req: calls.append(req) or real_solve(req))
        full = list(run_scenario(spec, cache=cache_dir))
        assert len(full) == spec.size()
        assert len(calls) == spec.size() - 2  # the two cached ones skipped


class TestExecutionBlock:
    """The optional ``execution`` block: spec-level backend/policy/cache."""

    def _spec_with_execution(self, **kwargs):
        from repro.api import ExecutionSpec
        return tiny_spec(execution=ExecutionSpec(**kwargs))

    def test_round_trips_with_policy(self):
        from repro.api import ExecutionPolicy
        spec = self._spec_with_execution(
            backend="process", parallel=2, cache="sqlite://cache.db",
            policy=ExecutionPolicy(timeout_s=60.0, retries=1))
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert rebuilt.execution.policy.timeout_s == 60.0

    def test_absent_block_round_trips_as_none(self):
        spec = tiny_spec()
        data = json.loads(spec.to_json())
        assert data["execution"] is None
        assert ScenarioSpec.from_json(spec.to_json()).execution is None
        # pre-execution-block spec files (no key at all) still load
        del data["execution"]
        assert ScenarioSpec.from_dict(data) == spec

    def test_policy_from_plain_dict(self):
        from repro.api import ExecutionSpec
        spec = ExecutionSpec(policy={"timeout_s": 5.0, "retries": 2})
        assert spec.policy.timeout_s == 5.0 and spec.policy.retries == 2

    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            self._spec_with_execution(backend="quantum")

    def test_unknown_field_rejected(self):
        from repro.api.scenario import ExecutionSpec
        with pytest.raises(ValueError, match="unknown execution field"):
            ExecutionSpec.from_dict({"bakend": "serial"})

    def test_expand_attaches_policy_to_every_request(self):
        from repro.api import ExecutionPolicy
        policy = ExecutionPolicy(timeout_s=30.0)
        spec = self._spec_with_execution(policy=policy)
        requests = list(expand(spec))
        assert requests and all(r.policy == policy for r in requests)
        assert all(r.policy is None for r in expand(tiny_spec()))

    def test_run_scenario_uses_spec_backend_and_cache(self, tmp_path,
                                                      monkeypatch):
        from repro.api import ExecutionSpec
        import repro.api.exec.backends as backends_module
        created = []
        real = backends_module.create_backend
        monkeypatch.setattr(backends_module, "create_backend",
                            lambda name: created.append(name) or real(name))
        uri = f"sqlite://{tmp_path}/spec-cache.db"
        spec = tiny_spec(execution=ExecutionSpec(backend="process",
                                                 parallel=2, cache=uri))
        first = list(run_scenario(spec))
        assert created == ["process"]
        # the spec's cache URI was honoured: a re-run is fully served, so
        # even the measured runtimes come back exactly as cached (the
        # solves ran in pool processes, out of a patched solve's sight)
        second = list(run_scenario(spec))
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]

    def test_explicit_arguments_override_spec(self, monkeypatch):
        from repro.api import ExecutionSpec
        import repro.api.exec.backends as backends_module
        created = []
        real = backends_module.create_backend
        monkeypatch.setattr(backends_module, "create_backend",
                            lambda name: created.append(name) or real(name))
        spec = tiny_spec(execution=ExecutionSpec(backend="process"))
        list(run_scenario(spec, backend="serial"))
        assert created == ["serial"]


class TestPaperScenario:
    def test_constant_is_jsonable_and_counts(self):
        from repro.experiments.instances import PAPER_SCENARIO
        spec = ScenarioSpec.from_json(PAPER_SCENARIO.to_json())
        assert spec == PAPER_SCENARIO
        # 5 real + 7 families x 11 sizes instances, 10 platform points,
        # 2 algorithms
        instances = sum(src.count() for src in spec.workflows)
        assert instances == 5 + 7 * 11
        assert spec.size() == instances * 10 * 2

    def test_refinement_constant_is_jsonable_and_expandable(self):
        from repro.experiments.instances import REFINEMENT_SCENARIO
        spec = ScenarioSpec.from_json(REFINEMENT_SCENARIO.to_json())
        assert spec == REFINEMENT_SCENARIO
        instances = sum(src.count() for src in spec.workflows)
        assert spec.size() == instances * 3  # daghetpart, anneal, portfolio
        # the per-algorithm configs rebuild through the registry
        for alg in spec.algorithms:
            alg.build_config()


class TestCorpusGolden:
    """The evaluation corpus is pinned: same names, groups and workflows."""

    #: sha256 over (name, family, category, n_tasks_requested, workflow
    #: fingerprint) of every default-size instance for seeds 0 and 7
    DIGEST = "6ea146f84a38164b4361e977d21832693b3a4cff193fc3b5279e7cb38fca1967"

    @staticmethod
    def _digest(instances):
        import hashlib
        from repro.ingest import workflow_fingerprint
        h = hashlib.sha256()
        for inst in instances:
            row = (inst.name, inst.family, inst.category,
                   inst.n_tasks_requested, workflow_fingerprint(inst.workflow))
            h.update(json.dumps(row).encode())
        return h.hexdigest()

    def test_corpus_digest_is_pinned(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        instances = [inst for seed in (0, 7)
                     for source in (RealWorkflowSource(seed=seed),
                                    FamilyGridSource(seed=seed))
                     for inst in source.instances()]
        assert len(instances) == 2 * (5 + 7 * 11)
        assert self._digest(instances) == self.DIGEST
