"""Tests of the simulated-annealing refiner and its registered scheduler."""

import dataclasses
import math

import pytest

from repro.api import AnnealConfig, ScheduleRequest, solve
from repro.core.anneal import AnnealStats, anneal_refine
from repro.core.evaluator import MakespanEvaluator
from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.memdag.requirement import RequirementCache
from repro.platform.presets import default_cluster
from repro.workflow.graph import Workflow


def _seeded_state(wf, cluster):
    """The state the registered scheduler refines: best sweep mapping."""
    cache = RequirementCache(wf)
    outcome = dag_het_part_sweep(wf, cluster, cache=cache)
    q = outcome.mapping.to_quotient()
    return q, cache, outcome.mapping.makespan()


class TestAnnealConfig:
    def test_defaults_valid(self):
        AnnealConfig()

    @pytest.mark.parametrize("kwargs", [
        {"iterations": -1},
        {"restarts": 0},
        {"t0": 0.0},
        {"t0_fraction": 0.0},
        {"t_final_fraction": 0.0},
        {"t_final_fraction": 1.5},
        {"schedule": "quadratic"},
        {"move_fraction": -0.1},
        {"move_fraction": 1.1},
        {"time_budget": 0.0},
        {"k_prime_strategy": "dubling"},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AnnealConfig(**kwargs)


class TestAnnealRefine:
    def test_never_worse_than_seed_and_deterministic(self):
        wf = generate_workflow("genome", 90, seed=4)
        cluster = scaled_cluster_for(wf, default_cluster())
        config = AnnealConfig(seed=5, iterations=600, restarts=2)

        finals = []
        for _ in range(2):
            q, cache, seed_mu = _seeded_state(wf, cluster)
            stats = anneal_refine(q, cluster, cache, config=config)
            assert stats.initial_makespan == seed_mu
            assert stats.final_makespan <= seed_mu
            finals.append((stats.final_makespan, stats.trials,
                           stats.accepted, stats.improved))
        assert finals[0] == finals[1]  # bit-for-bit reproducible

    def test_different_seeds_may_differ_but_all_bounded_by_seed(self):
        wf = generate_workflow("blast", 80, seed=2)
        cluster = scaled_cluster_for(wf, default_cluster())
        for seed in (0, 1, 2):
            q, cache, seed_mu = _seeded_state(wf, cluster)
            stats = anneal_refine(q, cluster, cache,
                                  config=AnnealConfig(seed=seed, iterations=300))
            assert stats.final_makespan <= seed_mu

    def test_zero_full_recomputes_during_refinement(self):
        wf = generate_workflow("soykb", 70, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        q, cache, _ = _seeded_state(wf, cluster)
        evaluator = MakespanEvaluator(q, cluster)  # one init pass
        anneal_refine(q, cluster, cache,
                      config=AnnealConfig(seed=0, iterations=500),
                      evaluator=evaluator)
        assert evaluator.full_recomputes == 1  # only the constructor's
        assert evaluator.delta_syncs > 0

    def test_refined_state_is_the_reported_best(self):
        wf = generate_workflow("genome", 60, seed=9)
        cluster = scaled_cluster_for(wf, default_cluster())
        q, cache, _ = _seeded_state(wf, cluster)
        stats = anneal_refine(q, cluster, cache,
                              config=AnnealConfig(seed=3, iterations=400))
        # the quotient left behind realizes exactly the reported makespan
        evaluator = MakespanEvaluator(q, cluster)
        assert evaluator.makespan() == stats.final_makespan

    def test_zero_iterations_is_identity(self):
        wf = generate_workflow("blast", 40, seed=0)
        cluster = scaled_cluster_for(wf, default_cluster())
        q, cache, seed_mu = _seeded_state(wf, cluster)
        before = {bid: blk.proc for bid, blk in q.blocks.items()}
        stats = anneal_refine(q, cluster, cache,
                              config=AnnealConfig(iterations=0))
        assert stats.final_makespan == seed_mu
        assert stats.trials == stats.accepted == 0
        assert {bid: blk.proc for bid, blk in q.blocks.items()} == before

    def test_stats_accounting(self):
        wf = generate_workflow("bwa", 60, seed=6)
        cluster = scaled_cluster_for(wf, default_cluster())
        q, cache, _ = _seeded_state(wf, cluster)
        stats = anneal_refine(q, cluster, cache,
                              config=AnnealConfig(seed=1, iterations=300,
                                                  restarts=3))
        assert isinstance(stats, AnnealStats)
        assert stats.restarts == 3
        assert stats.accepted <= stats.trials
        assert stats.moves_applied + stats.swaps_applied == stats.accepted


class TestAnnealScheduler:
    def test_solve_reports_seed_and_never_worse(self):
        wf = generate_workflow("genome", 80, seed=3)
        cluster = scaled_cluster_for(wf, default_cluster())
        result = solve(ScheduleRequest(
            workflow=wf, cluster=cluster, algorithm="anneal",
            config=AnnealConfig(seed=2, iterations=400), validate=True))
        assert result.success
        assert result.algorithm == "Anneal"
        seed_mu = result.extra["anneal_seed_makespan"]
        assert result.makespan <= seed_mu
        assert result.k_prime is not None and result.sweep
        result.mapping.validate()

    def test_same_seed_same_result_across_solves(self):
        wf = generate_workflow("blast", 60, seed=7)
        cluster = scaled_cluster_for(wf, default_cluster())
        request = ScheduleRequest(workflow=wf, cluster=cluster,
                                  algorithm="anneal",
                                  config=AnnealConfig(seed=4, iterations=300))
        a, b = solve(request), solve(request)
        assert a.makespan == b.makespan
        assert a.tags == b.tags

    def test_wrong_config_type_raises(self):
        wf = generate_workflow("blast", 24, seed=0)
        with pytest.raises(TypeError):
            solve(ScheduleRequest(workflow=wf, cluster=default_cluster(),
                                  algorithm="anneal",
                                  config=DagHetPartConfig()))

    def test_empty_workflow(self):
        result = solve(ScheduleRequest(workflow=Workflow("empty"),
                                       cluster=default_cluster(),
                                       algorithm="anneal"))
        assert result.success
        assert result.makespan == 0.0
        assert result.n_blocks == 0

    def test_infeasible_platform_surfaces_seed_failure(self):
        # the seed sweep fails -> the annealer has nothing to refine and
        # the failure flows through the envelope unchanged
        from repro.platform.cluster import Cluster
        from repro.platform.processor import Processor
        wf = generate_workflow("blast", 24, seed=1)
        tiny = Cluster([Processor("p0", 1.0, 0.001)])
        result = solve(ScheduleRequest(workflow=wf, cluster=tiny,
                                       algorithm="anneal"))
        assert not result.success
        assert result.failure.kind == "NoFeasibleMappingError"
        assert math.isinf(result.makespan)

    def test_config_fingerprint_fields_serializable(self):
        # the scenario/cache layers rely on asdict() round-tripping
        config = AnnealConfig(seed=3, iterations=10)
        fields = dataclasses.asdict(config)
        assert AnnealConfig(**fields) == config
