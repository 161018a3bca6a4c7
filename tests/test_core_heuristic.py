"""Tests of the DagHetPart orchestrator (Section 4.2) and the schedule API."""

import pytest

from repro.core.baseline import dag_het_mem
from repro.core.heuristic import (
    DagHetPartConfig,
    _k_prime_candidates,
    dag_het_part_sweep,
)
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import WORKFLOW_FAMILIES, generate_workflow
from repro.platform.cluster import Cluster
from repro.platform.presets import default_cluster
from repro.platform.processor import Processor
from repro.utils.errors import NoFeasibleMappingError
from repro.workflow.graph import Workflow


class TestKPrimeCandidates:
    def test_all_strategy(self):
        cfg = DagHetPartConfig(k_prime_strategy="all")
        assert _k_prime_candidates(5, cfg) == [1, 2, 3, 4, 5]

    def test_doubling_strategy(self):
        cfg = DagHetPartConfig(k_prime_strategy="doubling")
        assert _k_prime_candidates(36, cfg) == [1, 2, 4, 8, 16, 32, 36]

    def test_doubling_includes_k_once(self):
        cfg = DagHetPartConfig(k_prime_strategy="doubling")
        assert _k_prime_candidates(4, cfg) == [1, 2, 4]

    def test_auto_switches_on_size(self):
        auto = DagHetPartConfig(k_prime_strategy="auto")
        assert _k_prime_candidates(8, auto) == list(range(1, 9))
        assert len(_k_prime_candidates(36, auto)) < 36

    def test_explicit_values_clamped(self):
        cfg = DagHetPartConfig(k_prime_values=(2, 4, 99))
        assert _k_prime_candidates(8, cfg) == [2, 4]

    def test_invalid_values(self):
        cfg = DagHetPartConfig(k_prime_values=(99,))
        with pytest.raises(ValueError):
            _k_prime_candidates(8, cfg)

    def test_unknown_strategy(self):
        # refused where the config is built, not in the sweep
        with pytest.raises(ValueError, match="unknown k' strategy 'mystery'"):
            DagHetPartConfig(k_prime_strategy="mystery")

    @pytest.mark.parametrize("strategy", ["all", "doubling", "auto"])
    def test_k_equals_one(self, strategy):
        cfg = DagHetPartConfig(k_prime_strategy=strategy)
        assert _k_prime_candidates(1, cfg) == [1]

    def test_explicit_values_partially_out_of_range(self):
        # below 1 and above k are dropped; survivors are sorted, deduped
        cfg = DagHetPartConfig(k_prime_values=(0, -3, 5, 5, 3, 12, 99))
        assert _k_prime_candidates(8, cfg) == [3, 5]

    def test_explicit_values_override_strategy(self):
        cfg = DagHetPartConfig(k_prime_strategy="all", k_prime_values=(7,))
        assert _k_prime_candidates(8, cfg) == [7]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 36, 60, 64])
    def test_doubling_always_ends_exactly_at_k(self, k):
        cfg = DagHetPartConfig(k_prime_strategy="doubling")
        values = _k_prime_candidates(k, cfg)
        assert values[0] == 1
        assert values[-1] == k
        assert values == sorted(set(values))  # strictly increasing, no dupes
        # every element but the last is a power of two below k
        for v in values[:-1]:
            assert v < k and (v & (v - 1)) == 0


class TestEndToEnd:
    @pytest.mark.parametrize("family", WORKFLOW_FAMILIES)
    def test_valid_mapping_per_family(self, family):
        wf = generate_workflow(family, 60, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        mapping = dag_het_part_sweep(
            wf, cluster, DagHetPartConfig(k_prime_strategy="doubling")).mapping
        mapping.validate()
        assert mapping.algorithm == "DagHetPart"

    def test_beats_or_matches_baseline_usually(self):
        """Aggregate improvement is the paper's headline claim."""
        import math
        ratios = []
        for family in ("blast", "bwa", "seismology", "genome", "soykb"):
            wf = generate_workflow(family, 120, seed=5)
            cluster = scaled_cluster_for(wf, default_cluster())
            base = dag_het_mem(wf, cluster)
            part = dag_het_part_sweep(
                wf, cluster, DagHetPartConfig(k_prime_strategy="doubling")).mapping
            ratios.append(part.makespan() / base.makespan())
        geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        assert geomean < 0.8  # must clearly exploit heterogeneity

    def test_single_processor_cluster(self):
        wf = generate_workflow("blast", 30, seed=0)
        proc = Processor("only", 4.0, 1e9)
        mapping = dag_het_part_sweep(wf, Cluster([proc])).mapping
        mapping.validate()
        assert mapping.n_blocks == 1
        assert mapping.makespan() == pytest.approx(wf.total_work() / 4.0)

    def test_empty_workflow(self, unit_cluster):
        mapping = dag_het_part_sweep(Workflow("empty"), unit_cluster).mapping
        assert mapping.n_blocks == 0

    def test_infeasible_platform_raises(self):
        wf = Workflow()
        wf.add_task("huge", work=1.0, memory=1000.0)
        cluster = Cluster([Processor("small", 1.0, 10.0)])
        with pytest.raises(NoFeasibleMappingError):
            dag_het_part_sweep(wf, cluster)

    def test_deterministic(self):
        wf = generate_workflow("bwa", 50, seed=3)
        cluster = scaled_cluster_for(wf, default_cluster())
        cfg = DagHetPartConfig(k_prime_strategy="doubling")
        m1 = dag_het_part_sweep(wf, cluster, cfg).mapping
        m2 = dag_het_part_sweep(wf, cluster, cfg).mapping
        assert m1.makespan() == pytest.approx(m2.makespan())

    def test_ablation_toggles_run(self):
        wf = generate_workflow("genome", 60, seed=2)
        cluster = scaled_cluster_for(wf, default_cluster())
        base_cfg = DagHetPartConfig(k_prime_strategy="doubling")
        no_step4 = DagHetPartConfig(k_prime_strategy="doubling",
                                    enable_swaps=False, enable_idle_moves=False)
        full = dag_het_part_sweep(wf, cluster, base_cfg).mapping
        reduced = dag_het_part_sweep(wf, cluster, no_step4).mapping
        full.validate()
        reduced.validate()
        # Step 4 never hurts: the full pipeline is at least as good
        assert full.makespan() <= reduced.makespan() + 1e-9


class TestScheduleApi:
    """Scheduling by name goes through ``repro.api.solve``."""

    @staticmethod
    def _solve(wf, cluster, algorithm, config=None):
        from repro.api import ScheduleRequest, solve
        return solve(ScheduleRequest(workflow=wf, cluster=cluster,
                                     algorithm=algorithm, config=config))

    def test_schedule_daghetpart(self):
        wf = generate_workflow("blast", 40, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        result = self._solve(wf, cluster, "daghetpart",
                             DagHetPartConfig(k_prime_strategy="doubling"))
        assert result.mapping.algorithm == "DagHetPart"

    def test_schedule_daghetmem_aliases(self):
        wf = generate_workflow("blast", 40, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        for name in ("daghetmem", "DagHetMem", "dag-het-mem", "dag_het_mem"):
            result = self._solve(wf, cluster, name)
            assert result.mapping.algorithm == "DagHetMem"

    def test_unknown_algorithm(self, unit_cluster):
        wf = generate_workflow("blast", 10, seed=0)
        with pytest.raises(ValueError, match="unknown algorithm"):
            self._solve(wf, unit_cluster, "hexagonal")


class TestSweepOutcome:
    def test_sweep_reports_winning_k_prime(self):
        wf = generate_workflow("blast", 40, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        config = DagHetPartConfig(k_prime_values=(1, 4, 12))
        outcome = dag_het_part_sweep(wf, cluster, config=config)
        assert outcome.k_prime in (1, 4, 12)
        assert [p.k_prime for p in outcome.sweep] == [1, 4, 12]
        # the winner realizes the best "ok" makespan of the trace
        ok = {p.k_prime: p.makespan for p in outcome.sweep if p.status == "ok"}
        assert outcome.k_prime in ok
        assert ok[outcome.k_prime] == min(ok.values())

    def test_sweep_matches_plain_dag_het_part(self):
        wf = generate_workflow("bwa", 30, seed=2)
        cluster = scaled_cluster_for(wf, default_cluster())
        from repro.core.heuristic import dag_het_part_sweep
        config = DagHetPartConfig(k_prime_strategy="doubling")
        outcome = dag_het_part_sweep(wf, cluster, config=config)
        mapping = dag_het_part_sweep(wf, cluster, config=config).mapping
        assert outcome.mapping.makespan() == pytest.approx(mapping.makespan())

    def test_empty_workflow_has_no_sweep(self):
        from repro.core.heuristic import dag_het_part_sweep
        outcome = dag_het_part_sweep(Workflow("empty"), default_cluster())
        assert outcome.k_prime is None and outcome.sweep == ()
        assert outcome.mapping.n_blocks == 0

    def test_failure_carries_sweep_trace(self):
        from repro.core.heuristic import dag_het_part_sweep
        wf = generate_workflow("blast", 24, seed=0)
        tiny = Cluster([Processor("p", 1.0, 0.001)])
        with pytest.raises(NoFeasibleMappingError) as exc:
            dag_het_part_sweep(wf, tiny)
        assert len(exc.value.sweep) >= 1
        assert all(p.status in ("infeasible", "error")
                   for p in exc.value.sweep)
