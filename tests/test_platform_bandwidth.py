"""Tests of heterogeneous interconnect bandwidths (future-work extension)."""

import pytest

from repro.core.makespan import bottom_weights, makespan
from repro.core.mapping import simulate_mapping
from repro.core.quotient import QuotientGraph
from repro.platform.bandwidth import (
    GroupedBandwidth,
    LinkBandwidth,
    UniformBandwidth,
)
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor


class TestModels:
    def test_uniform(self):
        m = UniformBandwidth(2.0)
        assert m.between("a", "b") == 2.0
        assert m.default == 2.0

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            UniformBandwidth(0.0)

    def test_link_matrix_symmetric(self):
        m = LinkBandwidth({("a", "b"): 10.0}, default_beta=1.0)
        assert m.between("a", "b") == 10.0
        assert m.between("b", "a") == 10.0
        assert m.between("a", "c") == 1.0

    def test_link_same_processor_free(self):
        m = LinkBandwidth({}, default_beta=1.0)
        assert m.between("a", "a") == float("inf")

    def test_link_invalid(self):
        with pytest.raises(ValueError):
            LinkBandwidth({("a", "b"): -1.0}, default_beta=1.0)
        with pytest.raises(ValueError):
            LinkBandwidth({}, default_beta=0.0)

    def test_link_self_pair_rejected(self):
        # a self-link entry would serialize as a 2-element row to_dict
        # cannot round-trip, and between() ignores it anyway (inf)
        with pytest.raises(ValueError):
            LinkBandwidth({("a", "a"): 2.0}, default_beta=1.0)

    @pytest.mark.parametrize("model", [
        UniformBandwidth(2.5),
        LinkBandwidth({("a", "b"): 10.0, ("b", "c"): 0.25}, default_beta=1.0),
        GroupedBandwidth({"a": "s1", "b": "s1", "c": "s2"}, 10.0, 0.5),
    ])
    def test_to_dict_roundtrip(self, model):
        from repro.platform.bandwidth import model_from_dict
        back = model_from_dict(model.to_dict())
        assert back.to_dict() == model.to_dict()
        for p, q in (("a", "b"), ("b", "a"), ("a", "c"), ("x", "y")):
            assert back.between(p, q) == model.between(p, q)
        assert back.default == model.default

    def test_model_from_dict_unknown_type(self):
        from repro.platform.bandwidth import model_from_dict
        with pytest.raises(ValueError):
            model_from_dict({"type": "warp"})

    def test_grouped(self):
        m = GroupedBandwidth({"a": "site1", "b": "site1", "c": "site2"},
                             intra_beta=10.0, inter_beta=0.5)
        assert m.between("a", "b") == 10.0
        assert m.between("a", "c") == 0.5
        assert m.default == 0.5  # conservative: inter-group
        assert m.group_of("a") == "site1"

    def test_grouped_unknown_processor_uses_inter(self):
        m = GroupedBandwidth({"a": "s"}, intra_beta=10.0, inter_beta=1.0)
        assert m.between("a", "mystery") == 1.0


class TestClusterIntegration:
    def test_default_is_uniform(self):
        cluster = Cluster([Processor("p", 1, 1)], bandwidth=3.0)
        assert isinstance(cluster.bandwidth_model, UniformBandwidth)
        assert cluster.link_bandwidth("p", "p") == 3.0

    def test_model_sets_scalar_default(self):
        model = GroupedBandwidth({"a": "x"}, intra_beta=8.0, inter_beta=2.0)
        cluster = Cluster([Processor("a", 1, 1)], bandwidth_model=model)
        assert cluster.bandwidth == 2.0

    def test_with_bandwidth_model(self):
        cluster = Cluster([Processor("a", 1, 1), Processor("b", 1, 1)])
        model = LinkBandwidth({("a", "b"): 5.0}, default_beta=1.0)
        c2 = cluster.with_bandwidth_model(model)
        assert c2.link_bandwidth(c2["a"], c2["b"]) == 5.0
        assert cluster.link_bandwidth(cluster["a"], cluster["b"]) == 1.0

    def test_undecided_endpoint_uses_default(self):
        model = LinkBandwidth({("a", "b"): 5.0}, default_beta=1.5)
        cluster = Cluster([Processor("a", 1, 1), Processor("b", 1, 1)],
                          bandwidth_model=model)
        assert cluster.link_bandwidth(None, cluster["b"]) == 1.5


class TestMakespanWithHeterogeneousLinks:
    def _quotient(self, procs, chain_workflow):
        return QuotientGraph.from_partition(
            chain_workflow, [{"a", "b"}, {"c", "d"}], procs)

    def test_fast_link_shrinks_makespan(self, chain_workflow):
        pa, pb = Processor("pa", 1, 1e9), Processor("pb", 1, 1e9)
        fast = Cluster([pa, pb], bandwidth_model=LinkBandwidth(
            {("pa", "pb"): 10.0}, default_beta=1.0))
        slow = Cluster([pa, pb], bandwidth=1.0)
        q_fast = self._quotient([pa, pb], chain_workflow)
        q_slow = self._quotient([pa, pb], chain_workflow)
        # edge (b, c) costs 1.0: transferred at 10 vs 1
        assert makespan(q_fast, fast) == pytest.approx(10.0 + 0.1)
        assert makespan(q_slow, slow) == pytest.approx(10.0 + 1.0)

    def test_grouped_sites_penalize_cross_site_cuts(self, chain_workflow):
        pa = Processor("pa", 1, 1e9)
        pb = Processor("pb", 1, 1e9)
        same_site = GroupedBandwidth({"pa": "s1", "pb": "s1"}, 10.0, 0.1)
        cross_site = GroupedBandwidth({"pa": "s1", "pb": "s2"}, 10.0, 0.1)
        cluster_same = Cluster([pa, pb], bandwidth_model=same_site)
        cluster_cross = Cluster([pa, pb], bandwidth_model=cross_site)
        q1 = self._quotient([pa, pb], chain_workflow)
        q2 = self._quotient([pa, pb], chain_workflow)
        assert makespan(q1, cluster_same) < makespan(q2, cluster_cross)

    def test_simulation_agrees_with_bottom_weights(self, fig1_workflow,
                                                   fig1_partition):
        procs = [Processor(f"p{i}", 1.0, 1e9) for i in range(4)]
        model = LinkBandwidth({("p0", "p1"): 4.0, ("p2", "p3"): 0.5},
                              default_beta=1.0)
        cluster = Cluster(procs, bandwidth_model=model)
        from repro.core.mapping import BlockAssignment, Mapping
        from repro.memdag.requirement import RequirementCache
        cache = RequirementCache(fig1_workflow)
        assignments = []
        for tasks, proc in zip(fig1_partition, procs):
            res = cache.requirement(tasks)
            assignments.append(BlockAssignment(frozenset(tasks), proc,
                                               res.peak, res.order))
        mapping = Mapping(fig1_workflow, cluster, assignments)
        assert simulate_mapping(mapping) == pytest.approx(mapping.makespan())

    def test_heuristic_end_to_end_with_sites(self):
        """DagHetPart runs unchanged on a grouped-bandwidth cluster."""
        from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
        from repro.experiments.instances import scaled_cluster_for
        from repro.generators.families import generate_workflow
        from repro.platform.presets import default_cluster
        wf = generate_workflow("bwa", 60, seed=3)
        base = scaled_cluster_for(wf, default_cluster())
        groups = {p.name: ("site-a" if i < len(base.processors) // 2 else "site-b")
                  for i, p in enumerate(base.processors)}
        cluster = base.with_bandwidth_model(
            GroupedBandwidth(groups, intra_beta=2.0, inter_beta=0.25))
        mapping = dag_het_part_sweep(
            wf, cluster, DagHetPartConfig(k_prime_strategy="doubling")).mapping
        mapping.validate()
        assert simulate_mapping(mapping) == pytest.approx(mapping.makespan())
