"""The incremental makespan engine must be indistinguishable from the
full recompute — bit-for-bit, under every mutation pattern the merge and
swap searches produce."""

import random

import pytest

from repro.core.evaluator import MakespanEvaluator
from repro.core.makespan import bottom_weights, critical_path, makespan
from repro.core.quotient import QuotientGraph
from repro.generators.families import generate_workflow
from repro.partition.api import acyclic_partition
from repro.platform.bandwidth import GroupedBandwidth, LinkBandwidth
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.utils.errors import CyclicWorkflowError
from repro.workflow.graph import Workflow


def _quotient(family="genome", n=60, seed=3, k=8, procs=None):
    wf = generate_workflow(family, n, seed=seed)
    partition = acyclic_partition(wf, k)
    q = QuotientGraph.from_partition(wf, partition, procs)
    return q


def _procs(k, seed=0):
    rng = random.Random(seed)
    return [Processor(f"p{i}", speed=rng.choice([1.0, 2.0, 4.0, 8.0]),
                      memory=1e9) for i in range(k)]


def _clusters(k):
    procs = _procs(k)
    names = [p.name for p in procs]
    yield Cluster(procs, bandwidth=0.5, name="uniform")
    links = {(names[i], names[j]): 0.25 + ((i * 7 + j) % 5)
             for i in range(k) for j in range(i + 1, k) if (i + j) % 3 == 0}
    yield Cluster(procs, bandwidth_model=LinkBandwidth(links, default_beta=0.75),
                  name="links")
    groups = {name: f"site{i % 2}" for i, name in enumerate(names)}
    yield Cluster(procs, bandwidth_model=GroupedBandwidth(groups, 4.0, 0.5),
                  name="grouped")


def _assert_state_matches(ev, q, cluster):
    expected = bottom_weights(q, cluster)
    got = ev.bottom_weights()
    assert got == expected  # bit-for-bit, including the key sets
    if expected:
        assert ev.makespan() == max(expected.values())
        assert ev.critical_path() == critical_path(q, cluster)


class TestDeltaEquivalence:
    @pytest.mark.parametrize("cluster", list(_clusters(8)),
                             ids=lambda c: c.name)
    def test_random_processor_churn(self, cluster):
        q = _quotient(k=8)
        procs = cluster.processors
        rng = random.Random(42)
        ids = q.node_ids()
        for bid in ids:
            q.blocks[bid].proc = rng.choice(procs)
        ev = MakespanEvaluator(q, cluster)
        _assert_state_matches(ev, q, cluster)
        for step in range(200):
            bid = rng.choice(ids)
            q.set_proc(bid, rng.choice(procs + [None]))
            if step % 7 == 0:  # query sometimes after a batch, sometimes each op
                _assert_state_matches(ev, q, cluster)
        _assert_state_matches(ev, q, cluster)
        assert ev.full_recomputes == 1  # everything after init was a delta
        assert ev.delta_syncs > 0

    @pytest.mark.parametrize("cluster", list(_clusters(8)),
                             ids=lambda c: c.name)
    def test_random_swaps(self, cluster):
        q = _quotient(k=8, procs=cluster.processors)
        ev = MakespanEvaluator(q, cluster)
        rng = random.Random(7)
        ids = q.node_ids()
        for _ in range(100):
            a, b = rng.sample(ids, 2)
            before = bottom_weights(q, cluster)
            mu = ev.eval_swap(a, b)
            # tentative evaluation must leave the graph untouched
            assert bottom_weights(q, cluster) == before
            ev.apply_swap(a, b)
            _assert_state_matches(ev, q, cluster)
            assert mu == ev.makespan()
            ev.apply_swap(a, b)  # swap back
        assert ev.full_recomputes == 1

    @pytest.mark.parametrize("cluster", list(_clusters(8)),
                             ids=lambda c: c.name)
    def test_merge_unmerge_storms(self, cluster):
        """The Step-3 pattern: tentative merges, proc probes, rollbacks."""
        q = _quotient(k=8, procs=cluster.processors)
        ev = MakespanEvaluator(q, cluster)
        rng = random.Random(11)
        procs = cluster.processors
        for _ in range(60):
            ids = q.node_ids()
            if len(ids) > 2 and rng.random() < 0.7:
                nu = rng.choice(ids)
                nbrs = q.neighbors(nu)
                if not nbrs:
                    continue
                partner = rng.choice(nbrs)
                merged, token = q.merge(nu, partner)
                if q.find_cycle() is not None:
                    q.unmerge(token)
                    _assert_state_matches(ev, q, cluster)
                    continue
                q.set_proc(merged, rng.choice(procs))
                _assert_state_matches(ev, q, cluster)
                if rng.random() < 0.5:  # rollback half the time
                    q.set_proc(merged, None)
                    q.unmerge(token)
                    _assert_state_matches(ev, q, cluster)
            else:
                bid = rng.choice(ids)
                q.set_proc(bid, rng.choice(procs + [None]))
                _assert_state_matches(ev, q, cluster)
        assert ev.full_recomputes == 1

    def test_eval_move_is_tentative_and_exact(self):
        cluster = next(_clusters(6))
        q = _quotient(k=6, procs=cluster.processors[:6])
        ev = MakespanEvaluator(q, cluster)
        bid = q.node_ids()[0]
        target = cluster.processors[-1]
        old = q.blocks[bid].proc
        mu = ev.eval_move(bid, target)
        assert q.blocks[bid].proc is old
        q.set_proc(bid, target)
        assert makespan(q, cluster) == mu
        assert ev.makespan() == mu


class TestEvaluatorLifecycle:
    def test_oplog_overflow_forces_one_rebuild(self):
        cluster = next(_clusters(4))
        q = _quotient(n=40, k=4, procs=cluster.processors[:4])
        ev = MakespanEvaluator(q, cluster)
        bid = q.node_ids()[0]
        for i in range(QuotientGraph.OPLOG_CAP + 10):
            q.set_proc(bid, cluster.processors[i % 4])
        _assert_state_matches(ev, q, cluster)
        assert ev.full_recomputes == 2  # init + overflow recovery

    def test_invalidate_after_untracked_mutation(self):
        cluster = next(_clusters(4))
        q = _quotient(n=40, k=4, procs=cluster.processors[:4])
        ev = MakespanEvaluator(q, cluster)
        bid = q.node_ids()[0]
        q.blocks[bid].proc = cluster.processors[3]  # bypasses the op log
        ev.invalidate()
        _assert_state_matches(ev, q, cluster)

    def test_cyclic_quotient_raises_like_module_function(self, fig1_workflow):
        partition = [{1, 2, 3}, {4, 9}, {5}, {6, 7, 8}]
        q = QuotientGraph.from_partition(fig1_workflow, partition)
        cluster = Cluster([Processor("p", 1, 1)], name="c1")
        with pytest.raises(CyclicWorkflowError):
            MakespanEvaluator(q, cluster)

    def test_cycle_created_after_attach_raises_on_query(self):
        wf = Workflow("diamond")
        for u in "abcd":
            wf.add_task(u, work=1.0, memory=1.0)
        for u, v in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            wf.add_edge(u, v, 1.0)
        q = QuotientGraph.from_partition(wf, [{"a"}, {"b"}, {"c"}, {"d"}])
        cluster = Cluster([Processor("p", 1, 1e9)])
        ev = MakespanEvaluator(q, cluster)
        # merging source and sink closes a cycle through b and c
        q.merge(q.block_of("a"), q.block_of("d"))
        with pytest.raises(CyclicWorkflowError):
            ev.makespan()
        # after undoing the damage the evaluator recovers via rebuild
        # (the unmerge is gone from the log by then: drain + invalidate)

    def test_empty_quotient(self):
        q = QuotientGraph(Workflow("empty"))
        cluster = Cluster([Processor("p", 1, 1)])
        ev = MakespanEvaluator(q, cluster)
        assert ev.makespan() == 0.0
        assert ev.critical_path() == []

    def test_default_speed_matches_step3_estimates(self):
        cluster = next(_clusters(4))
        q = _quotient(n=40, k=4)  # all blocks unassigned
        ev = MakespanEvaluator(q, cluster, default_speed=2.0)
        assert ev.makespan() == makespan(q, cluster, default_speed=2.0)


class TestPipelineEquivalence:
    """dag_het_part with the evaluator == dag_het_part without, exactly."""

    @pytest.mark.parametrize("family", ["blast", "genome", "soykb"])
    def test_full_pipeline_identical(self, family):
        from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
        from repro.experiments.instances import scaled_cluster_for
        from repro.platform.presets import default_cluster
        wf = generate_workflow(family, 80, seed=5)
        cluster = scaled_cluster_for(wf, default_cluster())
        on = dag_het_part_sweep(wf, cluster, DagHetPartConfig(
            k_prime_strategy="doubling", use_evaluator=True)).mapping
        off = dag_het_part_sweep(wf, cluster, DagHetPartConfig(
            k_prime_strategy="doubling", use_evaluator=False)).mapping
        assert on.makespan() == off.makespan()
        assert on.n_blocks == off.n_blocks
