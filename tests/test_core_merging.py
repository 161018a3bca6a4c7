"""Tests of Step 3 (MergeUnassignedToAssigned / FindMSOptMerge)."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import MakespanEvaluator
from repro.core.makespan import makespan
from repro.core.merging import (
    FALLBACK_POOL_SIZE,
    _by_memory_slack,
    _execute_merge,
    _merge_closes_cycle,
    _on_cycle,
    find_ms_opt_merge,
    merge_unassigned_to_assigned,
)
from repro.core.quotient import QuotientGraph
from repro.memdag.requirement import RequirementCache
from repro.platform.bandwidth import GroupedBandwidth, LinkBandwidth
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.workflow.graph import Workflow


def _chain_quotient(n_blocks=4, assigned_mask=None, memory=100.0):
    """Chain workflow split into singleton blocks, some assigned."""
    wf = Workflow()
    for i in range(n_blocks):
        wf.add_task(i, work=float(i + 1), memory=1.0)
        if i:
            wf.add_edge(i - 1, i, 1.0)
    procs = [Processor(f"p{i}", 1.0, memory) for i in range(n_blocks)]
    cluster = Cluster(procs)
    mask = assigned_mask or [True] * n_blocks
    q = QuotientGraph.from_partition(
        wf, [{i} for i in range(n_blocks)],
        [procs[i] if mask[i] else None for i in range(n_blocks)])
    return wf, cluster, q


class TestFindMsOptMerge:
    def test_finds_feasible_neighbor(self):
        wf, cluster, q = _chain_quotient(3, [True, False, True])
        cache = RequirementCache(wf)
        nu = q.block_of(1)
        partner, third = find_ms_opt_merge(q, nu, q.assigned_ids(), cluster, cache)
        assert partner in {q.block_of(0), q.block_of(2)}
        assert third is None
        # graph unchanged
        assert len(q) == 3
        assert q.blocks[nu].proc is None

    def test_respects_memory(self):
        # a fans out to c1, c2: merging a with either child retains the
        # other child's input file, pushing the union peak over memory
        wf = Workflow()
        wf.add_task("a", work=1.0, memory=1.0)
        wf.add_task("c1", work=1.0, memory=3.0)
        wf.add_task("c2", work=1.0, memory=3.0)
        wf.add_edge("a", "c1", 4.0)
        wf.add_edge("a", "c2", 4.0)
        p0, p1 = Processor("p0", 1.0, 10.0), Processor("p1", 1.0, 10.0)
        cluster = Cluster([p0, p1])
        q = QuotientGraph.from_partition(
            wf, [{"a"}, {"c1"}, {"c2"}], [None, p0, p1])
        cache = RequirementCache(wf)
        # singletons fit (r(a)=9, r(c)=7) but any union peaks at 11 > 10
        nu = q.block_of("a")
        partner, third = find_ms_opt_merge(q, nu, q.assigned_ids(), cluster, cache)
        assert partner is None

    def test_candidate_restriction(self):
        wf, cluster, q = _chain_quotient(3, [True, False, True])
        cache = RequirementCache(wf)
        nu = q.block_of(1)
        only_right = {q.block_of(2)}
        partner, _ = find_ms_opt_merge(q, nu, only_right, cluster, cache)
        assert partner == q.block_of(2)

    def test_two_cycle_repaired_by_third_merge(self):
        """Merging x into z closes the 2-cycle x -> y -> z; y is absorbed."""
        # y is unassigned, so z is x's only candidate partner, and only
        # the three-block merge is acyclic; t gives the search a choice
        # it must reject (x + t closes the longer cycle x -> z -> t)
        wf = Workflow()
        for u in "xyzt":
            wf.add_task(u, work=1.0, memory=1.0)
        for u, v in [("x", "y"), ("y", "z"), ("x", "z"), ("z", "t"),
                     ("x", "t")]:
            wf.add_edge(u, v, 1.0)
        pz, pt = Processor("pz", 2.0, 1e9), Processor("pt", 1.0, 1e9)
        cluster = Cluster([pz, pt])
        for use_evaluator in (False, True):
            q = QuotientGraph.from_partition(
                wf, [{"x"}, {"y"}, {"z"}, {"t"}], [None, None, pz, pt])
            cache = RequirementCache(wf)
            ev = MakespanEvaluator(q, cluster) if use_evaluator else None
            nu = q.block_of("x")
            partner, third = find_ms_opt_merge(
                q, nu, q.assigned_ids(), cluster, cache, evaluator=ev)
            assert partner == q.block_of("z")
            assert third is not None and third == q.block_of("y")
            assert len(q) == 4  # the search itself merges nothing for good
            merged = _execute_merge(q, nu, partner, third)
            assert q.blocks[merged].tasks == {"x", "y", "z"}
            assert q.blocks[merged].proc is pz
            assert q.is_acyclic()
            assert not q.unassigned_ids()

    def test_picks_makespan_minimizing_partner(self):
        # diamond: s -> {x, y} -> t ; x on slow proc, y on fast proc
        wf = Workflow()
        wf.add_task("s", work=1, memory=1)
        wf.add_task("x", work=10, memory=1)
        wf.add_task("y", work=10, memory=1)
        wf.add_task("t", work=1, memory=1)
        wf.add_edge("s", "x", 1)
        wf.add_edge("s", "y", 1)
        wf.add_edge("x", "t", 1)
        wf.add_edge("y", "t", 1)
        slow = Processor("slow", 1.0, 1e9)
        fast = Processor("fast", 10.0, 1e9)
        other = Processor("o", 5.0, 1e9)
        cluster = Cluster([slow, fast, other])
        q = QuotientGraph.from_partition(
            wf, [{"s"}, {"x"}, {"y"}, {"t"}], [None, slow, fast, other])
        cache = RequirementCache(wf)
        nu = q.block_of("s")
        partner, _ = find_ms_opt_merge(q, nu, q.assigned_ids(), cluster, cache)
        # merging s into the fast block is better than the slow one
        assert partner == q.block_of("y")


class TestMemorySlackPool:
    def test_ranked_by_slack_then_block_id_and_capped(self):
        wf = Workflow()
        for i in range(30):
            wf.add_task(i, work=1.0, memory=float(i % 4))
        procs = [Processor(f"p{j}", 1.0, 10.0 + j % 3) for j in range(5)]
        q = QuotientGraph.from_partition(
            wf, [{i} for i in range(30)],
            [procs[(i * 7) % 5] for i in range(30)])
        cache = RequirementCache(wf)
        slack = {bid: blk.proc.memory - cache.peak(blk.tasks)
                 for bid, blk in q.blocks.items()}
        assigned = set(q.blocks)
        assert len(set(slack.values())) < len(slack)  # ties occur
        ranked = sorted(assigned, key=lambda bid: (-slack[bid], bid))
        assert _by_memory_slack(q, assigned, cache) == \
            ranked[:FALLBACK_POOL_SIZE]
        few = set(ranked[-5:])
        assert _by_memory_slack(q, few, cache) == ranked[-5:]


class TestMergeUnassignedToAssigned:
    def test_no_unassigned_is_trivial_success(self):
        wf, cluster, q = _chain_quotient(3)
        cache = RequirementCache(wf)
        assert merge_unassigned_to_assigned(q, cluster, cache)

    def test_all_become_assigned(self):
        wf, cluster, q = _chain_quotient(5, [True, False, False, True, False])
        cache = RequirementCache(wf)
        assert merge_unassigned_to_assigned(q, cluster, cache)
        assert not q.unassigned_ids()
        assert q.is_acyclic()

    def test_deep_unassigned_cluster_is_absorbed(self):
        """A frontier must propagate through many unassigned fragments."""
        wf, cluster, q = _chain_quotient(8, [True] + [False] * 7)
        cache = RequirementCache(wf)
        assert merge_unassigned_to_assigned(q, cluster, cache)
        assert not q.unassigned_ids()

    @staticmethod
    def _fan_instance(extra_procs=()):
        """a (r=10) fans to s1, s2 on 7-memory processors; a is unassigned.

        Merging a anywhere peaks at 10 > 7, so only a free processor of
        at least 10 memory can save the mapping.
        """
        wf = Workflow()
        wf.add_task("a", work=1.0, memory=2.0)
        wf.add_task("s1", work=1.0, memory=2.0)
        wf.add_task("s2", work=1.0, memory=2.0)
        wf.add_edge("a", "s1", 4.0)
        wf.add_edge("a", "s2", 4.0)
        p0, p1 = Processor("p0", 1.0, 7.0), Processor("p1", 1.0, 7.0)
        procs = [p0, p1, *extra_procs]
        cluster = Cluster(procs)
        q = QuotientGraph.from_partition(
            wf, [{"a"}, {"s1"}, {"s2"}], [None, p0, p1])
        return wf, cluster, q

    def test_memory_infeasible_returns_false(self):
        wf, cluster, q = self._fan_instance()
        cache = RequirementCache(wf)
        assert not merge_unassigned_to_assigned(q, cluster, cache)

    def test_free_processor_fallback(self):
        """A fragment with no feasible merge gets its own free processor."""
        wf, cluster, q = self._fan_instance(
            extra_procs=[Processor("spare", 1.0, 12.0)])
        cache = RequirementCache(wf)
        assert merge_unassigned_to_assigned(q, cluster, cache)
        assert q.blocks[q.block_of("a")].proc.name == "spare"

    def test_result_respects_memory_everywhere(self):
        from repro.core.assignment import biggest_assign
        from repro.experiments.instances import scaled_cluster_for
        from repro.generators.families import generate_workflow
        from repro.partition.api import acyclic_partition
        from repro.platform.presets import default_cluster
        wf = generate_workflow("genome", 120, seed=9)
        cluster = scaled_cluster_for(wf, default_cluster())
        cache = RequirementCache(wf)
        partition = acyclic_partition(wf, 16)
        state = biggest_assign(wf, cluster, partition, cache=cache)
        q = QuotientGraph.from_partition(
            wf, [state.blocks[b] for b in state.blocks],
            [state.assigned.get(b) for b in state.blocks])
        if merge_unassigned_to_assigned(q, cluster, cache):
            for blk in q.blocks.values():
                assert blk.proc is not None
                assert cache.peak(blk.tasks) <= blk.proc.memory + 1e-9
            assert q.is_acyclic()


@st.composite
def acyclic_quotient_and_pair(draw):
    """A random DAG cut into topological runs (an acyclic quotient) and
    two of its vertices to merge."""
    n = draw(st.integers(min_value=3, max_value=12))
    wf = Workflow("random")
    for u in range(n):
        wf.add_task(u)
    for v in range(n):
        for u in range(v):
            if draw(st.integers(0, 2)) == 0:
                wf.add_edge(u, v, 1.0)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2)))
    bounds = [0, *cuts, n]
    q = QuotientGraph.from_partition(
        wf, [set(range(a, b)) for a, b in zip(bounds, bounds[1:])])
    a, b = draw(st.lists(st.sampled_from(sorted(q.blocks)), min_size=2,
                         max_size=2, unique=True))
    return q, a, b


class TestCycleCheck:
    @settings(max_examples=300, deadline=None)
    @given(case=acyclic_quotient_and_pair())
    def test_local_check_matches_whole_graph_search(self, case):
        """Merging two vertices of an acyclic quotient closes a cycle iff
        the merged vertex lies on one (also after absorbing the third
        vertex of a 2-cycle), and iff a child of either, other than the
        two, reaches one of them before merging."""
        q, a, b = case
        closes = _merge_closes_cycle(q, a, b)
        merged, _ = q.merge(a, b)
        cycle = q.find_cycle()
        assert closes is (cycle is not None)
        assert _on_cycle(q, merged) is (cycle is not None)
        if cycle is not None and len(cycle) == 2:
            other = cycle[0] if cycle[0] != merged else cycle[1]
            merged2, _ = q.merge(merged, other)
            assert _on_cycle(q, merged2) is (q.find_cycle() is not None)


def _graph_state(q):
    """Everything a later step can read off ``q``, dict order included."""
    def adjacency(table):
        return [(v, [(x, c.hex()) for x, c in adj.items()])
                for v, adj in table.items()]
    return ([(bid, sorted(map(repr, blk.tasks)), blk.work.hex(),
              None if blk.proc is None else blk.proc.name)
             for bid, blk in q.blocks.items()],
            adjacency(q.succ), adjacency(q.pred),
            sorted(q._task_block.items(), key=repr))


_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0])


@st.composite
def merge_search_case(draw):
    """A random acyclic quotient in Step 3's situation: some blocks on
    processors of tight memory, the rest unassigned, and one of three
    interconnects; works and edge costs may be zero."""
    n = draw(st.integers(min_value=4, max_value=14))
    wf = Workflow("search")
    for u in range(n):
        wf.add_task(u, work=draw(_WEIGHTS),
                    memory=draw(st.sampled_from([0.0, 1.0, 2.0, 4.0])))
    for v in range(n):
        for u in range(v):
            if draw(st.integers(0, 2)) == 0:
                wf.add_edge(u, v, draw(_WEIGHTS))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2)))
    bounds = [0, *cuts, n]
    partition = [set(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    procs = [Processor(f"p{j}", speed=draw(st.sampled_from([0.5, 1.0, 3.0])),
                       memory=draw(st.sampled_from([3.0, 8.0, 16.0, 1e9])))
             for j in range(len(partition))]
    assigned = draw(st.lists(st.booleans(), min_size=len(partition),
                             max_size=len(partition)))
    assigned[draw(st.integers(0, len(partition) - 1))] = False
    kind = draw(st.sampled_from(["uniform", "links", "grouped"]))
    names = [p.name for p in procs]
    model = {
        "uniform": None,
        "links": LinkBandwidth(
            {(names[i], names[j]): 0.25 + (i * 7 + j) % 5
             for i in range(len(names)) for j in range(i + 1, len(names))
             if (i + j) % 3 == 0}, default_beta=0.75),
        "grouped": GroupedBandwidth(
            {name: f"site{i % 2}" for i, name in enumerate(names)}, 4.0, 0.5),
    }[kind]
    cluster = Cluster(procs, bandwidth=draw(st.sampled_from([0.5, 2.0])),
                      bandwidth_model=model)
    block_procs = [p if on else None for p, on in zip(procs, assigned)]
    # per unassigned block: None (quotient neighbours) or a partner pool
    pools = draw(st.lists(st.one_of(st.none(), st.permutations(
        [i for i, on in enumerate(assigned) if on])),
        min_size=len(partition), max_size=len(partition)))
    return wf, partition, block_procs, cluster, pools


class TestEvaluatorPricing:
    """The evaluator path of the merge search, held to the recompute path."""

    @settings(max_examples=200, deadline=None)
    @given(case=merge_search_case())
    def test_search_matches_recompute_path(self, case):
        """Same choice and the same graph, dict order and next id included,
        over every search a Step 3 pass makes."""
        wf, partition, block_procs, cluster, pools = case
        q_ref = QuotientGraph.from_partition(wf, partition, block_procs)
        q_ev = QuotientGraph.from_partition(wf, partition, block_procs)
        ev = MakespanEvaluator(q_ev, cluster)
        cache_ref, cache_ev = RequirementCache(wf), RequirementCache(wf)
        for nu in sorted(q_ref.unassigned_ids()):
            if nu not in q_ref.blocks:
                continue  # absorbed as a third vertex
            assigned = q_ref.assigned_ids()
            found = find_ms_opt_merge(q_ref, nu, assigned, cluster,
                                      cache_ref, pool=pools[nu])
            assert find_ms_opt_merge(
                q_ev, nu, assigned, cluster, cache_ev, pool=pools[nu],
                evaluator=ev) == found
            assert _graph_state(q_ev) == _graph_state(q_ref)
            if found[0] is not None:
                _execute_merge(q_ref, nu, *found)
                _execute_merge(q_ev, nu, *found)
        assert next(q_ev._ids) == next(q_ref._ids)
        assert ev.makespan() == makespan(q_ref, cluster)

    @settings(max_examples=200, deadline=None)
    @given(case=merge_search_case(), data=st.data())
    def test_eval_merge_is_bit_equal(self, case, data):
        """eval_merge == merge + set_proc + makespan(), for every acyclic
        pair and a processor of either kind (or none)."""
        wf, partition, block_procs, cluster, _ = case
        q = QuotientGraph.from_partition(wf, partition, block_procs)
        ev = MakespanEvaluator(q, cluster)
        for a in list(q.blocks):
            for b in list(q.blocks):
                if a >= b or _merge_closes_cycle(q, a, b):
                    continue
                proc = data.draw(st.sampled_from([None, *cluster]))
                priced = ev.eval_merge(a, b, proc)
                merged, token = q.merge(a, b)
                q.set_proc(merged, proc)
                assert priced.hex() == ev.makespan().hex()
                assert priced.hex() == makespan(q, cluster).hex()
                q.set_proc(merged, None)
                q.unmerge(token)


class TestStep3Counts:
    """What Step 3 does in one sweep, counted rather than timed."""

    def test_genome_200_doubling_sweep(self, monkeypatch, in_process_sweep):
        from repro.api import ScheduleRequest, solve
        from repro.generators.families import generate_workflow
        from repro.platform.presets import default_cluster

        merging = importlib.import_module("repro.core.merging")
        counts = {"merge": 0, "priced": 0}
        searching = [False]
        search, merge = merging.find_ms_opt_merge, QuotientGraph.merge
        priced_full, priced_overlay = (MakespanEvaluator.makespan,
                                       MakespanEvaluator.eval_merge)

        def counting_search(*args, **kwargs):
            searching[0] = True
            try:
                return search(*args, **kwargs)
            finally:
                searching[0] = False

        def counting_merge(self, a, b):
            counts["merge"] += 1
            return merge(self, a, b)

        def counting_makespan(self):
            counts["priced"] += searching[0]
            return priced_full(self)

        def counting_eval_merge(self, a, b, proc):
            counts["priced"] += 1
            return priced_overlay(self, a, b, proc)

        monkeypatch.setattr(merging, "find_ms_opt_merge", counting_search)
        monkeypatch.setattr(QuotientGraph, "merge", counting_merge)
        monkeypatch.setattr(MakespanEvaluator, "makespan", counting_makespan)
        monkeypatch.setattr(MakespanEvaluator, "eval_merge",
                            counting_eval_merge)
        result = solve(ScheduleRequest(
            workflow=generate_workflow("genome", 200, seed=1),
            cluster=default_cluster(), algorithm="daghetpart",
            scale_memory=True))
        assert result.success
        assert [p.k_prime for p in result.sweep] == [1, 2, 4, 8, 16, 32, 36]
        # merging every candidate to price it took 578 merges and priced
        # 268 candidates; pricing only real choices, and those without
        # merging unless a cycle needs repair, leaves the executed merges
        # and the cycle repairs
        assert (578, 268) != (counts["merge"], counts["priced"])
        assert counts == {"merge": 330, "priced": 126}
