"""Tests of Step 4 (swaps and idle-processor moves)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import MakespanEvaluator
from repro.core.makespan import link_rule, makespan
from repro.core.quotient import QuotientGraph
from repro.core.swaps import (
    _feasible_pairs,
    _PathChain,
    improve_by_swaps,
    move_critical_to_idle,
)
from repro.memdag.requirement import RequirementCache
from repro.platform.bandwidth import GroupedBandwidth, LinkBandwidth
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.workflow.graph import Workflow


def _two_block_wf():
    """heavy -> light chain; swapping fast/slow processors matters."""
    wf = Workflow()
    wf.add_task("h1", work=50.0, memory=1.0)
    wf.add_task("h2", work=50.0, memory=1.0)
    wf.add_task("l1", work=1.0, memory=1.0)
    wf.add_edge("h1", "h2", 1.0)
    wf.add_edge("h2", "l1", 1.0)
    return wf


class TestSwaps:
    def test_swap_fixes_inverted_speeds(self):
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        fast = Processor("fast", 10.0, 100.0)
        cluster = Cluster([slow, fast])
        q = QuotientGraph.from_partition(
            wf, [{"h1", "h2"}, {"l1"}], [slow, fast])  # heavy on slow: bad
        cache = RequirementCache(wf)
        before = makespan(q, cluster)
        n = improve_by_swaps(q, cluster, cache)
        after = makespan(q, cluster)
        assert n == 1
        assert after < before
        assert q.blocks[q.block_of("h1")].proc.name == "fast"

    def test_swap_respects_memory(self):
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        fast = Processor("fast", 10.0, 1.5)  # too small for the heavy block
        cluster = Cluster([slow, fast])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [slow, fast])
        cache = RequirementCache(wf)
        assert improve_by_swaps(q, cluster, cache) == 0

    def test_no_improving_swap_is_noop(self):
        wf = _two_block_wf()
        fast = Processor("fast", 10.0, 100.0)
        slow = Processor("slow", 1.0, 100.0)
        cluster = Cluster([fast, slow])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [fast, slow])
        cache = RequirementCache(wf)
        before = makespan(q, cluster)
        assert improve_by_swaps(q, cluster, cache) == 0
        assert makespan(q, cluster) == before

    def test_swaps_monotonically_improve(self):
        from repro.generators.families import generate_workflow
        from repro.experiments.instances import scaled_cluster_for
        from repro.partition.api import acyclic_partition
        from repro.platform.presets import default_cluster
        from repro.core.assignment import biggest_assign
        wf = generate_workflow("bwa", 80, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        cache = RequirementCache(wf)
        partition = acyclic_partition(wf, 8)
        state = biggest_assign(wf, cluster, partition, cache=cache)
        q = QuotientGraph.from_partition(
            wf, [state.blocks[b] for b in state.blocks],
            [state.assigned.get(b) for b in state.blocks])
        from repro.core.merging import merge_unassigned_to_assigned
        assert merge_unassigned_to_assigned(q, cluster, cache)
        before = makespan(q, cluster)
        improve_by_swaps(q, cluster, cache)
        assert makespan(q, cluster) <= before + 1e-9


class TestFeasiblePairs:
    def test_nested_order_without_shared_or_unfitting_processors(self):
        wf = Workflow()
        for u in "abcde":
            wf.add_task(u, work=1.0, memory=1.0)
        big = Processor("big", 1.0, 10.0)
        small = Processor("small", 1.0, 4.0)
        other = Processor("other", 2.0, 10.0)
        q = QuotientGraph.from_partition(
            wf, [{u} for u in "abcde"], [big, small, other, big, small])
        a, b, c, d, e = ids = list(q.blocks)
        # a cannot move to small; d fills small exactly, which still fits
        requirement = dict(zip(ids, (5.0, 3.0, 2.0, 4.0, 1.0)))
        assert _feasible_pairs(ids, requirement, q.blocks) == [
            (a, c), (b, c), (b, d), (c, d), (c, e), (d, e)]
        assert _feasible_pairs(ids[::-1], requirement, q.blocks) == [
            (e, d), (e, c), (d, c), (d, b), (c, b), (c, a)]


class TestIdleMoves:
    def test_moves_critical_block_to_faster_idle(self):
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        slower = Processor("slower", 0.5, 100.0)
        fast_idle = Processor("fast", 10.0, 100.0)
        cluster = Cluster([slow, slower, fast_idle])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [slow, slower])
        cache = RequirementCache(wf)
        before = makespan(q, cluster)
        n = move_critical_to_idle(q, cluster, cache)
        assert n >= 1
        assert makespan(q, cluster) < before
        assert "fast" in q.used_processors()

    def test_no_idle_processors_is_noop(self):
        wf = _two_block_wf()
        p0 = Processor("p0", 1.0, 100.0)
        p1 = Processor("p1", 2.0, 100.0)
        cluster = Cluster([p0, p1])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [p0, p1])
        cache = RequirementCache(wf)
        assert move_critical_to_idle(q, cluster, cache) == 0

    def test_memory_blocks_idle_move(self):
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        other = Processor("o", 1.0, 100.0)
        fast_small = Processor("fast", 10.0, 1.0)  # cannot hold anything
        cluster = Cluster([slow, other, fast_small])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [slow, other])
        cache = RequirementCache(wf)
        assert move_critical_to_idle(q, cluster, cache) == 0

    def test_each_block_moved_at_most_once(self):
        """The paper moves each critical-path task once."""
        wf = _two_block_wf()
        s1 = Processor("s1", 1.0, 100.0)
        s2 = Processor("s2", 1.1, 100.0)
        f1 = Processor("f1", 5.0, 100.0)
        f2 = Processor("f2", 10.0, 100.0)
        cluster = Cluster([s1, s2, f1, f2])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [s1, s2])
        cache = RequirementCache(wf)
        moves = move_critical_to_idle(q, cluster, cache)
        # both blocks can move once each, at most
        assert moves <= 2

    def test_freed_processor_is_reused(self):
        """A processor vacated by a move must rejoin the idle pool.

        Chain h->m->l: h starts on a mid-speed processor and jumps to the
        fast idle one; the vacated mid processor must then be available
        for the slower critical block.
        """
        wf = Workflow()
        wf.add_task("h", work=100.0, memory=1.0)
        wf.add_task("m", work=100.0, memory=1.0)
        wf.add_task("l", work=1.0, memory=1.0)
        wf.add_edge("h", "m", 0.01)
        wf.add_edge("m", "l", 0.01)
        slow = Processor("slow", 1.0, 100.0)
        mid = Processor("mid", 2.0, 100.0)
        tiny = Processor("tiny", 1.5, 100.0)
        fast = Processor("fast", 10.0, 100.0)
        cluster = Cluster([slow, mid, tiny, fast])
        q = QuotientGraph.from_partition(
            wf, [{"h"}, {"m"}, {"l"}], [mid, slow, tiny])
        cache = RequirementCache(wf)
        moves = move_critical_to_idle(q, cluster, cache)
        used = q.used_processors()
        assert moves >= 2
        assert "fast" in used
        # "m" (was on slow, speed 1) picked up the vacated mid (speed 2)
        assert q.blocks[q.block_of("m")].proc.name == "mid"

    def test_idle_moves_with_evaluator_match_full_recompute(self):
        from repro.core.evaluator import MakespanEvaluator
        wf = _two_block_wf()
        slow = Processor("slow", 1.0, 100.0)
        slower = Processor("slower", 0.5, 100.0)
        fast_idle = Processor("fast", 10.0, 100.0)
        cluster = Cluster([slow, slower, fast_idle])

        def build():
            return QuotientGraph.from_partition(
                wf, [{"h1", "h2"}, {"l1"}], [slow, slower])

        cache = RequirementCache(wf)
        q1, q2 = build(), build()
        n1 = move_critical_to_idle(q1, cluster, cache)
        n2 = move_critical_to_idle(q2, cluster, cache,
                                   evaluator=MakespanEvaluator(q2, cluster))
        assert n1 == n2
        assert makespan(q1, cluster) == makespan(q2, cluster)
        assert {b.proc.name for b in q1.blocks.values()} == \
               {b.proc.name for b in q2.blocks.values()}


class TestSwapIdentity:
    def test_same_processor_object_is_skipped(self):
        """Two blocks on the *same* processor are never swap partners."""
        wf = _two_block_wf()
        p = Processor("p", 1.0, 100.0)
        cluster = Cluster([p])
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [p, p])
        cache = RequirementCache(wf)
        assert improve_by_swaps(q, cluster, cache) == 0

    def test_distinct_objects_with_equal_names_still_swap(self):
        """Identity, not name equality, decides whether a swap is a no-op.

        Blocks can carry processor objects from different cluster
        generations (e.g. before/after memory rescaling) whose names
        collide; an improving swap between them must not be skipped.
        """
        wf = _two_block_wf()
        slow = Processor("p", 1.0, 100.0)
        fast = Processor("p", 10.0, 100.0)  # same name, different machine
        cluster = Cluster([Processor("q0", 1.0, 100.0)])  # only for beta
        q = QuotientGraph.from_partition(wf, [{"h1", "h2"}, {"l1"}], [slow, fast])
        cache = RequirementCache(wf)
        before = makespan(q, cluster)
        assert improve_by_swaps(q, cluster, cache) == 1
        assert makespan(q, cluster) < before
        assert q.blocks[q.block_of("h1")].proc is fast

    def test_requirement_cache_tolerates_new_block_ids(self):
        """Requirements are (re)computed lazily per round, so ids created
        after the first call (merges between searches) are priced too."""
        wf = Workflow()
        for name in "abcd":
            wf.add_task(name, work=10.0 if name in "ab" else 1.0, memory=1.0)
        wf.add_edge("a", "b", 1.0)
        wf.add_edge("b", "c", 1.0)
        wf.add_edge("c", "d", 1.0)
        slow = Processor("slow", 1.0, 100.0)
        fast = Processor("fast", 10.0, 100.0)
        p3 = Processor("p3", 1.0, 100.0)
        cluster = Cluster([slow, fast, p3])
        q = QuotientGraph.from_partition(
            wf, [{"a"}, {"b"}, {"c"}, {"d"}], [slow, None, fast, p3])
        cache = RequirementCache(wf)
        merged, _ = q.merge(q.block_of("a"), q.block_of("b"))
        q.set_proc(merged, slow)  # heavy merged block on the slow proc
        assert improve_by_swaps(q, cluster, cache) >= 1
        assert q.blocks[q.block_of("a")].proc.name == "fast"


# ----------------------------------------------------------------------
# the critical-path prune: exact, never a different descent
# ----------------------------------------------------------------------
#: zero work and zero-cost edges included; sums of these round
WEIGHTS = (0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 1.0, 2.5, 7.0)
#: repeated speeds make makespan ties between different swaps
SPEEDS = (1.0, 1.0, 2.0, 3.0)


def _brute_force_swaps(q, cluster, cache, max_rounds=1000):
    """Algorithm 5 with no prune: price every feasible pair each round by
    a full recompute, apply the first strictly best one."""
    applied = 0
    current = makespan(q, cluster)
    for _ in range(max_rounds):
        ids = [bid for bid, blk in q.blocks.items() if blk.proc is not None]
        req = {bid: cache.peak(q.blocks[bid].tasks) for bid in ids}
        best_mu, best_pair = current, None
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pa, pb = q.blocks[a].proc, q.blocks[b].proc
                if pa is pb or req[a] > pb.memory or req[b] > pa.memory:
                    continue
                q.set_proc(a, pb)
                q.set_proc(b, pa)
                mu = makespan(q, cluster)
                q.set_proc(a, pa)
                q.set_proc(b, pb)
                if mu < best_mu - 1e-12:
                    best_mu, best_pair = mu, (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        pa, pb = q.blocks[a].proc, q.blocks[b].proc
        q.set_proc(a, pb)
        q.set_proc(b, pa)
        current = best_mu
        applied += 1
    return applied


@st.composite
def swap_instances(draw):
    """A random DAG cut into blocks, on a cluster with ties and links."""
    n = draw(st.integers(min_value=2, max_value=10))
    wf = Workflow("random")
    for u in range(n):
        wf.add_task(u, work=draw(st.sampled_from(WEIGHTS)),
                    memory=draw(st.sampled_from((0.0, 1.0, 2.0))))
    for v in range(n):
        for u in range(v):
            if draw(st.integers(0, 2)) == 0:
                wf.add_edge(u, v, draw(st.sampled_from(WEIGHTS)))
    # runs of the topological order 0..n-1 keep the quotient acyclic
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    bounds = [0, *cuts, n]
    partition = [set(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    k = len(partition) + draw(st.integers(0, 1))
    procs = [Processor(f"p{i}", speed=draw(st.sampled_from(SPEEDS)),
                       memory=draw(st.sampled_from((6.0, 12.0, 1e9))))
             for i in range(k)]
    if draw(st.booleans()):
        cluster = Cluster(procs, bandwidth=draw(st.sampled_from((0.5, 1.0))))
    else:
        links = {(procs[i].name, procs[j].name):
                 draw(st.sampled_from((0.25, 1.0, 4.0)))
                 for i in range(k) for j in range(i + 1, k)
                 if draw(st.booleans())}
        cluster = Cluster(procs, bandwidth_model=LinkBandwidth(
            links, default_beta=draw(st.sampled_from((0.75, 2.0)))))
    assigned = draw(st.permutations(procs))[:len(partition)]
    return wf, partition, assigned, cluster


class TestPrune:
    @pytest.mark.parametrize("use_evaluator", [False, True],
                             ids=["full-recompute", "evaluator"])
    @settings(max_examples=150, deadline=None)
    @given(inst=swap_instances())
    def test_prune_matches_brute_force(self, use_evaluator, inst):
        wf, partition, assigned, cluster = inst
        q = QuotientGraph.from_partition(wf, partition, assigned)
        ref = QuotientGraph.from_partition(wf, partition, assigned)
        ev = MakespanEvaluator(q, cluster) if use_evaluator else None
        applied = improve_by_swaps(q, cluster, RequirementCache(wf),
                                   evaluator=ev)
        expected = _brute_force_swaps(ref, cluster, RequirementCache(wf))
        assert applied == expected
        assert {b: blk.proc.name for b, blk in q.blocks.items()} == \
               {b: blk.proc.name for b, blk in ref.blocks.items()}
        # bit-equal, not approximately equal
        assert makespan(q, cluster) == makespan(ref, cluster)
        if ev is not None:
            assert ev.makespan() == makespan(ref, cluster)

    @pytest.mark.parametrize("bandwidth", ["uniform", "links", "grouped"])
    def test_swapped_chain_bounds_every_feasible_swap(self, bandwidth):
        from repro.generators.families import generate_workflow
        from repro.partition.api import acyclic_partition
        wf = generate_workflow("genome", 80, seed=3)
        speeds = (1.0, 2.0, 2.0, 4.0, 1.0, 8.0, 3.0, 1.5, 2.0)
        procs = [Processor(f"p{i}", speed=s, memory=1e9)
                 for i, s in enumerate(speeds)]
        names = [p.name for p in procs]
        model = {
            "uniform": None,
            "links": LinkBandwidth(
                {(names[i], names[j]): 0.25 + (i * 7 + j) % 5
                 for i in range(9) for j in range(i + 1, 9)
                 if (i + j) % 3 == 0}, default_beta=0.75),
            "grouped": GroupedBandwidth(
                {name: f"site{i % 2}" for i, name in enumerate(names)},
                4.0, 0.5),
        }[bandwidth]
        cluster = Cluster(procs, bandwidth=0.5, bandwidth_model=model)
        partition = acyclic_partition(wf, 8)
        q = QuotientGraph.from_partition(wf, partition, procs[:len(partition)])
        ev = MakespanEvaluator(q, cluster)
        cache = RequirementCache(wf)
        chain = _PathChain(q, ev.critical_path(), link_rule(cluster),
                           ev.default_speed)
        # along the critical path the chain is the makespan itself
        assert chain.suffix[0] == ev.makespan()
        ids = list(q.blocks)
        requirement = {b: cache.peak(q.blocks[b].tasks) for b in ids}
        pairs = _feasible_pairs(ids, requirement, q.blocks)
        assert len(pairs) == len(ids) * (len(ids) - 1) // 2
        on_path = 0
        for a, b in pairs:
            bound = chain.swapped(a, b)
            assert bound <= ev.eval_swap(a, b)
            on_path += a in chain.pos or b in chain.pos
        assert on_path > 0

    def test_blast_1000_prices_a_tenth_of_the_swaps(self, monkeypatch):
        """Before the prune this solve priced 10,933 swaps (both kernels)."""
        from repro.api import ScheduleRequest, solve
        from repro.generators.families import generate_workflow
        from repro.platform.presets import default_cluster
        unpruned_evals = 10_933
        calls = []
        real = MakespanEvaluator.eval_swap

        def counting(self, a, b):
            calls.append((a, b))
            return real(self, a, b)

        monkeypatch.setattr(MakespanEvaluator, "eval_swap", counting)
        result = solve(ScheduleRequest(
            workflow=generate_workflow("blast", 1000, seed=0),
            cluster=default_cluster(), algorithm="daghetpart",
            scale_memory=True))
        assert result.success
        assert 0 < len(calls) <= unpruned_evals // 10
