"""Property-based tests (hypothesis) on the core invariants.

Strategies build random weighted DAGs; the properties assert the contracts
that every higher layer relies on:

* the partitioner always produces an acyclic, covering, disjoint partition;
* memdag traversals are valid topological orders with peaks sandwiched
  between the single-task lower bound and the serial upper bound;
* quotient merge followed by unmerge is the identity;
* makespan is monotone under uniform speed-ups;
* valid mappings stay valid under Step-4 swaps.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.makespan import makespan
from repro.core.quotient import QuotientGraph
from repro.core.swaps import improve_by_swaps
from repro.memdag.model import peak_of_traversal
from repro.memdag.requirement import RequirementCache
from repro.memdag.traversal import memdag_traversal
from repro.partition.api import acyclic_partition
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.workflow.graph import Workflow

SETTINGS = dict(deadline=None, max_examples=40,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def weighted_dags(draw, max_tasks=24):
    """Random DAG: edges only from lower to higher index (acyclic by design)."""
    n = draw(st.integers(min_value=1, max_value=max_tasks))
    wf = Workflow("prop")
    for i in range(n):
        wf.add_task(i,
                    work=draw(st.floats(0.0, 100.0, allow_nan=False)),
                    memory=draw(st.floats(0.0, 50.0, allow_nan=False)))
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()) and draw(st.integers(0, 2)) == 0:
                wf.add_edge(i, j, draw(st.floats(0.0, 20.0, allow_nan=False)))
    return wf


@given(wf=weighted_dags(), k=st.integers(1, 8))
@settings(**SETTINGS)
def test_partitioner_contract(wf, k):
    blocks = acyclic_partition(wf, k)
    assert 1 <= len(blocks) <= k
    seen = set()
    for b in blocks:
        assert b
        assert not (b & seen)
        seen |= b
    assert seen == set(wf.tasks())
    # acyclic quotient: block indices must admit a topological order
    index = {u: i for i, b in enumerate(blocks) for u in b}
    succ = {i: set() for i in range(len(blocks))}
    for u, v, _ in wf.edges():
        if index[u] != index[v]:
            succ[index[u]].add(index[v])
    indeg = {i: 0 for i in succ}
    for outs in succ.values():
        for j in outs:
            indeg[j] += 1
    ready = [i for i, d in indeg.items() if d == 0]
    count = 0
    while ready:
        i = ready.pop()
        count += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    assert count == len(blocks)


@given(wf=weighted_dags())
@settings(**SETTINGS)
def test_memdag_traversal_contract(wf):
    result = memdag_traversal(wf)
    order = list(result.order)
    assert sorted(order, key=str) == sorted(wf.tasks(), key=str)
    pos = {u: i for i, u in enumerate(order)}
    for u, v, _ in wf.edges():
        assert pos[u] < pos[v]
    # peak is realized by the returned order
    assert result.peak == peak_of_traversal(wf, order)
    # sandwiched between single-task lower bound and serial upper bound
    lower = max(wf.task_requirement(u) for u in wf.tasks())
    upper = sum(wf.memory(u) + wf.out_cost(u) for u in wf.tasks())
    assert result.peak <= upper + 1e-6
    assert result.peak >= lower - 1e-6


@given(wf=weighted_dags(max_tasks=16), data=st.data())
@settings(**SETTINGS)
def test_quotient_merge_unmerge_identity(wf, data):
    n = wf.n_tasks
    if n < 3:
        return
    # random partition into 3 interval blocks of a topological order
    order = wf.topological_order()
    c1 = data.draw(st.integers(1, n - 2))
    c2 = data.draw(st.integers(c1 + 1, n - 1))
    blocks = [set(order[:c1]), set(order[c1:c2]), set(order[c2:])]
    q = QuotientGraph.from_partition(wf, blocks)
    snapshot_blocks = {bid: set(b.tasks) for bid, b in q.blocks.items()}
    snapshot_succ = {bid: dict(nbrs) for bid, nbrs in q.succ.items()}
    ids = list(q.blocks)
    a = data.draw(st.sampled_from(ids))
    b = data.draw(st.sampled_from([x for x in ids if x != a]))
    _, token = q.merge(a, b)
    q.unmerge(token)
    assert {bid: set(b.tasks) for bid, b in q.blocks.items()} == snapshot_blocks
    assert {bid: dict(nbrs) for bid, nbrs in q.succ.items()} == snapshot_succ
    for bid, nbrs in q.succ.items():
        for x, c in nbrs.items():
            assert q.pred[x][bid] == c


@given(wf=weighted_dags(max_tasks=12), factor=st.floats(1.1, 8.0))
@settings(**SETTINGS)
def test_makespan_monotone_in_speed(wf, factor):
    order = wf.topological_order()
    mid = max(1, len(order) // 2)
    blocks = [set(order[:mid]), set(order[mid:])] if len(order) > 1 else [set(order)]
    blocks = [b for b in blocks if b]
    slow_procs = [Processor(f"s{i}", 1.0, 1e12) for i in range(len(blocks))]
    fast_procs = [Processor(f"f{i}", factor, 1e12) for i in range(len(blocks))]
    q_slow = QuotientGraph.from_partition(wf, blocks, slow_procs)
    q_fast = QuotientGraph.from_partition(wf, blocks, fast_procs)
    ms_slow = makespan(q_slow, Cluster(slow_procs))
    ms_fast = makespan(q_fast, Cluster(fast_procs))
    assert ms_fast <= ms_slow + 1e-9


@given(wf=weighted_dags(max_tasks=14), data=st.data())
@settings(**SETTINGS)
def test_swaps_preserve_validity_and_never_worsen(wf, data):
    order = wf.topological_order()
    n = len(order)
    if n < 2:
        return
    cut = data.draw(st.integers(1, n - 1))
    blocks = [set(order[:cut]), set(order[cut:])]
    procs = [Processor("p0", 2.0, 1e12), Processor("p1", 5.0, 1e12),
             Processor("p2", 1.0, 1e12)]
    cluster = Cluster(procs)
    q = QuotientGraph.from_partition(wf, blocks, procs[:2])
    cache = RequirementCache(wf)
    before = makespan(q, cluster)
    improve_by_swaps(q, cluster, cache)
    after = makespan(q, cluster)
    assert after <= before + 1e-9
    # still a valid injective assignment
    names = [b.proc.name for b in q.blocks.values()]
    assert len(names) == len(set(names))


@given(wf=weighted_dags(max_tasks=14), k=st.integers(1, 4))
@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.too_slow])
def test_end_to_end_heuristic_on_random_dags(wf, k):
    """DagHetPart either returns a fully valid mapping or raises the
    documented infeasibility error — never a corrupt result."""
    from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
    from repro.utils.errors import NoFeasibleMappingError

    total_req = sum(wf.task_requirement(u) for u in wf.tasks()) + 1.0
    procs = [Processor(f"p{i}", speed=float(i + 1), memory=total_req)
             for i in range(k)]
    cluster = Cluster(procs)
    try:
        mapping = dag_het_part_sweep(
            wf, cluster, DagHetPartConfig(k_prime_strategy="all")).mapping
    except NoFeasibleMappingError:
        return
    mapping.validate()
    # ample memory: a mapping must exist and cover everything
    assert sum(len(a.tasks) for a in mapping.assignments) == wf.n_tasks


@given(wf=weighted_dags(max_tasks=16))
@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
def test_baseline_single_ample_processor(wf):
    """With one huge processor the baseline returns exactly one block whose
    makespan is total work / speed."""
    from repro.core.baseline import dag_het_mem

    proc = Processor("p", speed=3.0, memory=1e15)
    mapping = dag_het_mem(wf, Cluster([proc]))
    mapping.validate()
    assert mapping.n_blocks == 1
    assert abs(mapping.makespan() - wf.total_work() / 3.0) <= \
        1e-9 * max(1.0, wf.total_work())


@given(wf=weighted_dags(max_tasks=14), data=st.data())
@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.too_slow])
def test_task_level_simulation_never_exceeds_block_bound(wf, data):
    """Property form of the Section 3.3 overestimation claim."""
    from repro.core.mapping import BlockAssignment, Mapping
    from repro.core.simulate import simulate_task_level
    from repro.memdag.requirement import RequirementCache

    order = wf.topological_order()
    n = len(order)
    cut = data.draw(st.integers(1, max(1, n - 1))) if n > 1 else 1
    blocks = [set(order[:cut]), set(order[cut:])] if n > 1 else [set(order)]
    blocks = [b for b in blocks if b]
    procs = [Processor(f"p{i}", speed=2.0, memory=1e15)
             for i in range(len(blocks))]
    cluster = Cluster(procs)
    cache = RequirementCache(wf)
    assignments = []
    for tasks, proc in zip(blocks, procs):
        res = cache.requirement(tasks)
        assignments.append(BlockAssignment(frozenset(tasks), proc,
                                           res.peak, res.order))
    mapping = Mapping(wf, cluster, assignments)
    simulated, events = simulate_task_level(mapping)
    assert simulated <= mapping.makespan() + 1e-6
    assert len(events) == wf.n_tasks
