"""Tests of series-parallel recognition and decomposition."""

import pytest

from repro.memdag.sp_tree import EDGE, PARALLEL, SERIES, parallel_branches, sp_reduce


def _reduce(edges, source="s", sink="t"):
    """``sp_reduce`` of ``edges`` on named vertices: ``(tree, names)``,
    where ``names[i]`` is the vertex labelled ``i``."""
    labels = {}
    for u, v in edges:
        labels.setdefault(u, len(labels))
        labels.setdefault(v, len(labels))
    s = labels.setdefault(source, len(labels))
    t = labels.setdefault(sink, len(labels))
    tree = sp_reduce(len(labels), [labels[u] for u, _ in edges],
                     [labels[v] for _, v in edges], s, t)
    return tree, list(labels)


def _internal_vertices(tree, names):
    """The vertices strictly between the terminals, series junctions in order."""
    if tree == EDGE:
        return []
    if tree[0] == SERIES:
        return (_internal_vertices(tree[1], names) + [names[tree[2]]]
                + _internal_vertices(tree[3], names))
    return _internal_vertices(tree[1], names) + _internal_vertices(tree[2], names)


class TestRecognition:
    def test_single_edge(self):
        tree, _ = _reduce([("s", "t")])
        assert tree == EDGE

    def test_chain(self):
        tree, names = _reduce([("s", "a"), ("a", "b"), ("b", "t")])
        assert tree is not None
        assert tree[0] == SERIES
        assert _internal_vertices(tree, names) == ["a", "b"]

    def test_diamond(self):
        edges = [("s", "x"), ("s", "y"), ("x", "t"), ("y", "t")]
        tree, _ = _reduce(edges)
        assert tree is not None
        assert tree[0] == PARALLEL
        assert len(parallel_branches(tree)) == 2

    def test_nested_fork_join(self):
        edges = [("s", "a"), ("a", "t"), ("s", "b"), ("b", "c"), ("c", "t"),
                 ("s", "t")]
        tree, names = _reduce(edges)
        assert tree is not None
        assert set(_internal_vertices(tree, names)) == {"a", "b", "c"}

    def test_non_sp_n_graph(self):
        """The 'N' (crossing) graph is the canonical non-TTSP DAG."""
        edges = [("s", "a"), ("s", "b"), ("a", "x"), ("a", "y"), ("b", "y"),
                 ("x", "t"), ("y", "t")]
        assert _reduce(edges)[0] is None

    def test_empty_edges(self):
        assert sp_reduce(2, [], [], 0, 1) is None

    def test_montage_like_not_sp(self):
        # project i feeds diff i and diff i-1: the overlap breaks SP-ness
        edges = [("s", "p0"), ("s", "p1"), ("s", "p2"),
                 ("p0", "d0"), ("p1", "d0"), ("p1", "d1"), ("p2", "d1"),
                 ("d0", "t"), ("d1", "t")]
        assert _reduce(edges)[0] is None


class TestInternalVertices:
    def test_chain_order_respects_series(self):
        tree, names = _reduce([("s", "a"), ("a", "b"), ("b", "t")])
        assert _internal_vertices(tree, names) == ["a", "b"]

    def test_all_vertices_covered(self):
        edges = [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"),
                 ("s", "c"), ("c", "d"), ("d", "t")]
        tree, names = _reduce(edges)
        assert set(_internal_vertices(tree, names)) == {"a", "b", "c", "d"}


class TestWorkflowFamiliesAreSP:
    @pytest.mark.parametrize("family", ["blast", "bwa", "seismology", "epigenomics"])
    def test_fork_join_families_are_sp(self, family):
        from repro.generators.families import generate_topology
        from repro.memdag.traversal import sp_traversal
        wf = generate_topology(family, 40)
        assert sp_traversal(wf) is not None

    def test_montage_is_not_sp(self):
        from repro.generators.families import generate_topology
        from repro.memdag.traversal import sp_traversal
        wf = generate_topology("montage", 40)
        assert sp_traversal(wf) is None


#: Python run in a subprocess with a fixed hash seed: task ids are strings,
#: so a block's iteration order -- and with it the engines' tie-breaks --
#: depends on the seed
#: every Step 1 block (k = 2..16) and its bisection halves, over all seven
#: families at 200 tasks and blast and genome at 1000; the golden scripts
#: below append the loop body that hashes ``b``
_GOLDEN_BLOCKS = r"""
import hashlib
from repro.generators.families import WORKFLOW_FAMILIES, generate_workflow
from repro.partition.api import acyclic_partition, bisect_block
from repro.utils.errors import PartitionSplitError

def golden_blocks():
    inputs = [(f, 200) for f in WORKFLOW_FAMILIES] + [("blast", 1000), ("genome", 1000)]
    for family, n in inputs:
        wf = generate_workflow(family, n, seed=0)
        for k in (2, 4, 8, 16):
            for block in acyclic_partition(wf, k):
                blocks = [block]
                try:
                    blocks.extend(bisect_block(wf, block))
                except PartitionSplitError:
                    pass
                for b in blocks:
                    yield wf, b

digest = hashlib.sha256()
"""

_GOLDEN_ORDERS_SCRIPT = _GOLDEN_BLOCKS + r"""
from repro.memdag.traversal import sp_traversal

kinds = set()
for wf, b in golden_blocks():
    order = sp_traversal(wf, b)
    kinds.add(order is not None)
    digest.update(repr((sorted(b), order)).encode())
print(digest.hexdigest(), sorted(kinds))
"""

_GOLDEN_RESULTS_SCRIPT = _GOLDEN_BLOCKS + r"""
from repro.memdag.spize import layered_traversal
from repro.memdag.traversal import best_first_traversal, memdag_traversal

methods = set()
for wf, b in golden_blocks():
    result = memdag_traversal(wf, b)
    methods.add(result.method)
    digest.update(repr((sorted(b), result.order, result.peak.hex(), result.method,
                        best_first_traversal(wf, b),
                        layered_traversal(wf, b))).encode())
print(digest.hexdigest(), sorted(methods))
"""


def _run_golden(script):
    """``script``'s stdout words, run with a fixed hash seed: node ids are
    strings, and the engines' tie-breaks follow set iteration order."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True).stdout.split()


class TestGoldenOrders:
    def test_sp_orders_of_partition_blocks_are_pinned(self):
        """``sp_traversal`` of every Step 1 block (k = 2..16) and of its
        bisection halves, over all seven families at 200 tasks and blast
        and genome at 1000, hashes to a recorded digest: a rewrite of the
        SP engine must reproduce every order (or ``None``) exactly."""
        out = _run_golden(_GOLDEN_ORDERS_SCRIPT)
        assert out[1:] == ["[False,", "True]"]  # SP and non-SP blocks occur
        assert out[0] == (
            "2165b7164ec98075577248d0c667ca0af7f306955bb5e979b792719d2a7bef2e")

    def test_memdag_results_of_partition_blocks_are_pinned(self):
        """On the same blocks, ``memdag_traversal``'s order, peak (bit for
        bit, as ``float.hex``) and winning method, plus the ``best_first``
        and ``layered`` orders, hash to a digest recorded before the engines'
        statics, level sort and segment merge were last rewritten."""
        out = _run_golden(_GOLDEN_RESULTS_SCRIPT)
        assert out[1:] == ["['best_first',", "'layered',", "'sp']"]  # each engine wins
        assert out[0] == (
            "cb22d3a971634f563825df35fb9e56a700a98670d9fd48471d77c2eb83ec5f43")
