"""Tests of series-parallel recognition and decomposition."""

import pytest

from repro.memdag.sp_tree import SPTree, is_series_parallel, sp_decompose


class TestRecognition:
    def test_single_edge(self):
        tree = sp_decompose([("s", "t")], "s", "t")
        assert tree is not None
        assert tree.kind == "leaf"

    def test_chain(self):
        edges = [("s", "a"), ("a", "b"), ("b", "t")]
        tree = sp_decompose(edges, "s", "t")
        assert tree is not None
        assert tree.kind == "series"
        assert tree.via == ["a", "b"] or sorted(tree.via) == ["a", "b"]

    def test_diamond(self):
        edges = [("s", "x"), ("s", "y"), ("x", "t"), ("y", "t")]
        tree = sp_decompose(edges, "s", "t")
        assert tree is not None
        assert tree.kind == "parallel"
        assert len(tree.children) == 2

    def test_nested_fork_join(self):
        edges = [("s", "a"), ("a", "t"), ("s", "b"), ("b", "c"), ("c", "t"),
                 ("s", "t")]
        tree = sp_decompose(edges, "s", "t")
        assert tree is not None
        internal = set(tree.internal_vertices())
        assert internal == {"a", "b", "c"}

    def test_non_sp_n_graph(self):
        """The 'N' (crossing) graph is the canonical non-TTSP DAG."""
        edges = [("s", "a"), ("s", "b"), ("a", "x"), ("a", "y"), ("b", "y"),
                 ("x", "t"), ("y", "t")]
        assert not is_series_parallel(edges, "s", "t")

    def test_empty_edges(self):
        assert sp_decompose([], "s", "t") is None

    def test_montage_like_not_sp(self):
        # project i feeds diff i and diff i-1: the overlap breaks SP-ness
        edges = [("s", "p0"), ("s", "p1"), ("s", "p2"),
                 ("p0", "d0"), ("p1", "d0"), ("p1", "d1"), ("p2", "d1"),
                 ("d0", "t"), ("d1", "t")]
        assert not is_series_parallel(edges, "s", "t")


class TestInternalVertices:
    def test_chain_order_respects_series(self):
        edges = [("s", "a"), ("a", "b"), ("b", "t")]
        tree = sp_decompose(edges, "s", "t")
        order = tree.internal_vertices()
        assert order == ["a", "b"]

    def test_all_vertices_covered(self):
        edges = [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t"),
                 ("s", "c"), ("c", "d"), ("d", "t")]
        tree = sp_decompose(edges, "s", "t")
        assert set(tree.internal_vertices()) == {"a", "b", "c", "d"}


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
