"""The kernel seam: selection rules and bit-for-bit interchangeability.

The benchmark-scale version of the equivalence check lives in
``benchmarks/test_core_kernels.py``; here the same contract is held on
small deterministic instances plus the dispatch machinery itself
(``REPRO_KERNEL``, ``set_kernel``/``use_kernel``, the ``auto`` cutoff).
"""

from __future__ import annotations

import pytest

from repro.core.kernels import (
    KERNEL_NAMES,
    get_kernel,
    kernel_name,
    set_kernel,
    use_kernel,
)
from repro.core.kernels.array import DEFAULT_CUTOFF, ArrayKernel
from repro.core.kernels.reference import ReferenceKernel
from repro.core.quotient import QuotientGraph
from repro.generators.families import generate_workflow
from repro.generators.random_dag import random_workflow
from repro.platform.presets import default_cluster
from repro.utils.errors import CyclicWorkflowError
from repro.workflow.graph import Workflow


@pytest.fixture(autouse=True)
def _restore_selection():
    previous = set_kernel(None)
    yield
    set_kernel(previous)


def _singleton_quotient(wf, cluster=None, assign=True):
    q = QuotientGraph.from_partition(wf, [{u} for u in wf.tasks()])
    if assign and cluster is not None:
        procs = cluster.processors
        for i, bid in enumerate(sorted(q.blocks)):
            q.set_proc(bid, procs[i % len(procs)])
    return q


class TestSelection:
    def test_default_is_auto(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_name() == "auto"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert kernel_name() == "reference"
        assert isinstance(get_kernel(), ReferenceKernel)
        monkeypatch.setenv("REPRO_KERNEL", "array")
        assert isinstance(get_kernel(), ArrayKernel)

    def test_env_invalid_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "gpu")
        with pytest.raises(ValueError):
            kernel_name()

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        set_kernel("array")
        assert kernel_name() == "array"
        set_kernel(None)
        assert kernel_name() == "reference"

    def test_set_kernel_invalid_raises(self):
        with pytest.raises(ValueError):
            set_kernel("cuda")

    def test_use_kernel_restores(self):
        before = kernel_name()
        with use_kernel("reference") as k:
            assert isinstance(k, ReferenceKernel)
            assert kernel_name() == "reference"
        assert kernel_name() == before

    def test_names_are_stable(self):
        assert KERNEL_NAMES == ("reference", "array", "auto")

    def test_auto_cutoff_delegates_small_instances(self):
        """Below the cutoff ``auto`` prices on the reference loops (the
        outputs are identical either way; this pins the economics)."""
        auto = ArrayKernel(forced=False)
        wf = random_workflow(50, seed=0)
        assert wf.n_tasks < DEFAULT_CUTOFF
        assert wf._compiled is None
        auto.task_requirements(wf)
        assert wf._compiled is None  # never compiled: delegated
        forced = ArrayKernel(forced=True)
        forced.task_requirements(wf)
        assert wf._compiled is not None


class TestEquivalence:
    """ref and array must agree bit for bit — values AND ordering."""

    @pytest.mark.parametrize("family,n", [
        ("blast", 40), ("genome", 60), ("montage", 60), ("bwa", 80),
    ])
    def test_bottom_weights(self, family, n):
        wf = generate_workflow(family, n, seed=1)
        cluster = default_cluster()
        q = _singleton_quotient(wf, cluster)
        ref = ReferenceKernel().bottom_weights(q, cluster, 1.0)
        arr = ArrayKernel(forced=True).bottom_weights(q, cluster, 1.0)
        # key order is not part of this contract (reference fills in
        # reverse topological order, array in block order) — values are
        assert ref == arr
        assert set(ref) == set(arr)

    def test_bottom_weights_unassigned_blocks(self):
        """proc=None blocks fall back to the default speed in both."""
        wf = random_workflow(60, seed=2)
        cluster = default_cluster()
        q = _singleton_quotient(wf, cluster)
        for bid in sorted(q.blocks)[::3]:
            q.set_proc(bid, None)
        ref = ReferenceKernel().bottom_weights(q, cluster, 2.5)
        arr = ArrayKernel(forced=True).bottom_weights(q, cluster, 2.5)
        assert ref == arr

    def test_bottom_weights_empty_and_single(self):
        cluster = default_cluster()
        for wf in (Workflow(),):
            q = _singleton_quotient(wf)
            assert ArrayKernel(forced=True).bottom_weights(q, cluster) == {}
        wf = Workflow()
        wf.add_task("u", 6.0, 1.0)
        q = _singleton_quotient(wf, cluster)
        ref = ReferenceKernel().bottom_weights(q, cluster)
        arr = ArrayKernel(forced=True).bottom_weights(q, cluster)
        assert ref == arr

    def test_bottom_weights_cyclic_raises_in_both(self):
        wf = Workflow()
        wf.add_edge("a", "b", 1.0)
        wf.add_edge("c", "d", 1.0)
        q = QuotientGraph.from_partition(wf, [{"a", "d"}, {"b", "c"}])
        for kernel in (ReferenceKernel(), ArrayKernel(forced=True)):
            with pytest.raises(CyclicWorkflowError):
                kernel.bottom_weights(q, default_cluster())

    def test_feasible_swap_pairs(self):
        wf = random_workflow(40, seed=3)
        cluster = default_cluster()
        q = _singleton_quotient(wf, cluster)
        ids = sorted(q.blocks)
        # memory-tight requirements: only some pairs feasible
        requirement = {bid: 90.0 + (i * 53) % 120
                       for i, bid in enumerate(ids)}
        ref = ReferenceKernel().feasible_swap_pairs(ids, requirement, q.blocks)
        arr = ArrayKernel(forced=True).feasible_swap_pairs(
            ids, requirement, q.blocks)
        assert ref == arr  # exact list equality: same pairs, same order
        assert ref  # non-degenerate instance

    def test_memory_slack_order(self):
        bids = list(range(100, 0, -1))
        slacks = [float((i * 37) % 11 - 5) for i in range(100)]
        for cap in (0, 5, 24, 100, 200):
            ref = ReferenceKernel().memory_slack_order(bids, slacks, cap)
            arr = ArrayKernel(forced=True).memory_slack_order(
                bids, slacks, cap)
            assert ref == arr

    def test_task_requirements(self):
        wf = generate_workflow("soykb", 80, seed=4)
        ref = ReferenceKernel().task_requirements(wf)
        arr = ArrayKernel(forced=True).task_requirements(wf)
        assert ref == arr
        assert list(ref) == list(arr)

    def test_makespan_dispatches_through_seam(self):
        """The public makespan() is identical under either selection."""
        from repro.core.makespan import makespan
        wf = generate_workflow("genome", 60, seed=5)
        cluster = default_cluster()
        q = _singleton_quotient(wf, cluster)
        with use_kernel("reference"):
            mu_ref = makespan(q, cluster)
        with use_kernel("array"):
            mu_arr = makespan(q, cluster)
        assert mu_ref == mu_arr
