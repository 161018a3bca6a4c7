"""Tests for utilities: priority queue, RNG plumbing, errors."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.utils.errors import (
    CyclicWorkflowError,
    NoFeasibleMappingError,
    ReproError,
)
from repro.utils.pqueue import AddressableMaxPQ
from repro.utils.rng import make_rng, spawn_rngs, stable_hash


class TestAddressableMaxPQ:
    def test_extract_max_order(self):
        pq = AddressableMaxPQ([("a", 3), ("b", 7), ("c", 5)])
        assert [pq.extract_max()[0] for _ in range(3)] == ["b", "c", "a"]

    def test_ties_broken_by_insertion_order(self):
        pq = AddressableMaxPQ([("first", 5), ("second", 5)])
        assert pq.extract_max()[0] == "first"

    def test_push_updates_priority(self):
        pq = AddressableMaxPQ([("a", 1), ("b", 2)])
        pq.push("a", 10)
        assert pq.extract_max() == ("a", 10.0)

    def test_remove(self):
        pq = AddressableMaxPQ([("a", 1), ("b", 2)])
        pq.remove("b")
        assert "b" not in pq
        assert len(pq) == 1
        assert pq.extract_max()[0] == "a"

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            AddressableMaxPQ().remove("ghost")

    def test_empty_operations_raise(self):
        with pytest.raises(IndexError):
            AddressableMaxPQ().extract_max()

    def test_bool_and_len(self):
        pq = AddressableMaxPQ()
        assert not pq
        pq.push("x", 1)
        assert pq and len(pq) == 1

    def test_stress_against_sorted(self):
        rng = np.random.default_rng(7)
        pq = AddressableMaxPQ()
        reference = {}
        for i in range(500):
            key = int(rng.integers(0, 100))
            prio = float(rng.random())
            pq.push(key, prio)
            reference[key] = prio
        drained = [pq.extract_max() for _ in range(len(pq))]
        assert len(drained) == len(reference)
        assert {k for k, _ in drained} == set(reference)
        priorities = [p for _, p in drained]
        assert priorities == sorted(priorities, reverse=True)


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.allclose(a, b)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(0, 3)
        seqs = [c.random(4).tolist() for c in children]
        assert seqs[0] != seqs[1] != seqs[2]

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rngs(5, 2)]
        b = [g.random() for g in spawn_rngs(5, 2)]
        assert a == b

    def test_stable_hash_deterministic(self):
        assert stable_hash("blast:200") == stable_hash("blast:200")
        assert stable_hash("a") != stable_hash("b")
        assert 0 <= stable_hash("anything") < 2 ** 63


_LEAN_CHILD = """
import json, sys
import repro.cli, repro.service, repro.api.exec.worker
from repro.api import ScheduleRequest, solve_with_policy

result = solve_with_policy(ScheduleRequest.from_json(sys.stdin.read()))
lean = "numpy" not in sys.modules
from repro import generate_workflow
generate_workflow("blast", n_tasks=20, seed=1)
print(json.dumps({"lean": lean, "success": result.success,
                  "makespan": result.makespan,
                  "numpy_after_generate": "numpy" in sys.modules}))
"""


class TestLeanImportPath:
    """Serving, working and solving a decoded request never load numpy."""

    def test_decoded_solve_leaves_numpy_unloaded(self):
        from repro import (
            ScheduleRequest, default_cluster, generate_workflow, solve)

        request = ScheduleRequest(
            workflow=generate_workflow("blast", n_tasks=30, seed=2),
            cluster=default_cluster(), algorithm="daghetpart",
            scale_memory=True)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-c", _LEAN_CHILD], input=request.to_json(),
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["lean"], "numpy was imported on the solve path"
        assert report["success"]
        assert report["makespan"] == solve(request).makespan
        # the generators are numpy's intended importer
        assert report["numpy_after_generate"]


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(CyclicWorkflowError, ReproError)
        assert issubclass(NoFeasibleMappingError, ReproError)

    def test_cycle_message_includes_nodes(self):
        err = CyclicWorkflowError(["a", "b"])
        assert "a" in str(err)
        assert err.cycle == ["a", "b"]

    def test_no_feasible_mapping_records_unplaced(self):
        err = NoFeasibleMappingError("nope", unplaced_tasks=7)
        assert err.unplaced_tasks == 7
