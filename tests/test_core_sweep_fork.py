"""A DagHetPart sweep split over forked processes: same outcome, no child left.

Every equivalence test runs the sweep twice, once in this process and
once with its ``k'`` values dealt over forked children (the fork is
forced, so the tests hold on a one-CPU box too), and compares the two
field by field.
"""

import importlib
import multiprocessing
import os
import threading

import pytest

from repro.api import ScheduleRequest, solve
from repro.core.anneal import AnnealConfig
from repro.core.heuristic import (
    FORK_MIN_TASKS,
    DagHetPartConfig,
    dag_het_part_sweep,
)
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import WORKFLOW_FAMILIES, generate_workflow
from repro.platform.cluster import Cluster
from repro.platform.presets import default_cluster
from repro.utils.errors import InvalidPartitionError, NoFeasibleMappingError

heuristic = importlib.import_module("repro.core.heuristic")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the forks the sweep makes."""
    made = []
    real = os.fork

    def counting():
        made.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return made


def set_workers(monkeypatch, workers):
    monkeypatch.setattr(heuristic, "_sweep_workers",
                        lambda n_tasks, n_candidates:
                        min(workers, n_candidates))


def small_cluster(wf):
    """Nine of the default cluster's processors (k <= 12), memory-scaled."""
    return scaled_cluster_for(
        wf, Cluster(default_cluster().processors[::4], name="small9"))


def fields(outcome):
    """Everything a sweep outcome says, down to each block's traversal."""
    mapping = outcome.mapping
    assert all(a.processor is mapping.cluster[a.processor.name]
               for a in mapping.assignments)
    return (outcome.k_prime, outcome.sweep, mapping.makespan(),
            [(a.tasks, a.processor.name, a.requirement, a.traversal)
             for a in mapping.assignments])


def both_ways(monkeypatch, forks, run, workers=2):
    """``run()`` in process, then forked over ``workers``; both results."""
    set_workers(monkeypatch, 1)
    serial = run()
    assert forks == []
    set_workers(monkeypatch, workers)
    forked = run()
    assert len(forks) == workers - 1
    assert_no_child_left()
    return serial, forked


def sweep_or_failure(wf, cluster, config=None):
    try:
        return fields(dag_het_part_sweep(wf, cluster, config))
    except NoFeasibleMappingError as exc:
        return "infeasible", exc.sweep


class TestForkedSweepEquivalence:
    @pytest.mark.parametrize("family", WORKFLOW_FAMILIES)
    def test_families_at_200_tasks(self, family, monkeypatch, forks):
        request = ScheduleRequest(
            workflow=generate_workflow(family, 200, seed=1),
            cluster=default_cluster(), algorithm="daghetpart",
            scale_memory=True)

        def run():
            result = solve(request)
            assert result.success
            return (result.k_prime, result.sweep, result.makespan,
                    [(a.tasks, a.processor.name, a.requirement, a.traversal)
                     for a in result.mapping.assignments])

        serial, forked = both_ways(monkeypatch, forks, run)
        assert forked == serial

    @pytest.mark.parametrize("config", [
        None,  # auto: "all" on k <= 12
        DagHetPartConfig(k_prime_strategy="all"),
        DagHetPartConfig(k_prime_values=(1, 3, 5, 9)),
    ], ids=["auto", "all", "explicit"])
    def test_small_cluster_sweeps(self, config, monkeypatch, forks):
        wf = generate_workflow("blast", 100, seed=1)
        cluster = small_cluster(wf)
        assert cluster.k <= 12
        serial, forked = both_ways(
            monkeypatch, forks, lambda: sweep_or_failure(wf, cluster, config),
            workers=3)
        assert forked == serial
        # k' = 1 wins, the rest are infeasible
        assert {p.status for p in serial[1]} == {"ok", "infeasible"}

    def test_error_points(self, monkeypatch, forks):
        wf = generate_workflow("epigenomics", 200, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        real = heuristic.acyclic_partition

        def failing(wf, k_prime, **kwargs):
            # 4 lands in this process's share, 8 in the child's
            if k_prime in (4, 8):
                raise InvalidPartitionError(f"no partition at {k_prime}")
            return real(wf, k_prime, **kwargs)

        monkeypatch.setattr(heuristic, "acyclic_partition", failing)
        serial, forked = both_ways(
            monkeypatch, forks, lambda: sweep_or_failure(wf, cluster))
        assert forked == serial
        assert [p.k_prime for p in serial[1] if p.status == "error"] == [4, 8]

    @pytest.mark.parametrize("k_primes", [(2, 3), (1, 2, 3, 4)])
    def test_a_tie_goes_to_the_lowest_k_prime(self, k_primes, monkeypatch,
                                              forks):
        # every k' prices the same, so the tie-break alone picks; dealt
        # over two processes, the lowest k' falls in the child's share
        wf = generate_workflow("blast", 100, seed=1)
        cluster = scaled_cluster_for(wf, default_cluster())
        real = heuristic._run_pipeline

        def flat(*args):
            result = real(*args)
            return None if result is None else (1.0, result[1])

        monkeypatch.setattr(heuristic, "_run_pipeline", flat)
        config = DagHetPartConfig(k_prime_values=k_primes)
        serial, forked = both_ways(
            monkeypatch, forks, lambda: sweep_or_failure(wf, cluster, config))
        assert forked == serial
        assert serial[0] == min(k_primes)

    def test_no_feasible_mapping_carries_the_sweep(self, monkeypatch, forks):
        wf = generate_workflow("genome", 100, seed=1)
        cluster = small_cluster(wf)
        serial, forked = both_ways(
            monkeypatch, forks, lambda: sweep_or_failure(wf, cluster))
        assert forked == serial
        assert serial[0] == "infeasible"
        assert [p.k_prime for p in serial[1]] == list(range(1, 10))

    def test_anneal_reuses_the_sweep_cache(self, monkeypatch, forks):
        # epigenomics-200's best k' (8) comes from the child's share, so
        # the annealer's cache has none of the winning blocks
        request = ScheduleRequest(
            workflow=generate_workflow("epigenomics", 200, seed=1),
            cluster=default_cluster(), algorithm="anneal",
            config=AnnealConfig(iterations=300), scale_memory=True)

        def run():
            result = solve(request)
            assert result.success
            return (result.k_prime, result.sweep, result.makespan,
                    result.extra,
                    [(a.tasks, a.processor.name, a.requirement, a.traversal)
                     for a in result.mapping.assignments])

        serial, forked = both_ways(monkeypatch, forks, run)
        assert forked == serial
        assert serial[0] == 8


class TestChildFailures:
    """With two workers a doubling sweep on 36 processors runs k' in
    {1, 4, 16, 36} here and {2, 8, 32} in the child."""

    @pytest.fixture
    def raise_at(self, monkeypatch):
        parent = os.getpid()
        real = heuristic.acyclic_partition

        def arm(k_bad, action):
            def partition(wf, k_prime, **kwargs):
                if k_prime == k_bad:
                    action(parent)
                return real(wf, k_prime, **kwargs)
            monkeypatch.setattr(heuristic, "acyclic_partition", partition)
        return arm

    def sweep(self):
        wf = generate_workflow("genome", 200, seed=1)
        return dag_het_part_sweep(wf,
                                  scaled_cluster_for(wf, default_cluster()))

    def boom(self, parent):
        where = "parent" if os.getpid() == parent else "child"
        raise ValueError(f"boom in {where}")

    def test_child_error_is_raised_in_the_caller(self, monkeypatch, forks,
                                                 raise_at):
        set_workers(monkeypatch, 2)
        raise_at(32, self.boom)
        with pytest.raises(ValueError, match="boom in child") as info:
            self.sweep()
        assert "k' sweep worker" in str(info.value.__cause__)
        assert len(forks) == 1
        assert_no_child_left()

    def test_parent_error_still_reaps_the_children(self, monkeypatch, forks,
                                                   raise_at):
        set_workers(monkeypatch, 2)
        raise_at(36, self.boom)
        with pytest.raises(ValueError, match="boom in parent"):
            self.sweep()
        assert len(forks) == 1
        assert_no_child_left()

    def test_child_that_dies_without_a_payload_is_an_error(self, monkeypatch,
                                                           forks, raise_at):
        def die(parent):
            if os.getpid() != parent:
                os._exit(3)

        set_workers(monkeypatch, 2)
        raise_at(8, die)
        with pytest.raises(RuntimeError, match="exited without a result"):
            self.sweep()
        assert_no_child_left()


def _rule_in_pool_worker():
    """The rule as a ``multiprocessing`` pool worker sees it on 4 CPUs
    (the patch lives in the worker's copy of ``os`` only)."""
    os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
    return heuristic._sweep_workers(1000, 7)


class TestSweepWorkersRule:
    @pytest.fixture
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)

    @pytest.fixture
    def single_thread(self, monkeypatch):
        # another test may have left a daemon thread behind
        monkeypatch.setattr(threading, "active_count", lambda: 1)

    def test_forks_up_to_the_cpus_and_the_candidates(self, four_cpus,
                                                     single_thread):
        assert heuristic._sweep_workers(FORK_MIN_TASKS, 7) == 4
        assert heuristic._sweep_workers(1000, 3) == 3
        assert heuristic._sweep_workers(1000, 2) == 2

    def test_below_the_size_threshold(self, four_cpus, single_thread):
        assert heuristic._sweep_workers(FORK_MIN_TASKS - 1, 7) == 1

    def test_one_candidate(self, four_cpus, single_thread):
        assert heuristic._sweep_workers(1000, 1) == 1

    def test_one_cpu(self, monkeypatch, single_thread):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert heuristic._sweep_workers(1000, 7) == 1

    def test_no_fork(self, monkeypatch, four_cpus, single_thread):
        monkeypatch.delattr(os, "fork")
        assert heuristic._sweep_workers(1000, 7) == 1

    def test_second_thread_alive(self, four_cpus):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert heuristic._sweep_workers(1000, 7) == 1
        finally:
            stop.set()
            thread.join()

    def test_pool_worker(self):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_rule_in_pool_worker) == 1
