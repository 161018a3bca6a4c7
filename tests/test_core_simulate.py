"""Tests of the task-level simulator, Gantt export, and the
overestimation claim of Section 3.3."""

import pytest

from repro.core.baseline import dag_het_mem
from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.core.mapping import BlockAssignment, Mapping
from repro.core.simulate import (
    gantt_text,
    schedule_to_dict,
    simulate_task_level,
)
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.platform.presets import default_cluster
from repro.platform.processor import Processor


def _mapping(wf, cluster, blocks, procs):
    cache = RequirementCache(wf)
    assignments = []
    for tasks, proc in zip(blocks, procs):
        res = cache.requirement(tasks)
        assignments.append(BlockAssignment(frozenset(tasks), proc,
                                           res.peak, res.order))
    return Mapping(wf, cluster, assignments, "test")


class TestSimulation:
    def test_single_block_equals_serial_time(self, chain_workflow):
        proc = Processor("p", 2.0, 1e9)
        m = _mapping(chain_workflow, Cluster([proc]), [set("abcd")], [proc])
        makespan, events = simulate_task_level(m)
        assert makespan == pytest.approx(chain_workflow.total_work() / 2.0)
        assert len(events) == 4
        # no gaps on a single processor executing a chain
        events.sort(key=lambda e: e.start)
        for prev, nxt in zip(events, events[1:]):
            assert nxt.start == pytest.approx(prev.finish)

    def test_events_respect_dependencies(self, fig1_workflow, fig1_partition,
                                         unit_cluster):
        m = _mapping(fig1_workflow, unit_cluster, fig1_partition,
                     unit_cluster.processors)
        _, events = simulate_task_level(m)
        finish = {e.task: e.finish for e in events}
        start = {e.task: e.start for e in events}
        for u, v, c in fig1_workflow.edges():
            assert start[v] >= finish[u] - 1e-9  # at least the finish
        assert len(events) == 9

    def test_cross_processor_transfer_delays(self, chain_workflow):
        pa, pb = Processor("pa", 1, 1e9), Processor("pb", 1, 1e9)
        cluster = Cluster([pa, pb], bandwidth=0.5)
        m = _mapping(chain_workflow, cluster, [{"a", "b"}, {"c", "d"}], [pa, pb])
        _, events = simulate_task_level(m)
        start = {e.task: e.start for e in events}
        finish = {e.task: e.finish for e in events}
        # c waits for b's file: transfer = 1.0 / 0.5 = 2.0
        assert start["c"] == pytest.approx(finish["b"] + 2.0)

    def test_task_level_never_exceeds_block_level(self):
        """The paper's bound is an *over*estimation (Section 3.3)."""
        for family in ("blast", "genome", "soykb", "montage"):
            wf = generate_workflow(family, 80, seed=19)
            cluster = scaled_cluster_for(wf, default_cluster())
            mapping = dag_het_mem(wf, cluster)
            simulated, _ = simulate_task_level(mapping)
            assert mapping.makespan() >= simulated * (1.0 - 1e-9), family

    def test_overestimation_on_heuristic_output(self):
        wf = generate_workflow("bwa", 100, seed=23)
        cluster = scaled_cluster_for(wf, default_cluster())
        mapping = dag_het_part_sweep(
            wf, cluster, DagHetPartConfig(k_prime_strategy="doubling")).mapping
        simulated, _ = simulate_task_level(mapping)
        assert mapping.makespan() >= simulated * (1.0 - 1e-9)


class TestExports:
    def test_schedule_dict_fields(self, fig1_workflow, fig1_partition,
                                  unit_cluster):
        m = _mapping(fig1_workflow, unit_cluster, fig1_partition,
                     unit_cluster.processors)
        d = schedule_to_dict(m)
        assert d["block_level_makespan"] == pytest.approx(12.0)
        assert d["task_level_makespan"] <= d["block_level_makespan"] + 1e-9
        assert len(d["tasks"]) == 9
        assert {"task", "processor", "start", "finish"} <= set(d["tasks"][0])

    def test_schedule_json_serializable(self, fig1_workflow, fig1_partition,
                                        unit_cluster):
        import json
        m = _mapping(fig1_workflow, unit_cluster, fig1_partition,
                     unit_cluster.processors)
        json.dumps(schedule_to_dict(m))

    def test_gantt_renders_all_processors(self, fig1_workflow, fig1_partition,
                                          unit_cluster):
        m = _mapping(fig1_workflow, unit_cluster, fig1_partition,
                     unit_cluster.processors)
        text = gantt_text(m)
        for proc in unit_cluster.processors:
            assert proc.name in text
        assert "makespan" in text

    def test_gantt_elides_rows(self):
        wf = generate_workflow("blast", 60, seed=2)
        cluster = scaled_cluster_for(wf, default_cluster())
        mapping = dag_het_part_sweep(
            wf, cluster, DagHetPartConfig(k_prime_strategy="doubling")).mapping
        text = gantt_text(mapping, max_rows=2)
        if mapping.n_blocks > 2:
            assert "elided" in text
