"""Tests of the experiment harness: instances, runner, metrics, report."""

import dataclasses
import math

import pytest

from repro.api import (
    AlgorithmSpec,
    FamilyGridSource,
    PlatformAxis,
    RealWorkflowSource,
    resolve_parallel,
)
from repro.core.heuristic import DagHetPartConfig
from repro.experiments.figures import corpus_scenario
from repro.experiments.instances import (
    PAPER_SIZES,
    scaled_cluster_for,
    synthetic_sizes,
)
from repro.experiments.metrics import (
    aggregate_by,
    geometric_mean,
    makespan_ratios,
    relative_makespan_by,
    success_counts,
)
from repro.experiments.report import format_table
from repro.experiments.runner import RunRecord, scenario_records
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster

TINY_SIZES = {"small": (24,), "mid": (40,), "big": (60,)}
FAST_CFG = DagHetPartConfig(k_prime_values=(1, 4, 12))


def _instances(families, sizes, seed=0):
    return list(FamilyGridSource(families=families, sizes=sizes,
                                 seed=seed).instances())


def _spec(families=("blast",), sizes=(24,), **overrides):
    """DagHetMem + DagHetPart on a tiny family grid, default cluster."""
    spec = corpus_scenario("tiny", families=families,
                           sizes={"small": sizes}, include_real=False,
                           config=FAST_CFG)
    return dataclasses.replace(spec, **overrides)


class TestInstances:
    def test_paper_sizes_via_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert synthetic_sizes() == PAPER_SIZES

    def test_scaled_sizes_preserve_ordering(self):
        sizes = synthetic_sizes(full=False)
        flat_scaled = [n for cat in ("small", "mid", "big") for n in sizes[cat]]
        assert flat_scaled == sorted(flat_scaled)

    def test_repro_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "100")
        sizes = synthetic_sizes()
        assert sizes["big"][-1] == 300

    def test_sizes_rounded_alike_are_listed_once(self, monkeypatch):
        """An instance is seeded and named by family and count only, so a
        count is listed once over the whole corpus, by its first category."""
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "2000")
        assert synthetic_sizes() == {"small": (16,), "mid": (), "big": ()}
        monkeypatch.setenv("REPRO_SCALE", "400")
        assert synthetic_sizes() == {"small": (16, 20), "mid": (25, 38, 45),
                                     "big": (50, 62, 75)}
        for scale in ("2000", "400", "50", "10"):
            monkeypatch.setenv("REPRO_SCALE", scale)
            counts = [n for sizes in synthetic_sizes().values() for n in sizes]
            assert len(counts) == len(set(counts)), scale

    def test_paper_scales_round_no_two_sizes_alike(self, monkeypatch):
        """At ÷50 and ÷10 no two paper sizes round to one count, so the
        corpus and its seeds are the per-category rounding's."""
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "50")
        assert synthetic_sizes() == {"small": (16, 20, 40, 80, 160),
                                     "mid": (200, 300, 360),
                                     "big": (400, 500, 600)}
        monkeypatch.setenv("REPRO_SCALE", "10")
        assert synthetic_sizes() == {"small": (20, 100, 200, 400, 800),
                                     "mid": (1000, 1500, 1800),
                                     "big": (2000, 2500, 3000)}

    @pytest.mark.parametrize("raw", ["0", "-4", "abc", "nan", "inf", "1e999"])
    def test_bad_repro_scale_names_the_variable(self, monkeypatch, raw):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValueError, match="REPRO_SCALE="):
            synthetic_sizes()

    def test_blank_repro_scale_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        default = synthetic_sizes()
        monkeypatch.setenv("REPRO_SCALE", " ")
        assert synthetic_sizes() == default

    def test_family_grid_grouping(self):
        instances = _instances(("blast", "bwa"), TINY_SIZES)
        assert len(instances) == 6
        assert {i.category for i in instances} == {"small", "mid", "big"}

    def test_real_workflow_source(self):
        instances = list(RealWorkflowSource().instances())
        assert len(instances) == 5
        assert all(i.category == "real" for i in instances)

    def test_corpus_is_deterministic(self):
        def corpus():
            return (list(RealWorkflowSource(seed=0).instances())
                    + _instances(("blast",), TINY_SIZES, seed=0))
        a, b = corpus(), corpus()
        assert [i.name for i in a] == [i.name for i in b]
        wa, wb = a[-1].workflow, b[-1].workflow
        assert [wa.work(u) for u in wa.tasks()] == [wb.work(u) for u in wb.tasks()]

    def test_scaled_cluster_for(self):
        wf = generate_workflow("seismology", 200, seed=0)
        cluster = default_cluster()
        scaled = scaled_cluster_for(wf, cluster)
        assert scaled.max_memory() >= wf.max_task_requirement()
        # speeds unchanged
        assert sorted(p.speed for p in scaled) == sorted(p.speed for p in cluster)

    def test_scaled_cluster_noop_when_fits(self):
        from repro.generators.realworld import generate_real_workflow
        wf = generate_real_workflow("airrflow")
        cluster = default_cluster()
        assert scaled_cluster_for(wf, cluster) is cluster

    def test_scaled_cluster_noop_at_exact_fit(self):
        """peak == max memory needs no headroom: identical object back."""
        from repro.workflow.graph import Workflow
        cluster = default_cluster()
        wf = Workflow("exact")
        wf.add_task("t", work=1.0, memory=cluster.max_memory())
        assert wf.max_task_requirement() == cluster.max_memory()
        assert scaled_cluster_for(wf, cluster) is cluster

    def test_scaled_cluster_applies_headroom_factor(self):
        """Every memory is multiplied by exactly peak/max * headroom."""
        from repro.workflow.graph import Workflow
        cluster = default_cluster()
        peak = 3.0 * cluster.max_memory()
        wf = Workflow("big")
        wf.add_task("t", work=1.0, memory=peak)
        scaled = scaled_cluster_for(wf, cluster, headroom=1.5)
        factor = peak / cluster.max_memory() * 1.5
        for before, after in zip(cluster.processors, scaled.processors):
            assert after.memory == pytest.approx(before.memory * factor)
            assert after.speed == before.speed and after.name == before.name
        # the peak task now fits, with room to spare
        assert scaled.max_memory() >= peak * 1.5 * 0.999

    def test_scaled_cluster_default_headroom_makes_peak_fit(self):
        from repro.workflow.graph import Workflow
        cluster = default_cluster()
        wf = Workflow("big")
        wf.add_task("t", work=1.0, memory=cluster.max_memory() * 7.3)
        scaled = scaled_cluster_for(wf, cluster)
        assert scaled.max_memory() >= wf.max_task_requirement()


class TestSeedBase:
    """Corpus sources must not collapse Generator seeds to 0."""

    def test_generator_seed_is_not_collapsed_to_zero(self):
        import numpy as np
        from repro.experiments.instances import seed_base
        gen = np.random.default_rng(123)
        base = seed_base(gen)
        assert base != 0
        assert base != seed_base(np.random.default_rng(124))

    def test_generator_seed_is_stable_for_equal_state(self):
        import numpy as np
        from repro.experiments.instances import seed_base
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        assert seed_base(a) == seed_base(b)
        # deriving the base does not consume the stream
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_generator_seeded_corpora_differ_by_seed(self):
        import numpy as np
        instances_a = _instances(("blast",), {"small": (24,)},
                                 seed=np.random.default_rng(1))
        instances_b = _instances(("blast",), {"small": (24,)},
                                 seed=np.random.default_rng(2))
        wa, wb = instances_a[0].workflow, instances_b[0].workflow
        assert [wa.work(u) for u in wa.tasks()] != \
            [wb.work(u) for u in wb.tasks()]

    def test_int_like_and_none_seeds(self):
        from repro.experiments.instances import seed_base
        assert seed_base(None) == 0
        assert seed_base(7) == 7
        assert seed_base("12") == 12  # int()-coercible passes through

    def test_unusable_seed_raises_type_error(self):
        from repro.experiments.instances import seed_base
        with pytest.raises(TypeError, match="corpus seed"):
            seed_base(object())


class TestRunner:
    def test_records_per_algorithm(self):
        records = scenario_records(_spec())
        assert {r.algorithm for r in records} == {"DagHetMem", "DagHetPart"}
        for r in records:
            assert r.success
            assert r.makespan > 0
            assert r.runtime >= 0
            assert r.n_blocks >= 1

    def test_failed_run_recorded_not_raised(self):
        starved = PlatformAxis(preset="default", memory_factors=(1e-9,))
        records = scenario_records(_spec(platforms=(starved,),
                                         scale_memory=False))
        assert len(records) == 2
        assert all(not r.success for r in records)
        assert all(math.isinf(r.makespan) for r in records)

    def test_progress_callback(self):
        messages = []
        scenario_records(_spec(families=("bwa",)), progress=messages.append)
        assert len(messages) == 2  # one per completed request
        assert messages[-1].startswith("finished bwa-24 / DagHetPart on ")
        assert messages[-1].endswith("(2/2)")


class TestParallelRunner:
    def _spec(self):
        return _spec(families=("blast", "bwa"), sizes=(24, 32))

    @staticmethod
    def _strip_runtime(records):
        return [{k: v for k, v in dataclasses.asdict(r).items()
                 if k != "runtime"} for r in records]

    def test_parallel_records_match_serial(self):
        spec = self._spec()
        serial = scenario_records(spec)
        par = scenario_records(spec, parallel=2)
        assert self._strip_runtime(par) == self._strip_runtime(serial)

    def test_parallel_progress_and_all_cpus(self):
        spec = self._spec()
        messages = []
        records = scenario_records(spec, parallel=-1,
                                   progress=messages.append)
        assert len(records) == spec.size() == 8
        assert len(messages) == len(records)

    def test_parallel_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL", "3")
        assert resolve_parallel(None) == 3
        assert resolve_parallel(2) == 2
        monkeypatch.setenv("REPRO_PARALLEL", "junk")
        with pytest.raises(ValueError, match="REPRO_PARALLEL='junk'"):
            resolve_parallel(None)
        monkeypatch.delenv("REPRO_PARALLEL")
        assert resolve_parallel(None) == 0
        assert resolve_parallel(-1) >= 1

    def test_parallel_one_is_serial(self):
        # a single instance: two requests, fewer than the workers asked for
        records = scenario_records(_spec(), parallel=8)
        assert len(records) == 2


class TestMetrics:
    def _fake_records(self):
        mk = lambda inst, alg, ms, ok=True: RunRecord(
            instance=inst, family="f", category="small", n_tasks=10,
            algorithm=alg, cluster="c", bandwidth=1.0, success=ok,
            makespan=ms, runtime=0.1, n_blocks=1)
        return [
            mk("a", "DagHetMem", 100.0), mk("a", "DagHetPart", 50.0),
            mk("b", "DagHetMem", 100.0), mk("b", "DagHetPart", 25.0),
            mk("c", "DagHetMem", float("inf"), ok=False),
            mk("c", "DagHetPart", 10.0),
        ]

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert math.isnan(geometric_mean([]))
        with pytest.raises(ValueError):
            geometric_mean([0.0, 1.0])

    def test_ratios_skip_failed_pairs(self):
        ratios = makespan_ratios(self._fake_records())
        assert len(ratios) == 2
        values = sorted(r for _, r in ratios)
        assert values == [0.25, 0.5]

    def test_relative_makespan_geomean(self):
        rel = relative_makespan_by(self._fake_records(), key=lambda r: r.category)
        assert rel["small"] == pytest.approx(100.0 * math.sqrt(0.5 * 0.25))

    def test_success_counts(self):
        counts = success_counts(self._fake_records())
        assert counts[("small", "DagHetMem")] == (2, 3)
        assert counts[("small", "DagHetPart")] == (3, 3)

    def test_aggregate_by_modes(self):
        recs = self._fake_records()
        val = lambda r: r.makespan
        key = lambda r: r.algorithm
        assert aggregate_by(recs, key, val, "max")["DagHetPart"] == 50.0
        assert aggregate_by(recs, key, val, "sum")["DagHetPart"] == 85.0
        assert aggregate_by(recs, key, val, "mean")["DagHetMem"] == 100.0
        with pytest.raises(ValueError):
            aggregate_by(recs, key, val, "median")


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"name": "x", "value": 1.5}, {"name": "longer", "value": 22.0}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no data)" in format_table([])

    def test_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestInstanceDataclass:
    def test_n_tasks_reflects_workflow(self):
        inst = _instances(("blast",), {"small": (30,)})[0]
        assert inst.n_tasks == inst.workflow.n_tasks
        assert inst.category == "small"
        assert inst.family == "blast"

    def test_instances_are_frozen(self):
        inst = next(RealWorkflowSource().instances())
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.name = "other"


class TestRunnerValidateFlag:
    def test_validate_flag_runs_full_checks(self):
        records = scenario_records(_spec(families=("bwa",), validate=True))
        assert len(records) == 2
        assert all(r.success for r in records)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            scenario_records(_spec(algorithms=(AlgorithmSpec("Mystery"),)))
