"""Tests of the command-line interface (direct main() invocation)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

_SPECS = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                      "specs")
_TINY = os.path.join(_SPECS, "tiny_smoke.json")
_DYNAMICS = os.path.join(_SPECS, "dynamics_smoke.json")


class TestGenerate:
    def test_generate_json(self, tmp_path):
        out = tmp_path / "wf.json"
        rc = main(["generate", "--family", "blast", "-n", "30",
                   "--seed", "1", "-o", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["tasks"]) >= 25

    def test_generate_dot(self, tmp_path):
        out = tmp_path / "wf.dot"
        rc = main(["generate", "--family", "bwa", "-n", "20", "-o", str(out)])
        assert rc == 0
        assert "digraph" in out.read_text()

    def test_generate_real_world(self, tmp_path):
        out = tmp_path / "real.json"
        rc = main(["generate", "--family", "airrflow", "-o", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["tasks"]) == 11


class TestSchedule:
    def test_schedule_generated(self, capsys):
        rc = main(["schedule", "--family", "blast", "-n", "40", "--seed", "2",
                   "--k-strategy", "doubling"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "DagHetPart" in out

    def test_schedule_baseline(self, capsys):
        rc = main(["schedule", "--family", "bwa", "-n", "30",
                   "--algorithm", "daghetmem"])
        assert rc == 0
        assert "DagHetMem" in capsys.readouterr().out

    def test_schedule_heftlist_skips_memory_validation(self, capsys):
        # memory-oblivious mappings may exceed processor memories; the CLI
        # must report them, not crash on validate()
        rc = main(["schedule", "--family", "genome", "-n", "150",
                   "--algorithm", "heftlist"])
        assert rc == 0
        assert "HeftList" in capsys.readouterr().out

    def test_schedule_from_file_with_gantt(self, tmp_path, capsys):
        wf_path = tmp_path / "wf.json"
        main(["generate", "--family", "seismology", "-n", "25", "-o", str(wf_path)])
        capsys.readouterr()
        rc = main(["schedule", "--workflow", str(wf_path), "--gantt",
                   "--k-strategy", "doubling"])
        assert rc == 0
        assert "task-level makespan" in capsys.readouterr().out

    def test_schedule_json_export(self, tmp_path):
        out = tmp_path / "sched.json"
        rc = main(["schedule", "--family", "blast", "-n", "30",
                   "--k-strategy", "doubling", "--json", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["task_level_makespan"] <= data["block_level_makespan"] + 1e-9

    def test_schedule_reports_winning_k_prime(self, capsys):
        rc = main(["schedule", "--family", "blast", "-n", "40", "--seed", "2",
                   "--k-strategy", "doubling"])
        assert rc == 0
        assert "k'        :" in capsys.readouterr().out

    def test_unknown_family_lists_valid_names(self):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--family", "frobnicate"])
        message = str(exc.value)
        assert "unknown workflow family 'frobnicate'" in message
        assert "blast" in message  # generator families listed
        assert "airrflow" in message  # real-world models listed

    def test_infeasible_returns_2(self, tmp_path, capsys):
        # a workflow too big for the unscaled default cluster
        wf_path = tmp_path / "wf.json"
        main(["generate", "--family", "seismology", "-n", "300",
              "-o", str(wf_path)])
        rc = main(["schedule", "--workflow", str(wf_path),
                   "--no-scale-memory", "--k-strategy", "doubling"])
        assert rc == 2


class TestExperimentAndInfo:
    def test_experiment_table2(self, capsys):
        rc = main(["experiment", "table2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "C2" in out and "192" in out

    def test_experiment_with_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "400")  # tiny corpus
        out = tmp_path / "rows.json"
        rc = main(["experiment", "fig3_left", "--families", "blast",
                   "--json", str(out)])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert any(r["workflow_type"] == "all" for r in rows)

    @pytest.mark.parametrize("name, x_axis", [
        ("fig4", "x: heterogeneity (0=nohet 1=lesshet 2=default 3=morehet)"),
        ("fig3_right", "x: n_cpus"),
    ])
    def test_plot_draws_one_line_per_workflow_type(self, capsys, monkeypatch,
                                                   name, x_axis):
        monkeypatch.setenv("REPRO_SCALE", "400")  # tiny corpus
        rc = main(["experiment", name, "--families", "blast", "--plot"])
        assert rc == 0
        chart = capsys.readouterr().out.split(f"\n{name}\n", 1)[1]
        lines = chart.splitlines()
        # one series per workflow type, over every level / cluster size
        assert lines[0] == "o=real  x=small  +=mid  *=big"
        assert x_axis in lines[-1]
        if name == "fig3_right":
            assert lines[-2].split() == ["18", "60"]

    def test_info(self, capsys):
        rc = main(["info"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "blast" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [["info"], ["experiment", "fig3_left"]])
    @pytest.mark.parametrize("scale", ["0", "-3", "nan", "fast"])
    def test_bad_corpus_scale_is_one_error_line(self, capsys, monkeypatch,
                                                argv, scale):
        monkeypatch.setenv("REPRO_SCALE", scale)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: REPRO_SCALE={scale!r} is not a "
                                f"positive finite number\n")


class TestScenario:
    def _write_spec(self, tmp_path):
        from repro.api import (AlgorithmSpec, FamilyGridSource, PlatformAxis,
                               ScenarioSpec, save_scenario)
        spec = ScenarioSpec(
            name="cli-tiny",
            workflows=(FamilyGridSource(families=("blast",),
                                        sizes={"small": (24,)}),),
            platforms=(PlatformAxis(preset="default"),),
            algorithms=(AlgorithmSpec("daghetmem"),
                        AlgorithmSpec("daghetpart",
                                      config={"k_prime_values": [1, 4]})),
        )
        path = str(tmp_path / "spec.json")
        save_scenario(spec, path)
        return path

    def test_scenario_run(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        rc = main(["scenario", "run", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-tiny" in out
        assert "scheduled : 2/2" in out

    def test_scenario_run_cached_twice(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        cache = str(tmp_path / "cache")
        rc = main(["scenario", "run", path, "--cache", cache])
        assert rc == 0
        assert "misses=2" in capsys.readouterr().out
        rc = main(["scenario", "run", path, "--cache", cache])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hits=2" in out and "misses=0" in out

    def test_scenario_run_writes_jsonl(self, tmp_path, capsys):
        from repro.api import ScheduleResult
        path = self._write_spec(tmp_path)
        out_path = tmp_path / "results.jsonl"
        rc = main(["scenario", "run", path, "--json", str(out_path)])
        assert rc == 0
        lines = [l for l in out_path.read_text().splitlines() if l]
        assert len(lines) == 2
        results = [ScheduleResult.from_json(l) for l in lines]
        assert {r.algorithm for r in results} == {"DagHetMem", "DagHetPart"}

    def test_scenario_run_missing_spec_fails(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["scenario", "run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_scenario_run_backend_flag(self, tmp_path, capsys, backend):
        path = self._write_spec(tmp_path)
        rc = main(["scenario", "run", path, "--backend", backend, "-j", "2"])
        assert rc == 0
        assert "scheduled : 2/2" in capsys.readouterr().out

    def test_scenario_run_sqlite_cache_uri(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        uri = f"sqlite://{tmp_path}/cache.db"
        rc = main(["scenario", "run", path, "--cache", uri])
        assert rc == 0
        assert "misses=2" in capsys.readouterr().out
        rc = main(["scenario", "run", path, "--cache", uri])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hits=2" in out and "misses=0" in out
        assert (tmp_path / "cache.db").exists()

    @pytest.mark.parametrize("verb,spec_path", [
        (["scenario", "run"], _TINY), (["simulate"], _DYNAMICS)],
        ids=["scenario-run", "simulate"])
    def test_spec_cache_prints_its_summary(self, tmp_path, capsys, verb,
                                           spec_path):
        with open(spec_path) as fh:
            spec = json.load(fh)
        cache_dir = tmp_path / "cache"
        spec["execution"] = {"cache": str(cache_dir)}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(verb + [str(path)]) == 0
        first = capsys.readouterr().out
        assert "cache     : hits=0 misses=" in first
        assert main(verb + [str(path)]) == 0
        second = capsys.readouterr().out
        assert "cache     : hits=" in second and "misses=0" in second
        assert (cache_dir / "results.db").is_file()

    def test_scenario_run_timeout_flag_reports_timeouts(self, tmp_path,
                                                        capsys):
        import time as time_module

        from repro.api import register_algorithm, unregister_algorithm
        from repro.api import (AlgorithmSpec, FamilyGridSource, ScenarioSpec,
                               save_scenario)

        @register_algorithm("clislow", summary="sleeps (CLI timeout test)")
        def clislow(workflow, cluster, config=None):
            time_module.sleep(30.0)
            raise AssertionError("unreachable")

        spec = ScenarioSpec(
            name="cli-timeout",
            workflows=(FamilyGridSource(families=("blast",),
                                        sizes={"small": (24,)}),),
            algorithms=(AlgorithmSpec("clislow"),),
        )
        path = str(tmp_path / "slow.json")
        save_scenario(spec, path)
        try:
            rc = main(["scenario", "run", path, "--timeout", "0.2",
                       "--json", str(tmp_path / "out.jsonl")])
        finally:
            unregister_algorithm("clislow")
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 timed out" in out
        record = json.loads((tmp_path / "out.jsonl").read_text())
        assert record["failure"]["kind"] == "timeout"


_GOOD_SPEC = {"name": "bad-spec",
              "workflows": [{"kind": "families", "families": ["blast"],
                             "sizes": [20]}]}


def _bad_specs():
    typo = json.loads(json.dumps(_GOOD_SPEC))
    typo["workflows"][0]["sead"] = 1
    kind = json.loads(json.dumps(_GOOD_SPEC))
    kind["workflows"][0]["kind"] = "famlies"
    return {
        "thread-backend": json.dumps(dict(_GOOD_SPEC,
                                          execution={"backend": "thread"})),
        "bad-json": '{"name": "bad-spec", "workflows": [',
        "unknown-source-field": json.dumps(typo),
        "unknown-source-kind": json.dumps(kind),
        "unknown-top-level-field": json.dumps(dict(_GOOD_SPEC, dynamic={})),
        "missing-name": json.dumps({"workflows": _GOOD_SPEC["workflows"]}),
        "missing-workflows": json.dumps({"name": "bad-spec"}),
    }


#: what a bad spec's one error line must also say, where it matters
_BAD_SPEC_FRAGMENTS = {
    "thread-backend": "unknown execution backend 'thread'; "
                      "available: process, queue, serial",
}


class TestSpecLoadErrors:
    """A spec that does not load is one ``error:`` line and exit 2."""

    @pytest.mark.parametrize("verb", [["scenario", "run"], ["simulate"]])
    @pytest.mark.parametrize("case", sorted(_bad_specs()))
    def test_bad_spec_is_one_error_line(self, tmp_path, capsys, verb, case):
        path = tmp_path / f"{case}.json"
        path.write_text(_bad_specs()[case])
        assert main(verb + [str(path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"error: {path}: ")
        assert _BAD_SPEC_FRAGMENTS.get(case, "") in lines[0]
        assert "Traceback" not in captured.err

    def test_simulate_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.json"
        assert main(["simulate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_typo_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text(_bad_specs()["unknown-source-field"])
        assert main(["scenario", "run", str(path)]) == 2
        assert "unknown FamilyGridSource field(s) ['sead']" in \
            capsys.readouterr().err


class TestExecutionSettingErrors:
    """A bad backend setting or worker flag is one ``error:`` line, exit 2."""

    @staticmethod
    def _one_error_line(capsys, *fragments):
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ")
        for fragment in fragments:
            assert fragment in lines[0]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("backend,argv", [
        ("bogus", ["scenario", "run", "SPEC"]),
        ("bogus", ["experiment", "fig3_left", "-j", "2"]),
        ("thread", ["scenario", "run", "SPEC"]),
        ("thread", ["experiment", "fig3_left", "-j", "2"]),
    ], ids=["argv0", "argv1", "thread-run", "thread-experiment"])
    def test_bogus_backend_env(self, tmp_path, capsys, monkeypatch, backend,
                               argv):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        monkeypatch.setenv("REPRO_SCALE", "400")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_GOOD_SPEC))
        argv = [str(path) if a == "SPEC" else a for a in argv]
        assert main(argv) == 2
        self._one_error_line(capsys, f"unknown execution backend {backend!r}",
                             "available: process, queue, serial")

    @pytest.mark.parametrize("name,value", [
        ("REPRO_QUEUE_LEASE_S", "soon"),
        ("REPRO_QUEUE_LEASE_S", "-1"),
        ("REPRO_QUEUE_MAX_RECLAIMS", "x"),
        ("REPRO_QUEUE_DIR", "FILE"),
    ])
    def test_bad_queue_knob(self, tmp_path, capsys, monkeypatch, name,
                            value):
        if value == "FILE":  # a spool path that is a regular file
            value = str(tmp_path / "file")
            (tmp_path / "file").write_text("")
        monkeypatch.setenv(name, value)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_GOOD_SPEC))
        assert main(["scenario", "run", str(path), "--backend", "queue"]) == 2
        self._one_error_line(capsys, value)

    @pytest.mark.parametrize("lease", ["-1", "0", "nan"])
    def test_worker_non_positive_lease(self, tmp_path, capsys, lease):
        assert main(["worker", str(tmp_path / "spool"),
                     "--lease", lease]) == 2
        self._one_error_line(capsys, "--lease")
        assert not (tmp_path / "spool").exists()

    @pytest.mark.parametrize("flag,value", [
        ("--poll", "-1"), ("--poll", "nan"), ("--poll", "0"),
        ("--poll", "inf"), ("--max-idle", "nan"), ("--max-idle", "-1"),
    ])
    def test_worker_bad_poll_or_max_idle(self, tmp_path, capsys, flag,
                                         value):
        # refused before attaching: a sleep of -1/nan/inf raises inside
        # the claim loop, a zero poll busy-spins, a nan idle never expires.
        # The spool is drained already, so a worker that does attach
        # exits 0 at once instead of spinning or waiting forever.
        from repro.api.exec.queue import Spool

        spool = tmp_path / "spool"
        Spool(str(spool)).request_stop()
        before = sorted(os.walk(spool))
        assert main(["worker", str(spool), flag, value]) == 2
        self._one_error_line(capsys, flag, value)
        assert sorted(os.walk(spool)) == before  # no heartbeat, no claim

    @pytest.mark.parametrize("env,spool_is_file,fragment", [
        ({}, True, "is not a directory"),
        ({"REPRO_QUEUE_LEASE_S": "soon"}, False, "REPRO_QUEUE_LEASE_S='soon'"),
        ({"REPRO_QUEUE_LEASE_S": "-1"}, False,
         "lease_timeout_s must be positive, got -1.0"),
    ], ids=["spool-is-file", "lease-env-word", "lease-env-negative"])
    def test_worker_bad_spool_or_lease_env(self, tmp_path, capsys,
                                           monkeypatch, env, spool_is_file,
                                           fragment):
        # refused before attaching, with the parent's own message for a
        # bad REPRO_QUEUE_LEASE_S. A directory spool is drained already,
        # so a worker that does attach exits at once instead of waiting.
        from repro.api.exec.queue import Spool

        spool = tmp_path / "spool"
        if spool_is_file:
            spool.write_text("")
        else:
            Spool(str(spool)).request_stop()
        before = sorted(os.walk(spool))
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["worker", str(spool)]) == 2
        self._one_error_line(capsys, fragment)
        assert spool.is_file() if spool_is_file \
            else sorted(os.walk(spool)) == before

    def test_worker_lease_defaults_to_env(self, tmp_path, monkeypatch):
        """A worker started without --lease beats by the lease its parent
        judges by; an explicit --lease still wins."""
        import repro.api.exec as exec_module
        from repro.api.exec import NESTED_ENV
        leases = []
        monkeypatch.setattr(
            exec_module, "run_worker",
            lambda spool, **kw: leases.append(kw["lease_timeout_s"]) or 0)
        monkeypatch.setenv(NESTED_ENV, "")  # restored: the verb sets it
        monkeypatch.setenv("REPRO_QUEUE_LEASE_S", "0.5")
        assert main(["worker", str(tmp_path / "spool")]) == 0
        assert main(["worker", str(tmp_path / "spool"), "--lease", "3"]) == 0
        monkeypatch.delenv("REPRO_QUEUE_LEASE_S")
        assert main(["worker", str(tmp_path / "spool")]) == 0
        assert leases == [0.5, 3.0, 15.0]

    def test_worker_has_no_cache_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["worker", str(tmp_path / "spool"), "--cache",
                  f"sqlite://{tmp_path}/c.db"])
        assert exc.value.code == 2


    @pytest.mark.parametrize("env,flags,fragment,store_is_file", [
        ({"REPRO_BACKEND": "bogus"}, [], "bogus", False),
        ({"REPRO_QUEUE_LEASE_S": "soon"}, ["--backend", "queue"], "soon",
         False),
        ({}, [], "File exists", True),
        ({"REPRO_BACKEND": "thread"}, [],
         "'thread'; available: process, queue, serial", False),
        ({}, ["--backend", "thread"], "invalid choice: 'thread' (choose "
         "from 'process', 'queue', 'serial')", False),
        ({"REPRO_QUEUE_DIR": "FILE"}, ["--backend", "queue"],
         "is not a directory", False),
    ], ids=["backend-env", "queue-knob", "store-is-file", "thread-env",
            "thread-flag", "queue-dir-is-file"])
    def test_serve_refuses_bad_setting_before_binding(self, tmp_path, env,
                                                      flags, fragment,
                                                      store_is_file):
        # in a subprocess with a timeout: a server that accepts the bad
        # setting binds and serves forever instead of exiting
        if store_is_file:
            (tmp_path / "store").write_text("")
        (tmp_path / "file").write_text("")
        env = {k: str(tmp_path / "file") if v == "FILE" else v
               for k, v in env.items()}
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src), **env)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store")] + flags,
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        lines = proc.stderr.strip().splitlines()
        if "invalid choice" in fragment:
            # argparse refuses a flag value: its usage, then one line
            # "repro serve: error: ..."
            assert lines[0].startswith("usage: "), proc.stderr
            lines = [line.split("repro serve: ", 1)[-1] for line in lines
                     if line.startswith("repro serve: error: ")]
        assert len(lines) == 1 and lines[0].startswith("error: "), \
            proc.stderr
        assert fragment in lines[0]
        assert "listening" not in proc.stdout
        assert (tmp_path / "store").is_file() if store_is_file \
            else not (tmp_path / "store").exists()


class TestCacheUriErrors:
    """A bad cache URI is one ``error:`` line and exit 2 on every verb."""

    @pytest.mark.parametrize("argv,fragment", [
        (["cache", "stats", "bogus://x"], "unknown cache URI scheme"),
        (["cache", "stats", "sqlite://"], "empty location"),
        (["cache", "stats", "jsonl://x"], "unknown cache URI scheme"),
        (["scenario", "run", _TINY, "--cache", "bogus://x"],
         "unknown cache URI scheme"),
        (["scenario", "run", _TINY, "--cache", "jsonl://x"],
         "sqlite:///PATH.db or a plain directory path"),
        (["simulate", _DYNAMICS, "--cache", "bogus://x"],
         "unknown cache URI scheme"),
        (["serve", "--store", "STORE", "--cache", "bogus://x"],
         "unknown cache URI scheme"),
        (["cache", "stats", "typo-dir"], "no result cache at typo-dir"),
        (["cache", "stats", "FILE"], "no result cache at"),
        (["cache", "stats", "sqlite://FILE"], "file is not a database"),
        (["scenario", "run", _TINY, "--cache", "FILE"], "File exists"),
    ], ids=["stats-bogus", "stats-empty-sqlite", "stats-jsonl", "run-bogus",
            "run-jsonl", "simulate-bogus", "serve-bogus", "stats-missing",
            "stats-file", "stats-not-a-db", "run-file"])
    def test_bad_uri_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                       argv, fragment):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        # FILE is an existing regular file, neither a directory nor a
        # database
        existing = tmp_path / "file"
        existing.write_text("not a database\n")
        argv = [a.replace("STORE", str(tmp_path / "store"))
                .replace("FILE", str(existing)) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: ") and fragment in lines[0]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [existing]
        assert existing.read_text() == "not a database\n"

    def test_bad_spec_cache_is_one_error_line(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(_GOOD_SPEC,
                                        execution={"cache": "bogus://x"})))
        assert main(["scenario", "run", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip().splitlines() == [
            "error: unknown cache URI scheme 'bogus://'; valid: "
            "sqlite:///PATH.db or a plain directory path"]
        assert captured.out == ""


class TestScenarioDiff:
    def _run_to_jsonl(self, tmp_path, name, mutate=None):
        from repro.api import (AlgorithmSpec, FamilyGridSource, ScenarioSpec,
                               run_scenario)
        spec = ScenarioSpec(
            name="diff-tiny",
            workflows=(FamilyGridSource(families=("blast", "bwa"),
                                        sizes={"small": (24,)}),),
            algorithms=(AlgorithmSpec("daghetmem"),),
        )
        records = [r.to_dict() for r in run_scenario(spec)]
        if mutate is not None:
            mutate(records)
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(path)

    def test_identical_runs_agree(self, tmp_path, capsys):
        a = self._run_to_jsonl(tmp_path, "a.jsonl")
        b = self._run_to_jsonl(tmp_path, "b.jsonl",
                               mutate=lambda rs: [r.update(runtime=1e9)
                                                  for r in rs])
        rc = main(["scenario", "diff", a, b])
        assert rc == 0  # runtime deltas are not differences
        out = capsys.readouterr().out
        assert "matched   : 2" in out
        assert "runs agree" in out

    def test_makespan_delta_detected(self, tmp_path, capsys):
        a = self._run_to_jsonl(tmp_path, "a.jsonl")

        def slower(records):
            records[0]["makespan"] *= 1.5

        b = self._run_to_jsonl(tmp_path, "b.jsonl", mutate=slower)
        rc = main(["scenario", "diff", a, b])
        assert rc == 1
        out = capsys.readouterr().out
        assert "makespan deltas (1):" in out and "+50.000%" in out

    def test_new_failure_and_missing_detected(self, tmp_path, capsys):
        a = self._run_to_jsonl(tmp_path, "a.jsonl")

        def broken(records):
            records[0]["failure"] = {"kind": "NoFeasibleMappingError",
                                     "message": "x", "unplaced_tasks": 3}
            records[0]["makespan"] = None
            del records[1]

        b = self._run_to_jsonl(tmp_path, "b.jsonl", mutate=broken)
        rc = main(["scenario", "diff", a, b])
        assert rc == 1
        out = capsys.readouterr().out
        assert "new failures" in out and "NoFeasibleMappingError" in out
        assert "only in" in out and "missing from" in out

    def test_conflicting_duplicates_are_not_agreement(self, tmp_path,
                                                      capsys):
        """Two records the identity key cannot tell apart (same algorithm,
        two configs, no distinguishing tag) with different outcomes must
        fail the gate, not silently collapse."""
        def clone_with_other_makespan(records):
            twin = dict(records[0])
            twin["makespan"] = (twin["makespan"] or 0) * 2
            records.append(twin)

        a = self._run_to_jsonl(tmp_path, "a.jsonl",
                               mutate=clone_with_other_makespan)
        b = self._run_to_jsonl(tmp_path, "b.jsonl",
                               mutate=clone_with_other_makespan)
        rc = main(["scenario", "diff", a, b])
        assert rc == 1
        out = capsys.readouterr().out
        assert "ambiguous records" in out and "distinguishing tag" in out

    def test_changed_failure_kind_detected(self, tmp_path, capsys):
        def fail(kind):
            def mutate(records):
                records[0]["failure"] = {"kind": kind, "message": "x",
                                         "unplaced_tasks": 0}
                records[0]["makespan"] = None
            return mutate

        a = self._run_to_jsonl(tmp_path, "a.jsonl",
                               mutate=fail("NoFeasibleMappingError"))
        b = self._run_to_jsonl(tmp_path, "b.jsonl", mutate=fail("timeout"))
        rc = main(["scenario", "diff", a, b])
        assert rc == 1  # infeasible -> timeout is not agreement
        out = capsys.readouterr().out
        assert "failure kind changed" in out
        assert "NoFeasibleMappingError -> timeout" in out

    def test_tolerance_flag(self, tmp_path, capsys):
        a = self._run_to_jsonl(tmp_path, "a.jsonl")

        def nudge(records):
            for r in records:
                r["makespan"] *= 1.0001

        b = self._run_to_jsonl(tmp_path, "b.jsonl", mutate=nudge)
        assert main(["scenario", "diff", a, b]) == 1
        capsys.readouterr()
        assert main(["scenario", "diff", a, b, "--tolerance", "0.01"]) == 0


class TestPolicyOverrideMerge:
    def test_retries_flag_keeps_spec_timeout(self, tmp_path, monkeypatch):
        """--retries alone must not discard the spec's hang guard."""
        from repro.api import (AlgorithmSpec, ExecutionPolicy, ExecutionSpec,
                               FamilyGridSource, ScenarioSpec, save_scenario)
        import repro.cli as cli_module

        spec = ScenarioSpec(
            name="merge-test",
            workflows=(FamilyGridSource(families=("blast",),
                                        sizes={"small": (24,)}),),
            algorithms=(AlgorithmSpec("daghetmem"),),
            execution=ExecutionSpec(policy=ExecutionPolicy(
                timeout_s=300.0, retry_backoff=0.5, on_timeout="requeue")),
        )
        path = str(tmp_path / "spec.json")
        save_scenario(spec, path)

        seen = {}
        real = cli_module.run_scenario

        def spy(spec, **kwargs):
            seen["policy"] = spec.execution.policy
            return real(spec, **kwargs)

        monkeypatch.setattr(cli_module, "run_scenario", spy)
        assert main(["scenario", "run", path, "--retries", "3"]) == 0
        assert seen["policy"] == ExecutionPolicy(
            timeout_s=300.0, retries=3, retry_backoff=0.5,
            on_timeout="requeue")
        # an explicit 0 is an override too: it switches retries off
        assert main(["scenario", "run", path, "--retries", "0"]) == 0
        assert seen["policy"].retries == 0
        assert seen["policy"].timeout_s == 300.0


class TestScheduleTimeout:
    def test_schedule_timeout_exit_code(self, capsys):
        import time as time_module

        from repro.api import register_algorithm, unregister_algorithm

        @register_algorithm("schedslow", summary="sleeps (CLI timeout test)")
        def schedslow(workflow, cluster, config=None):
            time_module.sleep(30.0)
            raise AssertionError("unreachable")

        try:
            rc = main(["schedule", "--family", "blast", "-n", "24",
                       "--algorithm", "schedslow", "--timeout", "0.2"])
        finally:
            unregister_algorithm("schedslow")
        assert rc == 3
        assert "timed out" in capsys.readouterr().err
