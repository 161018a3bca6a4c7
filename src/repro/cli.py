"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``    build a workflow (family generator or real-world model)
                and write it to JSON/DOT;
``ingest``      import an external workflow description — WfCommons
                JSON, Pegasus DAX, GraphViz DOT, edge-list/CSV, workflow
                templates, or canonical JSON — through the shared
                detect → import → normalize gate; ``--stats`` prints the
                structural profile, ``--validate`` just checks (exit 1
                on errors), ``-o`` writes canonical JSON;
``schedule``    map a workflow onto a cluster with DagHetMem/DagHetPart,
                print the mapping summary, optionally a Gantt chart or a
                JSON schedule;
``experiment``  regenerate one of the paper's tables/figures;
``scenario``    run a declarative scenario spec (JSON) — the cross-product
                of workflow sources x platforms x algorithms — streamed
                through the batch façade on a selectable execution backend
                (``--backend``) with an optional
                result cache (``--cache sqlite:///path.db`` or a
                directory), so re-runs and crashed sweeps resume for
                free; ``scenario diff`` compares two result JSONL dumps;
``simulate``    run a scenario spec whose ``dynamics`` block (job
                arrivals, processor churn, runtime inflation) replays
                every plan through the event-driven simulator — the same
                run as ``scenario run`` — and sum up makespan
                degradation, migrations, and reaction latency;
``serve``       run the asyncio HTTP scheduling service (durable job
                store, live stats, graceful drain);
``worker``      attach a work-queue worker to a spool directory: claim
                requests spooled by the ``queue`` execution backend
                (atomic rename), solve them under their policies, land
                results in ``done/``, heartbeat a lease so a killed
                worker's claims are re-enqueued; run any number of these
                — on any machine sharing the filesystem — against one
                spool (the parent alone reads and writes the result
                cache);
``cache``       result-cache utilities (``cache stats URI`` prints kind,
                location, and entry count — the same accessor the
                service's ``/v1/stats`` uses);
``info``        print cluster presets (Tables 2-3) and corpus sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sqlite3
import sys
from types import SimpleNamespace
from typing import List, Optional

from repro.api import (
    ExecutionPolicy,
    ScheduleRequest,
    available_algorithms,
    available_backends,
    create_backend,
    diff_results,
    format_diff,
    load_result_lines,
    load_scenario,
    open_cache,
    route,
    run_scenario,
    solve_with_policy,
)
from repro.api.exec.queue import Spool, lease_from_env
from repro.core.heuristic import DagHetPartConfig
from repro.experiments import figures
from repro.experiments.instances import synthetic_sizes
from repro.experiments.report import format_table
from repro.generators.families import WORKFLOW_FAMILIES, generate_workflow
from repro.generators.realworld import REAL_WORKFLOW_NAMES, generate_real_workflow
from repro.platform.presets import CLUSTER_PRESETS, cluster_by_name
from repro.workflow.io import save_workflow_json, workflow_to_dot


def _cli_config(algorithm: str, k_strategy: str):
    """Build the config the CLI can express for ``algorithm``.

    Any registered config dataclass with a ``k_prime_strategy`` field
    (DagHetPartConfig, AnnealConfig, future sweep-based configs) receives
    the ``--k-strategy`` choice; algorithms with other configs — or none —
    run on their defaults.
    """
    import dataclasses

    from repro.api import get_algorithm

    config_cls = get_algorithm(algorithm).config_cls
    if config_cls is None:
        return None
    if any(f.name == "k_prime_strategy" for f in dataclasses.fields(config_cls)):
        return config_cls(k_prime_strategy=k_strategy)
    return None


def _load_workflow(args) -> "Workflow":
    if args.workflow:
        from repro.ingest import ingest_path
        from repro.utils.errors import IngestError

        try:
            return ingest_path(args.workflow)
        except IngestError as exc:
            raise SystemExit(f"error: {exc}")
    if args.family in REAL_WORKFLOW_NAMES:
        return generate_real_workflow(args.family, seed=args.seed)
    if args.family not in WORKFLOW_FAMILIES:
        raise SystemExit(
            f"unknown workflow family {args.family!r}; valid families: "
            f"{', '.join(WORKFLOW_FAMILIES)}; real-world models: "
            f"{', '.join(REAL_WORKFLOW_NAMES)}")
    return generate_workflow(args.family, args.n_tasks, seed=args.seed)


def _add_workflow_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workflow", help="load a workflow from .json or .dot")
    p.add_argument("--family", default="blast",
                   help=f"generator family ({', '.join(WORKFLOW_FAMILIES)}) "
                        f"or real-world model ({', '.join(REAL_WORKFLOW_NAMES)})")
    p.add_argument("-n", "--n-tasks", type=int, default=200,
                   help="approximate task count for generated workflows")
    p.add_argument("--seed", type=int, default=0)


def cmd_generate(args) -> int:
    """``repro generate``: write a workflow to JSON or DOT."""
    wf = _load_workflow(args)
    if args.output.endswith(".dot"):
        with open(args.output, "w") as fh:
            fh.write(workflow_to_dot(wf))
    else:
        save_workflow_json(wf, args.output)
    print(f"wrote {wf.n_tasks} tasks / {wf.n_edges} edges to {args.output}")
    return 0


def cmd_schedule(args) -> int:
    """``repro schedule``: map a workflow and print the summary."""
    from repro.api import get_algorithm
    wf = _load_workflow(args)
    cluster = cluster_by_name(args.cluster, bandwidth=args.beta)
    # memory-oblivious algorithms (heftlist) produce mappings that may
    # exceed processor memories by design; validating those would reject
    # the very thing the baseline is meant to show
    oblivious = "memory-oblivious" in get_algorithm(args.algorithm).capabilities
    policy = ExecutionPolicy(timeout_s=args.timeout) \
        if args.timeout is not None else None
    result = solve_with_policy(ScheduleRequest(
        workflow=wf,
        cluster=cluster,
        algorithm=args.algorithm,
        config=_cli_config(args.algorithm, args.k_strategy),
        scale_memory=args.scale_memory,
        validate=not oblivious,
        policy=policy,
    ))
    if result.failure is not None:
        if result.failure.kind == "timeout":
            print(f"timed out: {result.failure.message}", file=sys.stderr)
            return 3
        print(f"no feasible mapping: {result.failure.message}", file=sys.stderr)
        return 2
    mapping = result.mapping
    print(f"algorithm : {result.algorithm}")
    print(f"workflow  : {wf.name} ({wf.n_tasks} tasks)")
    print(f"cluster   : {result.cluster} (k={cluster.k}, beta={result.bandwidth:g})")
    print(f"makespan  : {result.makespan:.2f}")
    print(f"blocks    : {result.n_blocks}")
    print(f"runtime   : {result.runtime:.2f}s")
    if result.k_prime is not None:
        feasible = sum(1 for p in result.sweep if p.status == "ok")
        print(f"k'        : {result.k_prime} "
              f"({feasible}/{len(result.sweep)} candidates feasible)")
    seed_mu = result.extra.get("anneal_seed_makespan")
    if seed_mu is not None:
        print(f"refined   : {seed_mu:.2f} -> {result.makespan:.2f} "
              f"({result.extra.get('anneal_accepted', 0)} accepted moves/swaps)")
    winner = result.extra.get("portfolio_winner")
    if winner is not None:
        print(f"winner    : {winner} "
              f"(portfolio: {result.extra.get('portfolio_members', '')})")
    if args.gantt:
        from repro.core.simulate import gantt_text
        print()
        print(gantt_text(mapping))
    if args.json:
        from repro.core.simulate import schedule_to_dict
        with open(args.json, "w") as fh:
            json.dump(schedule_to_dict(mapping), fh, indent=1)
        print(f"schedule written to {args.json}")
    return 0


def cmd_experiment(args) -> int:
    """``repro experiment``: regenerate one table/figure."""
    driver = figures.EXPERIMENTS[args.name]
    kwargs = {}
    if args.name not in ("table2", "table3"):
        if _checked(synthetic_sizes) is False \
                or _checked(lambda: create_backend(route())) is False:
            return 2
        if args.families:
            kwargs["families"] = tuple(args.families.split(","))
        kwargs["seed"] = args.seed
        kwargs["config"] = DagHetPartConfig(k_prime_strategy=args.k_strategy)
        kwargs["parallel"] = args.parallel
        if args.progress:
            kwargs["progress"] = lambda msg: print(f"  {msg}", file=sys.stderr)
    result = driver(**kwargs)
    print(format_table(result["rows"], title=args.name))
    if args.plot:
        from repro.experiments.plotting import plot_rows
        chart = plot_rows(args.name, result["rows"])
        if chart:
            print()
            print(chart)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result["rows"], fh, indent=1)
        print(f"rows written to {args.json}")
    return 0


def _checked(make, *args):
    """``make(*args)``, or False after one ``error:`` line when it rejects
    a setting (``REPRO_SCALE``, the batch's backend and its knobs) or a
    location that cannot be opened (a bad cache URI, a ``--store`` that
    is a regular file, a file that is not a database, ...)."""
    try:
        return make(*args)
    except (ValueError, OSError, sqlite3.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False


def _open_cache(uri):
    """The cache ``uri`` names, open (None without a URI), or False after
    one ``error:`` line for a bad or unopenable URI."""
    return None if uri is None else _checked(open_cache, uri)


def _load_spec(path: str):
    """The spec at ``path``, or None after one ``error: <path>: ...`` line.

    Unreadable files, bad JSON, unknown fields or kinds and missing
    required fields are input errors, reported without a traceback.
    """
    try:
        return load_scenario(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


@contextlib.contextmanager
def _result_stream(args, spec, header, label):
    """What a scenario verb's results go to: the cache (``--cache``, else
    the spec's ``execution.cache``), ``--progress`` and ``--json``, after
    the ``scenario`` line and ``header`` lines.

    Yields ``stream``: pass ``stream.cache`` and ``stream.progress`` (a
    hook naming each result ``label(result)``) to the run and each result
    to ``stream.write``. On exit the file and the cache are closed, and
    ``stream.counts`` holds the cache's counters (None without a cache).
    Yields None instead when the cache URI is bad.
    """
    execution = spec.execution
    cache = _open_cache(args.cache if args.cache is not None
                        else execution.cache if execution else None)
    if cache is False:
        yield None
        return
    total = spec.size()
    print(f"scenario  : {spec.name}" +
          (f" — {spec.description}" if spec.description else ""))
    print("\n".join(header))

    def progress(index, request, result):
        status = "ok" if result.success else "FAILED"
        print(f"  [{index + 1}/{total}] {label(result)}: {status}",
              file=sys.stderr)

    with (cache if cache is not None else contextlib.nullcontext()), \
            (open(args.json, "w") if args.json
             else contextlib.nullcontext()) as out_fh:
        stream = SimpleNamespace(
            cache=cache, progress=progress if args.progress else None,
            counts=None,
            write=lambda r: out_fh and out_fh.write(r.to_json() + "\n"))
        yield stream
        if cache is not None:
            stats = cache.stats()
            stream.counts = (f"hits={stats['hits']} misses={stats['misses']} "
                             f"entries={stats['entries']}")


def cmd_scenario_run(args) -> int:
    """``repro scenario run``: execute a spec JSON, streamed and cached."""
    import dataclasses

    from repro.api.scenario import ExecutionSpec

    spec = _load_spec(args.spec)
    if spec is None:
        return 2
    if args.timeout is not None or args.retries is not None:
        # CLI knobs override only the fields they name (including to 0 —
        # "--retries 0" switches a spec's retries off); the rest of the
        # spec's policy (its timeout, backoff, on_timeout) is kept
        base = spec.execution or ExecutionSpec()
        overrides = {}
        if args.timeout is not None:
            overrides["timeout_s"] = args.timeout
        if args.retries is not None:
            overrides["retries"] = args.retries
        policy = dataclasses.replace(base.policy or ExecutionPolicy(),
                                     **overrides)
        spec = dataclasses.replace(
            spec, execution=dataclasses.replace(base, policy=policy))
    backend = args.backend or (spec.execution.backend
                               if spec.execution else None)
    if _checked(lambda: create_backend(route(backend=backend))) is False:
        return 2
    total = spec.size()
    n_ok = n_failed = n_timeout = 0
    makespans = []
    with _result_stream(
            args, spec,
            [f"requests  : {total} "
             f"({sum(src.count() for src in spec.workflows)} workflow(s) x "
             f"{sum(a.count() for a in spec.platforms)} platform point(s) x "
             f"{len(spec.algorithms)} algorithm(s))"],
            lambda r: f"{r.workflow} / {r.algorithm} on {r.cluster}") as out:
        if out is None:
            return 2
        for result in run_scenario(spec, parallel=args.parallel,
                                   cache=out.cache, progress=out.progress,
                                   backend=backend):
            if result.success:
                n_ok += 1
                makespans.append(result.makespan)
            elif result.failure.kind == "timeout":
                n_timeout += 1
            else:
                n_failed += 1
            out.write(result)

    timeouts = f", {n_timeout} timed out" if n_timeout else ""
    print(f"scheduled : {n_ok}/{total} ({n_failed} infeasible{timeouts})")
    if makespans:
        print(f"makespan  : min={min(makespans):.2f} max={max(makespans):.2f}")
    if out.counts is not None:
        print(f"cache     : {out.counts} ({out.cache.path})")
    if args.json:
        print(f"results written to {args.json} (one envelope per line)")
    return 0


def cmd_scenario_diff(args) -> int:
    """``repro scenario diff``: compare two result JSONL dumps.

    Exit code 0 when the runs agree (same requests, same outcomes, same
    makespans within ``--tolerance``), 1 when they differ — usable as a
    CI regression gate.
    """
    diff = diff_results(load_result_lines(args.a), load_result_lines(args.b),
                        tolerance=args.tolerance)
    print(format_diff(diff, a_name=args.a, b_name=args.b))
    return 0 if diff.clean else 1


def cmd_simulate(args) -> int:
    """``repro simulate``: dynamic replay of a scenario.

    Runs a ScenarioSpec (whose ``dynamics`` block must be set) through
    :func:`run_scenario`, exactly as ``repro scenario run`` does, with
    ``--policy`` overriding the block's reaction policy, and sums up the
    replays' robustness metrics. Exit code 0 on success, 2 when every
    simulated request failed or the spec does not load.
    """
    import dataclasses

    spec = _load_spec(args.spec)
    if spec is None:
        return 2
    if spec.dynamics is None:
        print(f"{args.spec}: scenario has no dynamics block; "
              f"use 'repro scenario run' for static sweeps", file=sys.stderr)
        return 2
    if args.policy is not None:
        spec = dataclasses.replace(spec, dynamics=dataclasses.replace(
            spec.dynamics, policy=args.policy))
    policy = spec.dynamics.policy
    backend = spec.execution.backend if spec.execution else None
    if _checked(lambda: create_backend(route(backend=backend))) is False:
        return 2
    total = spec.size()
    n_ok = n_failed = 0
    event_dump = []
    degradations, migrations, full_passes, react_total = [], 0, 0, 0.0
    events_seen = 0
    with _result_stream(args, spec,
                        [f"requests  : {total}", f"policy    : {policy}"],
                        lambda r: f"{r.workflow} / {r.algorithm}") as out:
        if out is None:
            return 2
        for result in run_scenario(spec, cache=out.cache,
                                   progress=out.progress):
            if result.success:
                n_ok += 1
                extra = result.extra
                degradations.append(extra.get("sim_degradation_pct", 0.0))
                migrations += extra.get("sim_task_migrations", 0)
                full_passes += extra.get("sim_full_passes", 0)
                react_total += extra.get("sim_react_total_s", 0.0)
                events_seen += extra.get("sim_events", 0)
            else:
                n_failed += 1
            out.write(result)
            if args.events_json:
                event_dump.append({
                    "workflow": result.workflow,
                    "algorithm": result.algorithm,
                    "tags": dict(result.tags),
                    "events": result.extra.get("sim_event_log", []),
                })

    print(f"simulated : {n_ok}/{total} ({n_failed} failed)")
    print(f"events    : {events_seen}")
    if degradations:
        mean = sum(degradations) / len(degradations)
        print(f"degradation: mean={mean:+.1f}% max={max(degradations):+.1f}%")
    print(f"migrations: {migrations}")
    print(f"full passes: {full_passes}")
    print(f"react     : total={react_total:.3f}s")
    if out.counts is not None:
        print(f"cache     : {out.counts}")
    if args.events_json:
        with open(args.events_json, "w", encoding="utf-8") as fh:
            json.dump(event_dump, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"event log written to {args.events_json}")
    if args.json:
        print(f"results written to {args.json} (one envelope per line)")
    return 0 if n_ok or total == 0 else 2


def cmd_serve(args) -> int:
    """``repro serve``: run the HTTP scheduling service.

    Blocks until SIGTERM/SIGINT or ``POST /v1/shutdown`` (graceful:
    in-flight jobs drain, new submissions get 503).
    """
    import asyncio

    from repro.service import JobStore, serve

    if _checked(lambda: create_backend(route(backend=args.backend))) \
            is False:
        return 2
    cache = _open_cache(args.cache)
    if cache is False:
        return 2
    try:
        with cache if cache is not None else contextlib.nullcontext():
            # a bad --store is one error: line too, before the server binds
            if _checked(lambda: JobStore(args.store).close()) is False:
                return 2
            asyncio.run(serve(
                host=args.host, port=args.port, store_dir=args.store,
                cache=cache, backend=args.backend, workers=args.workers,
                parallel=args.parallel if args.parallel is not None else 0))
    except KeyboardInterrupt:
        pass  # Ctrl-C before the signal handler installs: quiet exit
    return 0


def cmd_worker(args) -> int:
    """``repro worker``: serve a queue-backend spool until stopped."""
    from repro.api.exec import NESTED_ENV, run_worker

    # every comparison with nan is false, so each check refuses nan; a
    # zero poll would busy-spin a core, and a nan --max-idle would never
    # idle out (`elapsed > nan` is false too)
    for flag, value, ok, what in (
            ("--lease", args.lease, args.lease is None or args.lease > 0,
             "a positive"),
            ("--poll", args.poll, 0 < args.poll < math.inf,
             "a positive finite"),
            ("--max-idle", args.max_idle,
             args.max_idle is None or args.max_idle >= 0, "a non-negative")):
        if not ok:
            print(f"error: {flag} must be {what} number of seconds, "
                  f"got {value:g}", file=sys.stderr)
            return 2
    # without --lease, the worker beats by the lease its parent judges
    # by; a bad setting or a spool that is a regular file is refused here
    lease = args.lease if args.lease is not None else _checked(lease_from_env)
    if lease is False or _checked(Spool, args.spool, lease) is False:
        return 2
    # a batch issued *inside* a worker (portfolio-style algorithms that
    # call solve_batch) must run serial, not spool into a new queue or
    # fork pools from a process that is already one worker of many
    os.environ[NESTED_ENV] = "1"
    print(f"worker    : attaching to {args.spool}", file=sys.stderr)
    completed = run_worker(
        args.spool, worker_id=args.id, poll_s=args.poll,
        lease_timeout_s=lease, max_idle_s=args.max_idle, once=args.once)
    print(f"worker    : done ({completed} request(s) completed)",
          file=sys.stderr)
    return 0


def cmd_cache_stats(args) -> int:
    """``repro cache stats``: describe a result cache by URI."""
    from repro.api.cache import cache_path, describe_cache

    def open_existing(uri):
        # a read-only verb: a mistyped location must not become a cache
        path = cache_path(uri)
        if not os.path.isfile(path):
            raise ValueError(f"no result cache at {path}")
        return open_cache(uri)

    cache = _checked(open_existing, args.uri)
    if cache is False:
        return 2
    with cache:
        info = describe_cache(cache)
    print(f"kind      : {info['kind']}")
    print(f"location  : {info['location']}")
    print(f"entries   : {info['entries']}")
    return 0


def cmd_ingest(args) -> int:
    """``repro ingest``: import an external workflow description."""
    from repro.ingest import (
        NormalizeOptions,
        detect_format,
        get_format,
        ingest_text,
        workflow_fingerprint,
        workflow_stats,
    )
    from repro.utils.errors import IngestError

    data = None
    if args.data:
        try:
            with open(args.data, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read data file {args.data}: {exc}",
                  file=sys.stderr)
            return 1
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    try:
        info = (get_format(args.format) if args.format
                else detect_format(text, path=args.path))
        options = NormalizeOptions(work_scale=args.work_scale,
                                   cost_scale=args.cost_scale,
                                   memory_scale=args.memory_scale)
        wf = ingest_text(text, fmt=info.name, name=args.name,
                         path=args.path, data=data, options=options)
    except (IngestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.validate:
        print(f"OK: {args.path} ({info.name}, {wf.n_tasks} tasks, "
              f"{wf.n_edges} edges)")
        return 0
    if args.stats:
        rows = workflow_stats(wf)
        rows["format"] = info.name
        rows["fingerprint"] = workflow_fingerprint(wf)
        width = max(len(k) for k in rows)
        for key, value in rows.items():
            shown = f"{value:g}" if isinstance(value, float) else value
            print(f"{key:<{width}} : {shown}")
        return 0
    if args.output:
        save_workflow_json(wf, args.output)
        print(f"{args.output}: {wf.name} ({info.name}, {wf.n_tasks} tasks, "
              f"{wf.n_edges} edges)")
        return 0
    print(f"{wf.name}: format={info.name} tasks={wf.n_tasks} "
          f"edges={wf.n_edges} fingerprint={workflow_fingerprint(wf)}")
    return 0


def cmd_info(args) -> int:
    """``repro info``: print presets and corpus configuration."""
    if _checked(synthetic_sizes) is False:
        return 2
    rows2 = figures.table2()["rows"]
    print(format_table(rows2, title="Table 2: default machine kinds"))
    print()
    rows3 = figures.table3()["rows"]
    print(format_table(rows3, title="Table 3: MoreHet / LessHet variants"))
    print()
    print(f"cluster presets: {', '.join(sorted(CLUSTER_PRESETS))}")
    print(f"workflow families: {', '.join(WORKFLOW_FAMILIES)}")
    print(f"real-world models: {', '.join(REAL_WORKFLOW_NAMES)}")
    print(f"synthetic sizes (current scale): {synthetic_sizes()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory-constrained workflow mapping onto heterogeneous "
                    "platforms (ICPP 2024 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a workflow file")
    _add_workflow_args(p)
    p.add_argument("-o", "--output", required=True, help=".json or .dot path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("schedule", help="map a workflow onto a cluster")
    _add_workflow_args(p)
    p.add_argument("--cluster", default="default",
                   choices=sorted(CLUSTER_PRESETS))
    p.add_argument("--beta", type=float, default=1.0, help="bandwidth")
    p.add_argument("--algorithm", default="daghetpart",
                   choices=sorted(available_algorithms()))
    p.add_argument("--k-strategy", default="auto",
                   choices=["auto", "all", "doubling"])
    p.add_argument("--no-scale-memory", dest="scale_memory",
                   action="store_false",
                   help="disable the paper's proportional memory scaling")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="wall-clock budget in seconds; exceeding it reports "
                        "a structured timeout instead of hanging")
    p.add_argument("--gantt", action="store_true",
                   help="print an ASCII Gantt chart of the schedule")
    p.add_argument("--json", help="write the task-level schedule to a file")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("experiment", help="regenerate a table/figure")
    p.add_argument("name", choices=sorted(figures.EXPERIMENTS))
    p.add_argument("--families", help="comma-separated family subset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-strategy", default="doubling",
                   choices=["auto", "all", "doubling"])
    p.add_argument("-j", "--parallel", type=int, default=None, metavar="N",
                   help="run corpus instances over N worker processes "
                        "(-1 = all CPUs; default: $REPRO_PARALLEL or serial)")
    p.add_argument("--progress", action="store_true")
    p.add_argument("--json", help="write the rows to a file")
    p.add_argument("--plot", action="store_true",
                   help="render the series as an ASCII chart")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("scenario", help="declarative scenario specs")
    ssub = p.add_subparsers(dest="scenario_command", required=True)
    pr = ssub.add_parser("run", help="run a ScenarioSpec JSON file")
    pr.add_argument("spec", help="path to the scenario spec (.json)")
    pr.add_argument("-j", "--parallel", "--workers", type=int, default=None,
                    metavar="N",
                    help="fan requests out over N workers "
                         "(-1 = all CPUs; default: $REPRO_PARALLEL or serial)")
    pr.add_argument("--backend", choices=sorted(available_backends()),
                    default=None,
                    help="execution backend (default: $REPRO_BACKEND, "
                         "else routed from the worker count); "
                         "'queue' spools through a shared directory served "
                         "by N spawned (or external `repro worker`) "
                         "processes")
    pr.add_argument("--timeout", type=float, default=None, metavar="S",
                    help="per-request wall-clock budget; exceeded requests "
                         "report FailureInfo(kind='timeout')")
    pr.add_argument("--retries", type=int, default=None, metavar="N",
                    help="extra attempts per failed request (0 switches a "
                         "spec's retries off; default: the spec's policy)")
    pr.add_argument("--cache", metavar="URI",
                    help="result cache URI: sqlite:///path.db, or a plain "
                         "directory DIR (DIR/results.db); previously "
                         "computed requests are served from it and new "
                         "results stored, so re-runs and interrupted sweeps "
                         "resume (default: the spec's execution.cache)")
    pr.add_argument("--json", metavar="FILE",
                    help="write result envelopes to FILE as JSONL (streamed)")
    pr.add_argument("--progress", action="store_true")
    pr.set_defaults(func=cmd_scenario_run)

    pd = ssub.add_parser(
        "diff", help="compare two result JSONL dumps (exit 1 on differences)")
    pd.add_argument("a", help="baseline results (.jsonl)")
    pd.add_argument("b", help="candidate results (.jsonl)")
    pd.add_argument("--tolerance", type=float, default=1e-9,
                    help="relative makespan tolerance (default 1e-9)")
    pd.set_defaults(func=cmd_scenario_diff)

    p = sub.add_parser(
        "simulate",
        help="replay a dynamic scenario")
    p.add_argument("spec",
                   help="scenario spec (.json) with a dynamics block")
    p.add_argument("--policy", choices=["static", "warmstart", "resolve"],
                   default=None,
                   help="override the spec's reaction policy")
    p.add_argument("--cache", metavar="URI",
                   help="result cache (sqlite:///path.db or a directory; "
                        "default: the spec's execution.cache)")
    p.add_argument("--json", metavar="FILE",
                   help="write result envelopes to FILE as JSONL")
    p.add_argument("--events-json", metavar="FILE",
                   help="write the resolved per-request event logs "
                        "(deterministic: byte-identical across runs)")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "serve", help="run the HTTP scheduling service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--store", metavar="DIR", default="service-store",
                   help="durable job-store directory (DIR/jobs.db; "
                        "restart resumes queued jobs and reports crashed "
                        "ones)")
    p.add_argument("--cache", metavar="URI", default=None,
                   help="result cache shared by all jobs "
                        "(sqlite:///path.db or a directory)")
    p.add_argument("--backend", choices=sorted(available_backends()),
                   default=None,
                   help="execution backend per job (default: routed like "
                        "the offline batch façade)")
    p.add_argument("--workers", type=int, default=2, metavar="N",
                   help="concurrent jobs (each fans its requests out per "
                        "--parallel)")
    p.add_argument("-j", "--parallel", type=int, default=None, metavar="N",
                   help="workers per job for batch fan-out "
                        "(-1 = all CPUs; default: $REPRO_PARALLEL or serial)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="serve a queue-backend spool directory (claim, solve, land)")
    p.add_argument("spool", help="spool directory shared with the parent "
                                 "(its REPRO_QUEUE_DIR)")
    p.add_argument("--id", default=None, metavar="NAME",
                   help="worker id (default: derived from pid); claims live "
                        "under claimed/NAME/ and the lease is NAME.lease")
    p.add_argument("--lease", type=float, default=None, metavar="S",
                   help="lease interval the parent judges liveness by "
                        "(heartbeats run at a quarter of it; default: "
                        "$REPRO_QUEUE_LEASE_S, else 15)")
    p.add_argument("--poll", type=float, default=0.1, metavar="S",
                   help="sleep between claim attempts when the spool is "
                        "empty (default 0.1)")
    p.add_argument("--max-idle", type=float, default=None, metavar="S",
                   help="exit after this long without a claim "
                        "(default: wait for the stop marker)")
    p.add_argument("--once", action="store_true",
                   help="exit after completing a single request")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("cache", help="result-cache utilities")
    csub = p.add_subparsers(dest="cache_command", required=True)
    pc = csub.add_parser(
        "stats", help="describe a cache (kind, location, entries)")
    pc.add_argument("uri", help="sqlite:///path.db or a directory")
    pc.set_defaults(func=cmd_cache_stats)

    p = sub.add_parser(
        "ingest",
        help="import an external workflow description (wfcommons, dax, "
             "dot, edgelist, template, json)")
    p.add_argument("path", help="workflow description file")
    p.add_argument("--format", default=None,
                   help="force a registered format instead of sniffing")
    p.add_argument("--data", default=None, metavar="JSON",
                   help="JSON data file for template expansion")
    p.add_argument("--name", default=None,
                   help="override the ingested workflow's name")
    p.add_argument("--work-scale", type=float, default=1.0,
                   help="multiply task work by this factor")
    p.add_argument("--cost-scale", type=float, default=1.0,
                   help="multiply edge costs by this factor (e.g. bytes "
                        "to abstract units)")
    p.add_argument("--memory-scale", type=float, default=1.0,
                   help="multiply task memory by this factor")
    p.add_argument("-o", "--output", default=None,
                   help="write the validated workflow as canonical JSON")
    p.add_argument("--stats", action="store_true",
                   help="print structural statistics instead of a summary")
    p.add_argument("--validate", action="store_true",
                   help="only check the file; exit 1 on any ingest error")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("info", help="show presets and corpus configuration")
    p.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
