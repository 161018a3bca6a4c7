"""Run the complete evaluation and dump results (see ROADMAP item 5(a)).

Each cluster configuration is one declarative :class:`ScenarioSpec`
(built by :func:`repro.experiments.figures.corpus_scenario` — the same
bridge the figure drivers use), executed through ``repro.api``'s
streaming scenario runner; every table/figure is derived from the shared
record sets instead of re-running corpora per figure. Writes
``experiments_results.json`` and a plain-text report.

Environment: REPRO_SCALE / REPRO_FULL control workflow sizes as usual;
``--parallel N`` (or REPRO_PARALLEL) fans requests out over N worker
processes per scenario. ``--cache DIR`` turns the whole evaluation
into a resumable sweep: results are fingerprint-cached on disk, so an
interrupted run (or a re-run after editing the aggregations) only solves
what is missing. The dumped ``results`` section holds the full
ScheduleResult envelopes (sweep traces, winning k', structured failure
reasons).

Tradeoff note: each scenario regenerates its (deterministic, seeded)
corpus during expansion rather than sharing one pre-built instance list
across cluster configurations as the pre-scenario script did. Workflow
generation is a few percent of solve time at any scale, and in exchange
every record set is a self-contained JSON spec (dumped under
``scenarios`` in the output) that reproduces standalone via
``repro scenario run``.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import asdict

from repro.api import AlgorithmSpec, AnnealConfig, open_cache, run_scenario
from repro.core.heuristic import DagHetPartConfig
from repro.experiments.figures import corpus_scenario
from repro.experiments.instances import synthetic_sizes
from repro.experiments.metrics import (
    aggregate_by,
    makespan_ratios,
    relative_makespan_by,
    success_counts,
)
from repro.experiments.runner import record_from_result

CONFIG = DagHetPartConfig(k_prime_strategy="doubling")
SEED = 0


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def run(spec, label, parallel=None, cache=None, backend=None):
    """One scenario sweep, streamed through the repro.api batch façade."""
    log(f"running scenario {spec.name!r} on {label} ({spec.size()} requests)")
    start = time.time()
    results = list(run_scenario(spec, parallel=parallel, cache=cache,
                                backend=backend))
    log(f"  done in {time.time() - start:.0f}s")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-j", "--parallel", type=int, default=None, metavar="N",
                        help="workers per scenario "
                             "(-1 = all CPUs; default: $REPRO_PARALLEL or serial)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="execution backend (serial/process/queue; "
                             "default: routed per batch)")
    parser.add_argument("--cache", metavar="URI",
                        help="fingerprint-keyed result cache URI "
                             "(sqlite:///path.db or a plain directory); "
                             "makes the whole evaluation resumable")
    args = parser.parse_args()
    sizes = synthetic_sizes()
    log(f"synthetic sizes: {sizes}")
    cache = open_cache(args.cache) if args.cache else None

    def spec(name, **kwargs):
        return corpus_scenario(name, seed=SEED, sizes=sizes, config=CONFIG,
                               **kwargs)

    plan = {
        "default": (spec("all-default", preset="default"), "default-36"),
        "small": (spec("all-small", preset="small"), "small-18"),
        "large": (spec("all-large", preset="large"), "large-60"),
        "nohet": (spec("all-nohet", preset="nohet"), "nohet"),
        "lesshet": (spec("all-lesshet", preset="lesshet"), "lesshet"),
        "morehet": (spec("all-morehet", preset="morehet"), "morehet"),
        "beta0.1": (spec("all-beta0.1", preset="default", bandwidth=0.1),
                    "beta=0.1"),
        "beta5": (spec("all-beta5", preset="default", bandwidth=5.0), "beta=5"),
        "demand4x": (spec("all-demand4x", preset="default", work_factor=4.0),
                     "4x demand"),
        "refinement": (spec("all-refinement", preset="default",
                            algorithm_specs=(
                                AlgorithmSpec("daghetpart", config=CONFIG),
                                AlgorithmSpec("anneal", config=AnnealConfig(
                                    k_prime_strategy="doubling")),
                                AlgorithmSpec("portfolio"))),
                       "refinement suite"),
    }
    result_sets = {key: run(scenario, label, args.parallel, cache,
                            args.backend)
                   for key, (scenario, label) in plan.items()}
    if cache is not None:
        stats = cache.stats()
        log(f"cache: hits={stats['hits']} misses={stats['misses']} "
            f"entries={stats['entries']}")
        cache.close()
    record_sets = {key: [record_from_result(r) for r in results]
                   for key, results in result_sets.items()}

    out = {"sizes": sizes, "figures": {}}

    def rel_by_cat(records):
        return relative_makespan_by(records, key=lambda r: r.category)

    # Fig 3 left + overall
    d = record_sets["default"]
    fig3_left = rel_by_cat(d)
    fig3_left["all"] = relative_makespan_by(d, key=lambda r: "all")["all"]
    out["figures"]["fig3_left"] = fig3_left

    # Fig 3 right
    out["figures"]["fig3_right"] = {
        label: rel_by_cat(record_sets[key])
        for label, key in (("18", "small"), ("36", "default"), ("60", "large"))
    }

    # Fig 4
    out["figures"]["fig4_relative"] = {
        level: rel_by_cat(record_sets[level])
        for level in ("nohet", "lesshet", "default", "morehet")
    }
    out["figures"]["fig4_absolute"] = {
        level: aggregate_by(
            [r for r in record_sets[level]
             if r.algorithm == "DagHetPart" and r.success],
            key=lambda r: r.category, value=lambda r: r.makespan)
        for level in ("nohet", "lesshet", "default", "morehet")
    }

    # Fig 5 (per family relative) and Fig 6 (absolute)
    out["figures"]["fig5"] = {
        f"{rec.family}:{rec.n_tasks}": 100.0 * ratio
        for rec, ratio in makespan_ratios(d) if rec.category != "real"
    }
    out["figures"]["fig6"] = {
        f"{r.family}:{r.n_tasks}": r.makespan
        for r in d if r.algorithm == "DagHetPart" and r.success
        and r.category != "real"
    }

    # Fig 7
    out["figures"]["fig7"] = {
        label: rel_by_cat(record_sets[key])
        for label, key in (("0.1", "beta0.1"), ("1.0", "default"), ("5.0", "beta5"))
    }

    # Figs 8/9 + Table 4
    by_instance = {}
    for r in d:
        by_instance.setdefault(r.instance, {})[r.algorithm] = r
    rel_rt, abs_rt = {}, {}
    for algs in by_instance.values():
        mem, part = algs.get("DagHetMem"), algs.get("DagHetPart")
        if mem is None or part is None:
            continue
        abs_rt.setdefault(part.category, []).append(part.runtime)
        if mem.runtime > 0:
            rel_rt.setdefault(part.category, []).append(part.runtime / mem.runtime)
    out["figures"]["table4"] = {
        cat: {"avg_relative_runtime": sum(rel_rt[cat]) / len(rel_rt[cat]),
              "avg_absolute_runtime_sec": sum(abs_rt[cat]) / len(abs_rt[cat])}
        for cat in abs_rt
    }

    # Success counts (Sec 5.2.2)
    out["figures"]["success_counts"] = {
        key: {f"{cat}/{alg}": list(v)
              for (cat, alg), v in success_counts(record_sets[key]).items()}
        for key in ("small", "default", "large")
    }

    # Demand 4x (Sec 5.2.4)
    out["figures"]["demand4x"] = {
        "1x": rel_by_cat(d),
        "4x": rel_by_cat(record_sets["demand4x"]),
    }

    # Refinement suite: anneal vs its DagHetPart seed, portfolio winners
    refinement = record_sets["refinement"]
    gain = relative_makespan_by(refinement, key=lambda r: r.category,
                                numerator="Anneal", denominator="DagHetPart")
    gain["all"] = relative_makespan_by(
        refinement, key=lambda r: "all", numerator="Anneal",
        denominator="DagHetPart").get("all", float("nan"))
    out["figures"]["refinement_gain"] = gain

    # Failure audit: why any run failed, per cluster configuration
    out["figures"]["failures"] = {
        key: sorted(f"{r.instance}/{r.algorithm}: {r.failure_reason}"
                    for r in records if not r.success)
        for key, records in record_sets.items()
        if any(not r.success for r in records)
    }

    out["records"] = {
        key: [asdict(r) for r in records] for key, records in record_sets.items()
    }
    # the full API envelopes (sweep trace, k', structured failures); each
    # entry round-trips through repro.api.ScheduleResult.from_dict so the
    # evaluation can be re-aggregated later without re-scheduling
    out["results"] = {
        key: [r.to_dict() for r in results]
        for key, results in result_sets.items()
    }
    # the scenario specs themselves, so any record set can be reproduced
    # standalone with `repro scenario run`
    out["scenarios"] = {key: scenario.to_dict()
                        for key, (scenario, _) in plan.items()}

    with open("experiments_results.json", "w") as fh:
        json.dump(out, fh, indent=1, default=str)
    log("wrote experiments_results.json")

    # human-readable summary
    for name, data in out["figures"].items():
        log(f"{name}: {json.dumps(data)[:400]}")


if __name__ == "__main__":
    main()
