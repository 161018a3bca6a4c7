"""Run the complete evaluation: every driver of ``repro experiment``.

Calls each driver in :data:`repro.experiments.figures.EXPERIMENTS` with
the arguments ``repro experiment NAME`` uses by default (seed 0, the
"doubling" k' strategy, every family, the corpus sizes ``REPRO_SCALE`` /
``REPRO_FULL`` select), all over one result cache. Request fingerprints
leave out tags and scenario names, so a corpus several drivers share is
solved once and read back by every later driver; re-running with the
same ``--cache`` re-aggregates without a single solve.

Writes, to the working directory:

* ``experiments_results.json`` — ``{"sizes": {...}, "experiments":
  {name: rows}}``, each driver's rows exactly as ``repro experiment
  NAME --json`` writes them (the full result envelopes stay in the
  cache, where ``repro cache stats`` and ``repro scenario`` read them);
* ``experiments_report.txt`` — each driver's table and ASCII chart, as
  ``repro experiment NAME --plot`` prints them.

Usage::

    REPRO_SCALE=2000 python scripts/run_all_experiments.py \\
        --parallel 2 --cache sqlite:///tmp/eval.db

Without ``--cache`` the run uses a temporary SQLite cache, deleted on
exit. ``--backend`` names the execution backend (as ``REPRO_BACKEND``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.api import open_cache
from repro.core.heuristic import DagHetPartConfig
from repro.experiments.figures import EXPERIMENTS
from repro.experiments.instances import synthetic_sizes
from repro.experiments.plotting import plot_rows
from repro.experiments.report import format_table

RESULTS = "experiments_results.json"
REPORT = "experiments_report.txt"


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def run_experiments(cache, **knobs) -> Dict[str, List[Dict]]:
    """Every driver's rows, in :data:`EXPERIMENTS` order, over ``cache``."""
    experiments = {}
    for name, driver in EXPERIMENTS.items():
        start = time.time()
        experiments[name] = driver(cache=cache, **knobs)["rows"]
        log(f"{name}: {len(experiments[name])} rows "
            f"in {time.time() - start:.1f}s")
    return experiments


def write_outputs(sizes, experiments: Dict[str, List[Dict]],
                  directory: str = ".") -> None:
    """Write :data:`RESULTS` and :data:`REPORT` into ``directory``."""
    with open(os.path.join(directory, RESULTS), "w") as fh:
        json.dump({"sizes": sizes, "experiments": experiments}, fh, indent=1)
    with open(os.path.join(directory, REPORT), "w") as fh:
        for name, rows in experiments.items():
            fh.write(format_table(rows, title=name) + "\n\n")
            chart = plot_rows(name, rows)
            if chart:
                fh.write(chart + "\n\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run every experiment driver over one result cache.")
    parser.add_argument("-j", "--parallel", type=int, default=None, metavar="N",
                        help="workers per batch "
                             "(-1 = all CPUs; default: $REPRO_PARALLEL or serial)")
    parser.add_argument("--backend", default=None, metavar="NAME",
                        help="execution backend (serial/process/queue; "
                             "default: routed per batch)")
    parser.add_argument("--cache", metavar="URI",
                        help="result cache URI (sqlite:///path.db or a "
                             "directory); default: a temporary one")
    args = parser.parse_args(argv)
    if args.backend is not None:
        os.environ["REPRO_BACKEND"] = args.backend
    sizes = synthetic_sizes()
    log(f"synthetic sizes: {sizes}")
    with tempfile.TemporaryDirectory() as scratch:
        with open_cache(args.cache or scratch) as cache:
            experiments = run_experiments(
                cache, seed=0, parallel=args.parallel,
                config=DagHetPartConfig(k_prime_strategy="doubling"))
            stats = cache.stats()
    log(f"cache: hits={stats['hits']} misses={stats['misses']} "
        f"entries={stats['entries']}")
    write_outputs(sizes, experiments)
    log(f"wrote {RESULTS} and {REPORT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
