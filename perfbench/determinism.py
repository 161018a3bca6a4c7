"""Check that the traced run's exact counts repeat for a seed.

A claim resting on a count (memdag calls, full makespan passes,
evaluator evaluations and applies, feasible k' points, cache hits and
misses) is only sound when the count is exactly the same on every run of
the same inputs. This runs each workload twice on a reduced input (a
small ``--seconds``, which sizes the fixed amount of work) in fresh
traced processes and compares the totals; it exits non-zero on any
difference:

    python3 perfbench/determinism.py [--seed 0]

The file name keeps it out of the repository's pytest collection: it is
the benchmark's own check, run on demand.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

#: workload -> --seconds of the reduced run: one or two requests per
#: family on paper-200, 30 jobs (cache-hit repeats start after 2 s) on
#: service-16, three requests per family on sweep-queue
REDUCED = {"paper-200": 5, "service-16": 6, "sweep-queue": 2}


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    os.makedirs(common.RUNS_DIR, exist_ok=True)
    out = tempfile.mkdtemp(prefix="determinism-", dir=common.RUNS_DIR)
    try:
        tmp = os.path.join(out, "tmp")
        os.makedirs(tmp)
        subprocess.run(
            [sys.executable, os.path.join(common.HERE, "child.py"),
             "measure", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--out", out, "--trace"],
            check=True, stdout=subprocess.DEVNULL, cwd=common.ROOT,
            env=common.child_env({"TMPDIR": tmp}))
        with open(os.path.join(out, "result.json")) as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            os.rmdir(common.RUNS_DIR)
        except OSError:
            pass
    if raw["failed"]:
        raise SystemExit(f"{workload}: outputs failed their checks: "
                         f"{raw['errors'][:3]}")
    return raw["counts"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    common.ensure_src_on_path()
    status = 0
    for workload, seconds in REDUCED.items():
        first = traced_counts(workload, args.seed, seconds)
        second = traced_counts(workload, args.seed, seconds)
        same = first == second
        print(f"{workload}: {'same' if same else 'DIFFERENT'} "
              f"{json.dumps(first, sort_keys=True)}")
        if not same:
            print(f"  second run: {json.dumps(second, sort_keys=True)}")
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
