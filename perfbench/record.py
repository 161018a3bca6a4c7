"""Regenerate ``reference.json``: the recorded outcome of every pool instance.

Each pool member is solved once with a direct ``solve()`` of exactly the
request the workloads send; its makespan (``null`` when the instance is
infeasible, i.e. ``NoFeasibleMappingError`` is the expected outcome) and
its ``makespan_lower_bound`` are stored. Run after a change that is meant
to alter mappings, and say so in the change:

    python3 perfbench/record.py

It solves on every CPU of the machine (serially on a single CPU).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def _record(inst):
    common.ensure_src_on_path()
    from repro.api import solve

    request = common.build_request(inst, want_mapping=False)
    result = solve(request)
    if result.failure is not None \
            and result.failure.kind != "NoFeasibleMappingError":
        raise RuntimeError(f"{common.instance_key(*inst)}: {result.failure}")
    makespan = None if result.failure is not None else result.makespan
    return inst, makespan, common.lower_bound(request)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]) \
        .parse_args(argv)
    common.ensure_src_on_path()

    keys = [k for w in common.WORKLOADS for k in common.pool_keys(w)]
    jobs = os.cpu_count() or 1
    if jobs > 1:
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            rows = pool.map(_record, keys, chunksize=4)
    else:
        rows = [_record(k) for k in keys]

    instances = {common.instance_key(*inst): {"makespan": ms, "bound": lb}
                 for inst, ms, lb in rows}
    with open(common.REFERENCE_PATH, "w") as fh:
        json.dump({"instances": instances}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    infeasible = sum(1 for v in instances.values() if v["makespan"] is None)
    print(f"recorded {len(instances)} instances ({infeasible} infeasible) "
          f"to {common.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
