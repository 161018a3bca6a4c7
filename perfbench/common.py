"""Shared pieces of the benchmark: workload inputs, references, statistics.

Every workload draws its instances from a fixed, finite **pool** of
generated workflows (family x task count x generator seed). The
benchmark's ``--seed`` picks which pool members a run uses and in which
order, so the same seed always gives the same inputs, and every pool
member has a recorded reference outcome in ``reference.json``
(``record.py`` regenerates it with direct ``solve()`` calls).
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
#: each run's scratch directories (job store, spool, cache, spans, logs)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

FAMILIES = ("genome", "blast", "bwa", "epigenomics", "montage",
            "seismology", "soykb")

#: per workload: task count and, per family, the requests one run makes
#: at REFERENCE_SECONDS; a family's pool holds twice as many generator
#: seeds, so each run uses half of it. The list workloads are a fixed
#: amount of work (so the percentiles' sample counts and the set
#: makespan_vs_bound covers never depend on the machine's speed) that
#: takes about REFERENCE_SECONDS on an unloaded 2-core x86 box. paper-200
#: runs few of the slow, widely spread montage/epigenomics solves so
#: that its median and tail both fall inside the dense cluster of the
#: other five families rather than on the gap above it. fanout-1k runs
#: seven each of the fast blast/bwa/seismology solves and three each of
#: the ~1.7x slower genome/soykb ones, so that its median and tail (ranks
#: 14 and 17 of 27) sit inside the fast cluster of 21, not on its top
#: edge next to the gap.
REFERENCE_SECONDS = 20.0
POOLS: Dict[str, Dict] = {
    "paper-200": {"n": 200, "mix": {
        "genome": 5, "blast": 5, "bwa": 5, "epigenomics": 1, "montage": 1,
        "seismology": 5, "soykb": 5}},
    "fanout-1k": {"n": 1000, "mix": {
        "blast": 7, "bwa": 7, "genome": 3, "seismology": 7, "soykb": 3}},
    "service-16": {"n": 16, "rate": 5.0, "mix": {f: 12 for f in FAMILIES}},
    "sweep-queue": {"n": 32, "mix": {f: 23 for f in FAMILIES}},
}

WORKLOADS = tuple(POOLS)

#: service-16's repeat period: every 4th job repeats one submitted at
#: least REPEAT_LAG_S earlier (POOLS' rate is its offered jobs/s)
REPEAT_EVERY = 4
REPEAT_LAG_S = 2.0


def ensure_src_on_path() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for benchmark subprocesses: sources first on the path."""
    env = dict(os.environ)
    paths = [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_PARALLEL", None)
    env.update(extra or {})
    return env


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def instance_key(family: str, n: int, gen_seed: int) -> str:
    return f"{family}-{n}-{gen_seed}"


def pool_keys(workload: str) -> List[Tuple[str, int, int]]:
    spec = POOLS[workload]
    return [(f, spec["n"], s) for f, count in spec["mix"].items()
            for s in range(2 * count)]


def run_list(workload: str, seed: int, seconds: float
             ) -> List[Tuple[str, int, int]]:
    """One run's requests: per family its mix count scaled to
    ``seconds``, drawn from its pool by the seed and spread evenly
    through the list, so that every stretch of it mixes the families."""
    spec = POOLS[workload]
    rng = random.Random(f"{workload}/{seed}")
    entries = []
    for family, count in spec["mix"].items():
        pool = 2 * count
        k = max(1, math.ceil(count * seconds / REFERENCE_SECONDS))
        if k > pool:
            raise ValueError(f"{workload}: {family} pool of {pool} "
                             f"too small for {k} requests")
        for j, gen_seed in enumerate(rng.sample(range(pool), k)):
            entries.append(((j + 0.5) / k, family, gen_seed))
    entries.sort(key=lambda e: e[0])
    return [(family, spec["n"], gen_seed) for _, family, gen_seed in entries]


def service_schedule(seed: int, seconds: float
                     ) -> List[Tuple[float, Tuple[str, int, int], bool]]:
    """Open-loop schedule: (due offset s, instance, is_repeat) per job.

    Every ``REPEAT_EVERY``-th job repeats an instance submitted at least
    ``REPEAT_LAG_S`` earlier (so the first copy has long finished and the
    repeat is a cache hit); every other job is the next entry of the
    run's family-interleaved list (:func:`run_list`), a miss.
    """
    rate = POOLS["service-16"]["rate"]
    fresh = run_list("service-16", seed, seconds)[::-1]
    rng = random.Random(f"service-16/{seed}/repeats")
    n_jobs = int(round(rate * seconds))
    lag = int(math.ceil(REPEAT_LAG_S * rate))
    out: List[Tuple[float, Tuple[str, int, int], bool]] = []
    unique: List[Tuple[int, Tuple[str, int, int]]] = []
    for i in range(n_jobs):
        due = i / rate
        old = [inst for j, inst in unique if j <= i - lag]
        if i % REPEAT_EVERY == REPEAT_EVERY - 1 and old:
            out.append((due, rng.choice(old), True))
            continue
        if not fresh:
            raise ValueError(f"service-16: {seconds:g} s hold fewer fresh "
                             f"instances than {n_jobs} jobs need")
        inst = fresh.pop()
        unique.append((i, inst))
        out.append((due, inst, False))
    return out


def build_request(inst: Tuple[str, int, int], want_mapping: bool = True):
    """The ScheduleRequest every workload sends for one instance."""
    from repro import default_cluster, generate_workflow
    from repro.api import ScheduleRequest

    family, n, gen_seed = inst
    return ScheduleRequest(
        workflow=generate_workflow(family, n, seed=gen_seed),
        cluster=default_cluster(), algorithm="daghetpart",
        scale_memory=True, want_mapping=want_mapping,
        tags={"instance": instance_key(*inst)})


def lower_bound(request) -> float:
    """``makespan_lower_bound`` on the memory-scaled cluster solve() uses."""
    from repro.core.bounds import makespan_lower_bound
    from repro.experiments.instances import scaled_cluster_for

    cluster = scaled_cluster_for(request.workflow, request.cluster)
    return makespan_lower_bound(request.workflow, cluster)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def load_reference() -> Dict[str, Dict]:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["instances"]


def check_result(ref: Dict[str, Dict], inst, result,
                 bound: Optional[float] = None) -> Optional[str]:
    """None when ``result`` matches the recorded outcome, else why not."""
    key = instance_key(*inst)
    want = ref.get(key)
    if want is None:
        return f"{key}: no recorded reference"
    if want["makespan"] is None:
        if result.failure is not None \
                and result.failure.kind == "NoFeasibleMappingError":
            return None
        return f"{key}: expected NoFeasibleMappingError, got {result.failure}"
    if result.failure is not None:
        return f"{key}: unexpected failure {result.failure}"
    if result.makespan != want["makespan"]:
        return (f"{key}: makespan {result.makespan!r} != recorded "
                f"{want['makespan']!r}")
    if bound is not None and bound != want["bound"]:
        return f"{key}: lower bound {bound!r} != recorded {want['bound']!r}"
    return None


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail(values: Sequence[float], beyond: int = 10
         ) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples_beyond)``: the ``beyond + 1``-th
    largest sample, the share of samples at or below its rank, and how
    many samples lie beyond it. With fewer than ``beyond + 1`` samples
    the maximum is returned with the count that does exist.
    """
    s = sorted(values)
    n = len(s)
    idx = max(0, n - beyond - 1)
    return s[idx], 100.0 * (idx + 1) / n, n - idx - 1


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
