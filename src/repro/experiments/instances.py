"""The evaluation corpus (Section 5.1.1) and platform scaling rules.

The instances come from the scenario sources
(:class:`repro.api.FamilyGridSource`, :class:`repro.api.RealWorkflowSource`);
this module holds their sizes, seed rule and grouping type.

Paper sizes: 200 / 1 000 / 2 000 / 4 000 / 8 000 (small), 10 000 / 15 000 /
18 000 (middle), 20 000 / 25 000 / 30 000 (big), plus five real workflows of
11-58 tasks. A pure-Python run of the full corpus takes hours, so the
default sizes are the paper's divided by :data:`DEFAULT_SCALE` (size
*ordering and spread* are preserved; the figure benchmarks in
``benchmarks/`` regenerate each result shape at reduced scale). Set ``REPRO_FULL=1`` to run the
paper's sizes, or ``REPRO_SCALE=<divisor>`` for anything in between.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.api.scenario import (
    AlgorithmSpec,
    FamilyGridSource,
    PlatformAxis,
    RealWorkflowSource,
    ScenarioSpec,
)
from repro.platform.cluster import Cluster
from repro.utils.rng import SeedLike, stable_hash
from repro.workflow.graph import Workflow

#: paper task counts per size category
PAPER_SIZES: Dict[str, Tuple[int, ...]] = {
    "small": (200, 1_000, 2_000, 4_000, 8_000),
    "mid": (10_000, 15_000, 18_000),
    "big": (20_000, 25_000, 30_000),
}

SIZE_CATEGORIES = ("real", "small", "mid", "big")

#: default down-scaling divisor for laptop-scale runs
DEFAULT_SCALE = 50.0

#: never generate fewer tasks than this (degenerate graphs otherwise)
MIN_TASKS = 16


def _env_scale() -> float:
    """``REPRO_SCALE`` as a positive finite divisor (unset: the default)."""
    raw = os.environ.get("REPRO_SCALE", "").strip()
    if not raw:
        return DEFAULT_SCALE
    try:
        scale = float(raw)
    except ValueError:
        scale = math.nan
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(
            f"REPRO_SCALE={raw!r} is not a positive finite number")
    return scale


def synthetic_sizes(full: Optional[bool] = None) -> Dict[str, Tuple[int, ...]]:
    """Per-category task counts, honouring ``REPRO_FULL``/``REPRO_SCALE``."""
    if full is None:
        full = os.environ.get("REPRO_FULL", "") == "1"
    if full:
        return dict(PAPER_SIZES)
    scale = _env_scale()
    return {
        cat: tuple(max(MIN_TASKS, round(n / scale)) for n in sizes)
        for cat, sizes in PAPER_SIZES.items()
    }


@dataclass(frozen=True)
class Instance:
    """One workflow of the corpus plus its grouping metadata."""

    name: str
    family: str
    category: str  # real | small | mid | big
    n_tasks_requested: int
    workflow: Workflow

    @property
    def n_tasks(self) -> int:
        return self.workflow.n_tasks


def seed_base(seed: SeedLike) -> int:
    """Normalize a corpus seed to the int the per-instance seeds build on.

    ``None`` means 0; ints pass through; a ``numpy`` ``Generator`` is
    reduced to a stable int derived from its bit-generator state (without
    consuming the stream), so two generators in the same state produce
    the same corpus. Anything else raises a clear ``TypeError`` instead
    of being silently collapsed to 0.
    """
    if seed is None:
        return 0
    if hasattr(seed, "bit_generator"):  # numpy.random.Generator
        state = json.dumps(seed.bit_generator.state, sort_keys=True, default=str)
        return stable_hash(state) % (2 ** 31)
    try:
        return int(seed)
    except (TypeError, ValueError):
        raise TypeError(
            f"corpus seed must be an int, None, or a numpy Generator, "
            f"got {type(seed).__name__}") from None


def scaled_cluster_for(wf: Workflow, cluster: Cluster,
                       headroom: float = 1.001) -> Cluster:
    """Scale cluster memories so the biggest task has a host (Sec. 5.1.2).

    "For simulated workflows, we increase memory sizes proportionally until
    the task with the biggest memory requirement still has a processor it
    could be executed on." No-op when the workflow already fits.
    """
    peak = wf.max_task_requirement()
    if peak <= cluster.max_memory():
        return cluster
    return cluster.scaled_memories(peak / cluster.max_memory() * headroom)


#: The paper's evaluation grid (Section 5) as one declarative scenario:
#: the complete corpus (five real workflows + every family at the corpus
#: sizes — ``REPRO_FULL``/``REPRO_SCALE`` resolve at expansion time) on
#: every cluster configuration of Sections 5.1.2/5.2, with the default
#: cluster additionally swept over the Fig. 7 bandwidths, run with both
#: paper algorithms under the "doubling" k' strategy. Figures 3-9 and the
#: success/failure tables are aggregations over slices of this grid;
#: ``repro scenario run`` with a cache directory executes it resumably.
#: The one record set *not* in this grid is Section 5.2.4's 4x-demand
#: variant — the same corpus with ``work_factor=4.0`` on the default
#: cluster only, which ``figures.demand4x`` runs (as
#: ``scripts/run_all_experiments.py`` runs every figure driver).
PAPER_SCENARIO = ScenarioSpec(
    name="icpp24-kulagina-evaluation",
    description="Full ICPP'24 evaluation grid: corpus x clusters x "
                "bandwidths x {DagHetMem, DagHetPart}",
    workflows=(RealWorkflowSource(seed=0),
               FamilyGridSource(seed=0)),
    platforms=(
        PlatformAxis(preset="small"),
        PlatformAxis(preset="default", bandwidths=(0.1, 0.5, 1.0, 2.0, 5.0)),
        PlatformAxis(preset="large"),
        PlatformAxis(preset="nohet"),
        PlatformAxis(preset="lesshet"),
        PlatformAxis(preset="morehet"),
    ),
    algorithms=(
        AlgorithmSpec("daghetmem"),
        AlgorithmSpec("daghetpart", config={"k_prime_strategy": "doubling"}),
    ),
    tags={"scenario": "{scenario}"},
    scale_memory=True,
)


#: The local-search refinement companion grid: the same corpus on the
#: default cluster, run with the DagHetPart seed, its simulated-annealing
#: refinement, and the best-of-N portfolio — the two registry-unlocked
#: contenders beyond the paper. ``figures.refinement_gain`` aggregates the
#: anneal-vs-seed ratios; ``repro scenario run`` on this spec's JSON dump
#: executes the whole suite resumably (fresh results cached per request).
REFINEMENT_SCENARIO = ScenarioSpec(
    name="icpp24-refinement-suite",
    description="Refinement suite: corpus x default cluster x "
                "{DagHetPart, Anneal, Portfolio}",
    workflows=(RealWorkflowSource(seed=0),
               FamilyGridSource(seed=0)),
    platforms=(PlatformAxis(preset="default"),),
    algorithms=(
        AlgorithmSpec("daghetpart", config={"k_prime_strategy": "doubling"}),
        AlgorithmSpec("anneal", config={"k_prime_strategy": "doubling"}),
        AlgorithmSpec("portfolio"),
    ),
    tags={"scenario": "{scenario}"},
    scale_memory=True,
)
