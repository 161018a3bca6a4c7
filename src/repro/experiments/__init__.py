"""Experiment harness: regenerates every table and figure of Section 5.

* :mod:`repro.experiments.instances` — the corpus sizes (laptop-scale
  defaults, ``REPRO_FULL=1`` for the paper's), the memory-scaling rule and
  the paper's evaluation grid as one :class:`repro.api.ScenarioSpec`; the
  instances themselves come from the scenario sources
  (:class:`repro.api.FamilyGridSource`, :class:`repro.api.RealWorkflowSource`);
* :mod:`repro.experiments.runner` — flattens scenario results into
  records: makespans, runtimes, success, failure reasons and the winning
  ``k'`` per run;
* :mod:`repro.experiments.metrics` — geometric means and relative
  makespans, matching the paper's aggregation;
* :mod:`repro.experiments.figures` — one driver per table/figure
  (``fig3_left`` ... ``fig9``, ``table4``, ``success_counts``,
  ``demand4x``);
* :mod:`repro.experiments.report` — plain-text rendering of the results.
"""

from repro.experiments.instances import (
    Instance,
    PAPER_SCENARIO,
    synthetic_sizes,
    scaled_cluster_for,
    SIZE_CATEGORIES,
)
from repro.experiments.runner import (
    RunRecord,
    scenario_records,
)
from repro.experiments.metrics import (
    geometric_mean,
    relative_makespan_by,
    aggregate_by,
)
from repro.experiments import figures
from repro.experiments.report import format_table

__all__ = [
    "Instance",
    "PAPER_SCENARIO",
    "synthetic_sizes",
    "scaled_cluster_for",
    "SIZE_CATEGORIES",
    "RunRecord",
    "scenario_records",
    "geometric_mean",
    "relative_makespan_by",
    "aggregate_by",
    "figures",
    "format_table",
]
