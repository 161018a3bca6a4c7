"""Aggregation matching the paper: geometric means of per-workflow ratios.

Fig. 3's "relative makespan" is "the ratio of makespans by DagHetPart and
DagHetMem, in %, ... geometric mean over the ratios of each workflow". A
ratio only exists where *both* algorithms succeeded; other instances are
excluded (the paper counts them separately in Section 5.2.2).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.experiments.runner import RunRecord


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; 0 and inf values are rejected (caller filters)."""
    vals = list(values)
    if not vals:
        return float("nan")
    if any(v <= 0 or math.isinf(v) for v in vals):
        raise ValueError("geometric mean requires finite positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _pair_up(records: Iterable[RunRecord]) -> Dict[Tuple[str, str, str, float], Dict[str, RunRecord]]:
    """Group records of the same (category, instance, cluster, bandwidth)
    by algorithm. Instance names are ``{family}-{n_tasks}``, so a scaled
    corpus can name one instance per category alike."""
    pairs: Dict[Tuple[str, str, str, float], Dict[str, RunRecord]] = {}
    for rec in records:
        key = (rec.category, rec.instance, rec.cluster, rec.bandwidth)
        pairs.setdefault(key, {})[rec.algorithm] = rec
    return pairs


def makespan_ratios(records: Iterable[RunRecord],
                    numerator: str = "DagHetPart",
                    denominator: str = "DagHetMem") -> List[Tuple[RunRecord, float]]:
    """Per-instance ratio numerator/denominator where both succeeded.

    Returns (numerator record, ratio) pairs so callers can group by any
    record attribute.
    """
    out: List[Tuple[RunRecord, float]] = []
    for algs in _pair_up(records).values():
        num = algs.get(numerator)
        den = algs.get(denominator)
        if num is None or den is None or not (num.success and den.success):
            continue
        if den.makespan <= 0:
            continue
        out.append((num, num.makespan / den.makespan))
    return out


def relative_makespan_by(records: Iterable[RunRecord],
                         key: Callable[[RunRecord], Hashable],
                         numerator: str = "DagHetPart",
                         denominator: str = "DagHetMem") -> Dict[Hashable, float]:
    """Geometric-mean relative makespan (in %) grouped by ``key``."""
    grouped: Dict[Hashable, List[float]] = {}
    for rec, ratio in makespan_ratios(records, numerator, denominator):
        grouped.setdefault(key(rec), []).append(ratio)
    return {k: 100.0 * geometric_mean(v) for k, v in grouped.items()}


def aggregate_by(records: Iterable[RunRecord],
                 key: Callable[[RunRecord], Hashable],
                 value: Callable[[RunRecord], float],
                 agg: str = "geomean") -> Dict[Hashable, float]:
    """Aggregate any record attribute by group (geomean / mean / max / sum)."""
    grouped: Dict[Hashable, List[float]] = {}
    for rec in records:
        v = value(rec)
        if math.isinf(v) or math.isnan(v):
            continue
        grouped.setdefault(key(rec), []).append(v)
    if agg == "geomean":
        return {k: geometric_mean([x for x in v if x > 0]) for k, v in grouped.items()}
    if agg == "mean":
        return {k: sum(v) / len(v) for k, v in grouped.items()}
    if agg == "max":
        return {k: max(v) for k, v in grouped.items()}
    if agg == "sum":
        return {k: sum(v) for k, v in grouped.items()}
    raise ValueError(f"unknown aggregation {agg!r}")


def success_counts(records: Iterable[RunRecord]) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """(category, algorithm) -> (successes, attempts) — Section 5.2.2."""
    out: Dict[Tuple[str, str], List[int]] = {}
    for rec in records:
        key = (rec.category, rec.algorithm)
        counts = out.setdefault(key, [0, 0])
        counts[1] += 1
        if rec.success:
            counts[0] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}
