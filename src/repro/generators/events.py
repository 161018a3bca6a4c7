"""Seeded event-stream primitives for the dynamic-scheduling simulator.

Everything stochastic in :mod:`repro.sim` draws through these helpers, and
every helper normalises its seed through :func:`repro.utils.rng.make_rng`
— one experiment seed reproduces a whole perturbation timeline bit for
bit, the same contract the workflow generators honour.

The helpers return plain Python floats/ints (not numpy scalars) so the
event records built from them serialize to strict JSON and compare
exactly across runs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.utils.rng import SeedLike, make_rng


def poisson_times(rate: float, count: int, seed: SeedLike = None,
                  start: float = 0.0) -> List[float]:
    """``count`` arrival instants of a Poisson process with ``rate``.

    Inter-arrival gaps are exponential with mean ``1/rate``; the first
    gap is added to ``start``. Deterministic per seed.
    """
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    if count < 0:
        raise ValueError(f"arrival count must be >= 0, got {count}")
    rng = make_rng(seed)
    t = float(start)
    times: List[float] = []
    for _ in range(count):
        t += float(rng.exponential(1.0 / rate))
        times.append(t)
    return times


def event_seeds(count: int, seed: SeedLike = None) -> List[int]:
    """``count`` independent 31-bit child seeds (per-arrival job seeds)."""
    rng = make_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


def lognormal_factor(sigma: float, seed: SeedLike = None) -> float:
    """One multiplicative runtime-inflation factor ``>= 1``.

    Drawn lognormal(0, sigma) and clamped below at 1 — the simulator
    models *inflation* (estimates proving optimistic), never speedup.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = make_rng(seed)
    return max(1.0, float(rng.lognormal(mean=0.0, sigma=sigma)))


def subset_mask(population: int, fraction: float,
                seed: SeedLike = None) -> List[bool]:
    """Membership mask selecting ~``fraction`` of ``population`` items."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = make_rng(seed)
    return [bool(x < fraction) for x in rng.random(population)]


def merge_timelines(streams: Sequence[Sequence]) -> List:
    """Stable merge of per-model event lists into one timeline.

    Sorted by event time only; ties keep model order then emission order,
    so the merged stream is deterministic without wall-clock tiebreaks.
    """
    merged = [ev for stream in streams for ev in stream]
    merged.sort(key=lambda ev: ev.time)
    return merged
