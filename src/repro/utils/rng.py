"""Deterministic random-number plumbing.

Every stochastic component (generators, ``sim`` events, ``anneal``) takes an
explicit ``numpy.random.Generator``. These helpers normalise seeds and derive
independent child streams so that a single experiment seed reproduces the
whole sweep bit-for-bit, regardless of execution order.

numpy is imported inside :func:`make_rng` and :func:`spawn_rngs`, so it
loads only where random numbers are drawn: the workflow generators, ``sim``
and ``anneal``. ``repro serve`` and ``repro worker`` start
without it and a ``solve()`` of a decoded request never loads it, which
keeps their process start short and their memory small.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Union

if TYPE_CHECKING:
    import numpy as np

SeedLike = Union[int, "np.random.Generator", None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` from an int seed, generator, or None."""
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, n: int) -> List[np.random.Generator]:
    """Derive ``n`` statistically independent child generators.

    Uses ``SeedSequence.spawn`` so child streams do not overlap even when the
    parent is consumed concurrently.
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    else:
        seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def stable_hash(text: str) -> int:
    """Deterministic 63-bit hash of a string (Python's ``hash`` is salted)."""
    h = 1469598103934665603
    for ch in text.encode("utf-8"):
        h ^= ch
        h = (h * 1099511628211) & 0x7FFFFFFFFFFFFFFF
    return h
