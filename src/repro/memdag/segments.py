"""Hill-valley profile decomposition and optimal merging of segment sequences.

A key observation makes memory profiles compositional: under the block
semantics (:mod:`repro.memdag.model`) each task ``u`` has *static*
quantities

* ``a(u)   = ext_in(u) + m_u + out(u)`` — its memory *activation* (the rise
  while it executes), and
* ``delta(u) = out(u) - in_block(u)`` — the net change of the resident set
  after it completes,

independent of when it runs. Any traversal's usage at step ``i`` is
``L_{i-1} + a(sigma_i)`` with ``L_i = L_{i-1} + delta(sigma_i)``. Peak
minimization over interleavings of independent branches therefore reduces
to the classical problem of merging sequences of (hill, valley) segments —
the same abstraction Liu used for tree pebbling and Kayaaslan et al. [18]
use for series-parallel composition.

The merge implemented here is the standard two-class rule:

* segments with ``v <= 0`` (net releasers) are scheduled first, in
  increasing order of hill ``h``;
* segments with ``v > 0`` (net producers) follow, in decreasing ``h - v``.

Within one sequence the order is fixed, so sequences are first *normalized*
(adjacent segments whose keys are out of order are fused into one atomic
segment with ``h = max(h1, v1 + h2)``, ``v = v1 + v2``), after which keys
are monotone and a greedy k-way head merge realizes the rule exactly. That
merge is one stable sort of the normalized sequences' concatenation by key
(:func:`merged_segments`); tasks that are pairwise independent are
one-segment sequences, ordered by :func:`merge_key` directly.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, NamedTuple, Sequence, Tuple

Node = Hashable

_EPS = 1e-12


def merge_key(h: float, v: float) -> Tuple[int, float]:
    """Sort key of the two-class merge rule for hill ``h`` and valley ``v``.

    Releasers (``v <= 0``, up to ``_EPS``) come first by increasing hill,
    then producers by decreasing ``h - v``; lower keys run earlier.
    """
    if v <= _EPS:
        return (0, h)
    return (1, -(h - v))


class Segment(NamedTuple):
    """An atomic run of tasks with hill ``h`` and valley ``v``.

    ``h`` is the maximum usage within the run relative to the resident-set
    size at the run's start; ``v`` is the net change of the resident set
    over the run. Always ``h >= v`` and ``h >= 0`` for non-empty runs.
    """

    tasks: Tuple[Node, ...]
    h: float
    v: float

    def key(self) -> Tuple[int, float]:
        """Sort key of the two-class merge rule (lower runs earlier)."""
        return merge_key(self.h, self.v)

    def fuse(self, other: "Segment") -> "Segment":
        """Concatenate ``self`` directly followed by ``other``."""
        return Segment(
            tasks=self.tasks + other.tasks,
            h=max(self.h, self.v + other.h),
            v=self.v + other.v,
        )


def profile_of_traversal(order: Sequence[Node], a, delta) -> Tuple[List[float], List[float]]:
    """Relative (tops, residuals) of a traversal given static ``a``/``delta`` maps.

    ``a`` and ``delta`` are callables or dicts mapping task -> float.
    """
    geta = a.__getitem__ if isinstance(a, dict) else a
    getd = delta.__getitem__ if isinstance(delta, dict) else delta
    tops: List[float] = []
    residuals: List[float] = []
    live = 0.0
    for u in order:
        tops.append(live + geta(u))
        live += getd(u)
        residuals.append(live)
    return tops, residuals


def decompose_profile(order: Sequence[Node], a, delta) -> List[Segment]:
    """Cut a traversal at successive residual minima into hill-valley segments.

    Each produced segment except possibly the last ends at a strictly new
    minimum of the residual curve; the tail beyond the global minimum forms
    one final segment with non-negative valley.
    """
    geta = a.__getitem__ if isinstance(a, dict) else a
    getd = delta.__getitem__ if isinstance(delta, dict) else delta
    segments: List[Segment] = []
    seg_start = 0
    base = 0.0  # residual at the start of the current segment
    running_min = 0.0  # global minimum of residuals seen so far
    live = 0.0  # the residual, as profile_of_traversal computes it
    hill = float("-inf")  # highest top since the segment's start
    for i, u in enumerate(order):
        top = live + geta(u)
        if top > hill:
            hill = top
        live += getd(u)
        if live < running_min - _EPS:
            running_min = live
            segments.append(Segment(tuple(order[seg_start:i + 1]), hill - base, live - base))
            seg_start = i + 1
            base = live
            hill = float("-inf")
    if seg_start < len(order):
        segments.append(Segment(tuple(order[seg_start:]), hill - base, live - base))
    return segments


def _normalize_onto(segments: Sequence[Segment], stack: List[Segment],
                    keys: List[Tuple[int, float]]) -> None:
    """Push ``segments``, normalized, onto ``stack`` (and their keys onto
    ``keys``) without touching what the stacks already held."""
    base = len(stack)
    for seg in segments:
        key = merge_key(seg.h, seg.v)
        while len(stack) > base and key < keys[-1]:
            seg = stack.pop().fuse(seg)
            keys.pop()
            key = merge_key(seg.h, seg.v)
        stack.append(seg)
        keys.append(key)


def merged_segments(sequences: Iterable[Sequence[Segment]]) -> List[Segment]:
    """The segments of independent sequences in their peak-minimizing order.

    Each sequence is normalized, so its keys are non-decreasing; the greedy
    head merge (consume the smallest head key, the earlier sequence on a
    tie) then yields the segments sorted by ``(key, sequence, position)``,
    which is one stable sort of their concatenation by key.
    """
    segments: List[Segment] = []
    keys: List[Tuple[int, float]] = []
    for seq in sequences:
        _normalize_onto(seq, segments, keys)
    ranks = sorted(range(len(segments)), key=keys.__getitem__)
    return [segments[i] for i in ranks]


def merge_segment_sequences(sequences: List[List[Segment]]) -> Tuple[List[Node], float]:
    """Interleave independent segment sequences minimizing the joint peak.

    Returns the merged task order and its peak (relative to a zero start):
    the two-class rule subject to sequence order, see
    :func:`merged_segments`.
    """
    merged = merged_segments(sequences)
    order = [u for seg in merged for u in seg.tasks]
    return order, peak_of_segments(merged)


def peak_of_segments(segments: Sequence[Segment]) -> float:
    """Peak of executing ``segments`` in the given order from a zero start."""
    live = 0.0
    peak = 0.0
    for seg in segments:
        peak = max(peak, live + seg.h)
        live += seg.v
    return peak
