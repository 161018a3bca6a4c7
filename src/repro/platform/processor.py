"""A single processor with individual memory size and speed."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Processor:
    """One compute node of the heterogeneous system ``S``.

    Attributes
    ----------
    name:
        Unique identifier within a cluster (e.g. ``"C2-3"``).
    speed:
        Normalized CPU speed ``s_j``; executing task ``u`` takes
        ``w_u / s_j`` time units.
    memory:
        Memory size ``M_j`` in the same (normalized GB) unit as task memory
        weights and edge costs.
    kind:
        Machine-kind label from Table 2 (``local``, ``A1``, ... ``C2``);
        purely informational.
    """

    name: str
    speed: float
    memory: float
    kind: str = field(default="", compare=False)

    def __post_init__(self):
        if self.speed <= 0:
            raise ValueError(f"processor {self.name!r}: speed must be positive, got {self.speed}")
        if self.memory <= 0:
            raise ValueError(f"processor {self.name!r}: memory must be positive, got {self.memory}")

    def fits(self, requirement: float) -> bool:
        """Whether a block with peak-memory ``requirement`` fits here."""
        return requirement <= self.memory
