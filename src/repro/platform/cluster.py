"""The heterogeneous computing system ``S`` (Section 3.2)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.platform.processor import Processor


class Cluster:
    """An ordered collection of processors with a uniform bandwidth ``beta``.

    Processor order is the insertion order; presets insert machines grouped
    by kind, which makes experiment logs and tie-breaking deterministic.
    """

    def __init__(self, processors: Iterable[Processor], bandwidth: float = 1.0,
                 name: str = "cluster", bandwidth_model=None):
        self._procs: List[Processor] = list(processors)
        names = [p.name for p in self._procs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate processor names: {dupes}")
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self._by_name: Dict[str, Processor] = {p.name: p for p in self._procs}
        self.name = name
        if bandwidth_model is not None:
            # heterogeneous interconnect (repro.platform.bandwidth); the
            # scalar `bandwidth` becomes the model's fallback for links
            # whose endpoints are not yet decided
            self.bandwidth_model = bandwidth_model
            self.bandwidth = float(bandwidth_model.default)
        else:
            from repro.platform.bandwidth import UniformBandwidth
            self.bandwidth_model = UniformBandwidth(bandwidth)
            self.bandwidth = float(bandwidth)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._procs)

    def __iter__(self) -> Iterator[Processor]:
        return iter(self._procs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Processor:
        return self._by_name[name]

    @property
    def processors(self) -> List[Processor]:
        return list(self._procs)

    @property
    def k(self) -> int:
        """Number of processors (the paper's ``k``)."""
        return len(self._procs)

    # ------------------------------------------------------------------
    def by_memory_desc(self) -> List[Processor]:
        """Processors sorted by decreasing memory (DagHetMem's packing order).

        Ties broken by decreasing speed, then by name, so the baseline is
        deterministic on clusters with repeated machine kinds.
        """
        return sorted(self._procs, key=lambda p: (-p.memory, -p.speed, p.name))

    def by_speed_desc(self) -> List[Processor]:
        """Processors sorted by decreasing speed (idle-processor moves, Step 4)."""
        return sorted(self._procs, key=lambda p: (-p.speed, -p.memory, p.name))

    def min_memory(self) -> float:
        return min(p.memory for p in self._procs)

    def max_memory(self) -> float:
        return max(p.memory for p in self._procs)

    def smallest_memory_processor(self) -> Processor:
        """``p_min`` of Algorithm 1, Line 14."""
        return min(self._procs, key=lambda p: (p.memory, -p.speed, p.name))

    def link_bandwidth(self, p=None, q=None) -> float:
        """Bandwidth of the link between ``p`` and ``q``.

        Either endpoint may be None (block not yet assigned): the model's
        conservative default is used, which keeps Step 3's *estimated*
        makespans well-defined exactly as the paper's speed-1 rule does
        for unassigned processor speeds.
        """
        if p is None or q is None:
            return self.bandwidth_model.default
        return self.bandwidth_model.between(p, q)

    def with_bandwidth_model(self, model) -> "Cluster":
        """Copy of this cluster with a heterogeneous interconnect model."""
        return Cluster(self._procs, name=self.name, bandwidth_model=model)

    def scaled_memories(self, factor: float) -> "Cluster":
        """Copy with every memory multiplied by ``factor``.

        Used by the experiment harness to "increase memory sizes
        proportionally until the task with the biggest memory requirement
        still has a processor it could be executed on" (Section 5.1.2).
        """
        procs = [Processor(p.name, p.speed, p.memory * factor, p.kind) for p in self._procs]
        return Cluster(procs, name=f"{self.name}-mem{factor:g}x",
                       bandwidth_model=self.bandwidth_model)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible description; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "processors": [[p.name, float(p.speed), float(p.memory), p.kind]
                           for p in self._procs],
            "bandwidth": self.bandwidth_model.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Cluster":
        """Rebuild a cluster (processors + interconnect) from ``to_dict``."""
        from repro.platform.bandwidth import model_from_dict
        procs = [Processor(str(name), float(speed), float(memory), str(kind))
                 for name, speed, memory, kind in data["processors"]]
        return cls(procs, name=str(data.get("name", "cluster")),
                   bandwidth_model=model_from_dict(data["bandwidth"]))

    def __repr__(self) -> str:
        return (f"Cluster({self.name!r}, k={self.k}, beta={self.bandwidth:g}, "
                f"mem=[{self.min_memory():g}..{self.max_memory():g}])")
