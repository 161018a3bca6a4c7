"""Tests of processors, clusters, and the paper's presets (Tables 2-3)."""

import pytest

from repro.platform.cluster import Cluster
from repro.platform.presets import (
    MACHINE_KINDS,
    MACHINE_KINDS_LESSHET,
    MACHINE_KINDS_MOREHET,
    cluster_by_name,
    default_cluster,
    large_cluster,
    lesshet_cluster,
    morehet_cluster,
    nohet_cluster,
    small_cluster,
)
from repro.platform.processor import Processor


class TestProcessor:
    def test_fits(self):
        p = Processor("p", speed=1.0, memory=16.0)
        assert p.fits(16.0)
        assert not p.fits(16.1)

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            Processor("p", speed=0.0, memory=1.0)

    def test_invalid_memory_rejected(self):
        with pytest.raises(ValueError):
            Processor("p", speed=1.0, memory=-1.0)


class TestCluster:
    def test_duplicate_names_rejected(self):
        procs = [Processor("same", 1, 1), Processor("same", 2, 2)]
        with pytest.raises(ValueError, match="duplicate"):
            Cluster(procs)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Cluster([Processor("p", 1, 1)], bandwidth=0.0)

    def test_by_memory_desc_deterministic(self, tiny_hetero_cluster):
        names = [p.name for p in tiny_hetero_cluster.by_memory_desc()]
        assert names == ["big", "slow", "fast", "tiny"]

    def test_by_speed_desc(self, tiny_hetero_cluster):
        names = [p.name for p in tiny_hetero_cluster.by_speed_desc()]
        assert names == ["fast", "tiny", "big", "slow"]

    def test_smallest_memory_processor(self, tiny_hetero_cluster):
        assert tiny_hetero_cluster.smallest_memory_processor().name == "tiny"

    def test_scaled_memories(self, tiny_hetero_cluster):
        scaled = tiny_hetero_cluster.scaled_memories(2.0)
        assert scaled["big"].memory == 200.0
        assert scaled["big"].speed == tiny_hetero_cluster["big"].speed

    def test_lookup(self, tiny_hetero_cluster):
        assert "fast" in tiny_hetero_cluster
        assert tiny_hetero_cluster["fast"].speed == 8.0


class TestPresets:
    """The presets must never drift from Tables 2 and 3."""

    def test_table2_values(self):
        assert MACHINE_KINDS == [
            ("local", 4, 16), ("A1", 32, 32), ("A2", 6, 64),
            ("N1", 12, 16), ("N2", 8, 8), ("C2", 32, 192),
        ]

    def test_table3_morehet(self):
        assert MACHINE_KINDS_MOREHET == [
            ("local*", 2, 8), ("A1*", 64, 64), ("A2*", 3, 128),
            ("N1*", 24, 8), ("N2*", 4, 4), ("C2*", 64, 384),
        ]

    def test_table3_lesshet_keeps_192(self):
        assert MACHINE_KINDS_LESSHET[-1] == ("C2'", 16, 192)

    def test_default_cluster_has_36_nodes(self):
        cluster = default_cluster()
        assert cluster.k == 36
        kinds = {p.kind for p in cluster}
        assert kinds == {"local", "A1", "A2", "N1", "N2", "C2"}

    def test_small_and_large_sizes(self):
        assert small_cluster().k == 18
        assert large_cluster().k == 60

    def test_nohet_is_all_c2(self):
        cluster = nohet_cluster()
        assert cluster.k == 36
        assert all(p.speed == 32 and p.memory == 192 for p in cluster)

    def test_morehet_widened_spread(self):
        default_speeds = [s for _, s, _ in MACHINE_KINDS]
        morehet_speeds = [p.speed for p in morehet_cluster()]
        assert max(morehet_speeds) / min(morehet_speeds) > \
            max(default_speeds) / min(default_speeds)

    def test_lesshet_narrowed_spread(self):
        lesshet_speeds = [p.speed for p in lesshet_cluster()]
        default_speeds = [s for _, s, _ in MACHINE_KINDS]
        assert max(lesshet_speeds) / min(lesshet_speeds) < \
            max(default_speeds) / min(default_speeds)

    def test_cluster_by_name(self):
        assert cluster_by_name("default").k == 36
        assert cluster_by_name("large", bandwidth=2.0).bandwidth == 2.0
        with pytest.raises(KeyError, match="valid"):
            cluster_by_name("nonexistent")
