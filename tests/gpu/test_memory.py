"""Tests for the shared memory system model."""

import numpy as np
import pytest

from repro.gpu.memory import MemorySystem, MemoryTimings


class TestTimings:
    def test_defaults_valid(self):
        MemoryTimings()

    def test_rejects_bad_latencies(self):
        with pytest.raises(ValueError):
            MemoryTimings(l2_hit_cycles=0)
        with pytest.raises(ValueError):
            MemoryTimings(dram_cycles=-1)
        with pytest.raises(ValueError):
            MemoryTimings(requests_per_cycle=0)


class TestLatency:
    def test_all_hits_return_l2_latency(self):
        m = MemorySystem(miss_ratio=0.0, seed=1)
        done = m.request(100)
        assert done == 100 + m.timings.l2_hit_cycles

    def test_all_misses_return_dram_latency(self):
        m = MemorySystem(miss_ratio=1.0, seed=1)
        done = m.request(100)
        assert done == 100 + m.timings.dram_cycles

    def test_miss_ratio_statistics(self):
        m = MemorySystem(miss_ratio=0.25, seed=2)
        for _ in range(4000):
            m.request(0)
        assert m.observed_miss_ratio == pytest.approx(0.25, abs=0.03)

    def test_invalid_miss_ratio_rejected(self):
        with pytest.raises(ValueError):
            MemorySystem(miss_ratio=1.5)


class TestBandwidth:
    def test_burst_queues_beyond_bandwidth(self):
        m = MemorySystem(miss_ratio=0.0, seed=3)
        per_cycle = m.timings.requests_per_cycle
        completions = [m.request(0) for _ in range(per_cycle * 10)]
        # The last request of the burst waits ~9 extra cycles for service.
        assert max(completions) >= min(completions) + 9

    def test_spread_requests_not_delayed(self):
        m = MemorySystem(miss_ratio=0.0, seed=4)
        l2 = m.timings.l2_hit_cycles
        for cycle in range(0, 100, 10):
            assert m.request(cycle) == cycle + l2

    def test_reset_statistics(self):
        m = MemorySystem(miss_ratio=0.5, seed=5)
        m.request(0)
        m.reset_statistics()
        assert m.requests_served == 0
        assert m.observed_miss_ratio == 0.0


class TestSiteMissTable:
    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    def test_table_matches_site_hash(self, seed):
        m = MemorySystem(miss_ratio=0.4, seed=seed)
        for generation in (0, 5, 2**33):
            table = m.site_miss_table(6, 40, generation)
            want = np.array([
                [m._site_hash((w, pc, generation)) < m.miss_ratio
                 for pc in range(40)]
                for w in range(6)
            ])
            assert np.array_equal(table, want)


class TestRehome:
    def test_counters_read_through_new_storage(self):
        m = MemorySystem(miss_ratio=1.0, seed=6)
        m.request(0)
        m.request(0)
        slot = np.zeros(1)
        counts = np.zeros(2, dtype=np.int64)
        before = m._next_service_slot
        m.rehome(slot, counts)
        assert (m.requests_served, m.misses) == (2, 2)
        assert m._next_service_slot == before == slot[0]
        # Writers to the new storage (a compiled step) are seen as-is.
        counts += 3
        slot[0] = 9.5
        assert (m.requests_served, m.misses) == (5, 5)
        assert m._next_service_slot == 9.5
        assert m.request(10) == 10 + m.timings.dram_cycles
        assert counts.tolist() == [6, 6]
