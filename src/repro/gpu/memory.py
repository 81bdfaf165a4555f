"""Shared L2 / DRAM memory model.

A latency + bandwidth model, not a functional cache: each load is
assigned a service latency (L2 hit or DRAM miss, drawn per-request from
the kernel's miss ratio) and queues against a global requests-per-cycle
bandwidth limit shared by all SMs — the FR-FCFS controller and 179.2
GB/s channel limit of Table I reduced to their timing effect.

SMs call :meth:`request` at issue time and receive the absolute cycle
the value becomes ready; completion releases the destination register in
the warp's scoreboard (handled by the SM).

The queue slot and the served/miss counters live in small NumPy arrays
that the compiled engine step updates in place (see :meth:`rehome`), so
every reader sees exact values at any time without a per-cycle sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class MemoryTimings:
    """Service latencies and bandwidth of the memory hierarchy."""

    l2_hit_cycles: int = 32
    dram_cycles: int = 220
    # Requests the whole chip can start servicing per cycle (6 channels).
    requests_per_cycle: int = 12

    def __post_init__(self) -> None:
        if self.l2_hit_cycles <= 0 or self.dram_cycles <= 0:
            raise ValueError("latencies must be positive")
        if self.requests_per_cycle <= 0:
            raise ValueError("requests_per_cycle must be positive")


class MemorySystem:
    """Global latency/bandwidth arbiter shared by every SM."""

    def __init__(
        self,
        miss_ratio: float = 0.3,
        timings: MemoryTimings = MemoryTimings(),
        seed: int = 0,
    ) -> None:
        if not 0.0 <= miss_ratio <= 1.0:
            raise ValueError(f"miss_ratio must be in [0,1], got {miss_ratio}")
        self.miss_ratio = miss_ratio
        self.timings = timings
        self._seed = seed + 1
        self._rng = np.random.default_rng(seed)
        # [0]: earliest cycle at which the next request can start service.
        self._slot = np.zeros(1)
        # [requests served, misses].
        self._counts = np.zeros(2, dtype=np.int64)

    def rehome(self, slot: np.ndarray, counts: np.ndarray) -> None:
        """Move the queue slot and counters into caller-owned storage.

        ``slot`` is a ``(1,)`` float64 view and ``counts`` a ``(2,)``
        int64 view (e.g. rows of a batch's shared arrays); the current
        values are copied in first.  Whoever holds raw pointers to the
        old storage (a compiled engine state) must be repointed.
        """
        slot[:] = self._slot
        counts[:] = self._counts
        self._slot = slot
        self._counts = counts

    @property
    def _next_service_slot(self) -> float:
        return float(self._slot[0])

    @property
    def requests_served(self) -> int:
        return int(self._counts[0])

    @property
    def misses(self) -> int:
        return int(self._counts[1])

    def request(self, cycle: int, key: Optional[tuple] = None) -> int:
        """Issue a load at ``cycle``; return its completion cycle.

        ``key`` identifies the access site (e.g. ``(warp id, pc)``).
        When given, hit/miss is a *deterministic* function of the key —
        so under the SPMD model every SM executing the same code sees
        the same microarchitectural events, the property that keeps
        layer currents balanced (Section III-A).  Without a key the
        outcome is drawn randomly at the configured miss ratio.
        """
        slot_width = 1.0 / self.timings.requests_per_cycle
        start = max(float(cycle), self._next_service_slot)
        self._slot[0] = start + slot_width
        queue_delay = start - cycle
        if key is not None:
            draw = self._site_hash(key)
        else:
            draw = self._rng.random()
        if draw < self.miss_ratio:
            latency = self.timings.dram_cycles
            self._counts[1] += 1
        else:
            latency = self.timings.l2_hit_cycles
        self._counts[0] += 1
        return int(cycle + queue_delay + latency)

    def service_batch(self, cycle: int, latencies: np.ndarray, miss_count: int) -> np.ndarray:
        """Serve one cycle's loads in arrival order; return completion cycles.

        Batched form of :meth:`request` for the vectorized engine: the
        caller resolves hit/miss per request (via :meth:`site_miss_table`)
        and passes the service ``latencies`` in the exact order the
        reference model would have called :meth:`request`.  The bandwidth
        recurrence ``start = max(cycle, slot); slot = start + width`` is
        a running sum once the first start is pinned, so a cumulative sum
        reproduces it add-for-add (bit-identical floats).
        """
        n = len(latencies)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        slot_width = 1.0 / self.timings.requests_per_cycle
        increments = np.full(n, slot_width)
        increments[0] = max(float(cycle), self._next_service_slot)
        starts = np.cumsum(increments)
        self._slot[0] = float(starts[-1]) + slot_width
        queue_delay = starts - float(cycle)
        completions = ((cycle + queue_delay) + latencies).astype(np.int64)
        self._counts[0] += n
        self._counts[1] += int(miss_count)
        return completions

    def site_miss_table(
        self, num_warps: int, max_pc: int, generation: int
    ) -> np.ndarray:
        """Hit/miss for every ``(warp_id, pc, generation)`` access site.

        Precomputes :meth:`_site_hash` over the full (warp, pc) grid of
        one kernel generation — the site key is SM-independent under
        SPMD, so one table serves all SMs.  Entry ``[warp_id, pc]`` is
        True when a load issued from that site misses to DRAM.
        """
        mask = (1 << 32) - 1
        c1, c2 = 0x7F4A7C15, 0x85EBCA6B
        # First mixing step in Python ints: the seed product is taken
        # unreduced in the reference, so it may exceed 64 bits.
        h1 = np.array(
            [
                ((self._seed * 0x9E3779B1) ^ (warp_id + c1)) * c2 & mask
                for warp_id in range(num_warps)
            ],
            dtype=np.uint64,
        )
        u64 = np.uint64
        pcs = np.arange(max_pc, dtype=u64)
        h2 = ((h1[:, None] ^ (pcs + u64(c1))) * u64(c2)) & u64(mask)
        gen_key = u64((int(generation) + c1) & ((1 << 64) - 1))
        h3 = ((h2 ^ gen_key) * u64(c2)) & u64(mask)
        return h3.astype(float) / float(1 << 32) < self.miss_ratio

    def _site_hash(self, key: tuple) -> float:
        """Stable uniform draw in [0, 1) from an access-site key."""
        h = self._seed * 0x9E3779B1
        for part in key:
            h = (h ^ (int(part) + 0x7F4A7C15)) * 0x85EBCA6B % (1 << 32)
        return h / float(1 << 32)

    @property
    def observed_miss_ratio(self) -> float:
        if self.requests_served == 0:
            return 0.0
        return self.misses / self.requests_served

    def reset_statistics(self) -> None:
        self._counts[:] = 0
