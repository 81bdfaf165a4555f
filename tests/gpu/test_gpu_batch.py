"""Tests for the lock-stepped GPU batch facade and ``step_into``.

``GPU.step_into(out)`` must be bit-identical to ``out[:] = gpu.step()``
— including around barrier-exempt changes, which exercise the lazy
exempt-mask refresh — and ``GPUBatch`` must keep B independent lanes
byte-equal to B serial GPUs, also while some lanes carry barrier-exempt
(halted) SMs on the fused compiled step.
"""

import numpy as np
import pytest

from repro.gpu import GPU, KernelSpec
from repro.gpu._cbuild import load_engine_lib
from repro.gpu.batch import GPUBatch
from tests.oracles.gpu_reference import ReferenceGPU


def _gpu(seed, vectorized=True, body=250):
    return (GPU if vectorized else ReferenceGPU)(
        KernelSpec("t", body_length=body), seed=seed, jitter=0.05,
    )


class TestStepInto:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_matches_step(self, vectorized):
        a = _gpu(3, vectorized)
        b = _gpu(3, vectorized)
        out = np.empty(a.num_sms)
        for cycle in range(400):
            ref = a.step()
            assert np.array_equal(b.step_into(out), ref), cycle
        assert a.kernels_launched == b.kernels_launched
        assert a.kernel_launch_cycles == b.kernel_launch_cycles

    def test_exempt_mask_refresh_round_trip(self):
        """Setting then clearing barrier_exempt must not leave stale
        mask bits behind (the lazy refresh's dirty-flag contract)."""
        a = _gpu(7)
        b = _gpu(7)
        out = np.empty(a.num_sms)
        for cycle in range(600):
            if cycle == 150:
                a.barrier_exempt = {0, 1, 2, 3}
                b.barrier_exempt = {0, 1, 2, 3}
            if cycle == 300:
                a.barrier_exempt = set()
                b.barrier_exempt = set()
            assert np.array_equal(b.step_into(out), a.step()), cycle
        assert a.kernel_launch_cycles == b.kernel_launch_cycles


class TestGPUBatch:
    def test_lanes_match_serial_gpus(self):
        seeds = [1, 5, 9]
        serial = [_gpu(s) for s in seeds]
        batch = GPUBatch([_gpu(s) for s in seeds])
        out = np.empty((len(seeds), batch.num_sms))
        for cycle in range(350):
            batch.step_into(out)
            for i, gpu in enumerate(serial):
                assert np.array_equal(out[i], gpu.step()), (i, cycle)
        assert batch.total_instructions() == sum(
            g.total_instructions() for g in serial
        )
        assert batch.total_fake_instructions() == sum(
            g.total_fake_instructions() for g in serial
        )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            GPUBatch([])

    def test_lane_access(self):
        gpus = [_gpu(1), _gpu(2)]
        batch = GPUBatch(gpus)
        assert len(batch) == 2
        assert batch[1] is gpus[1]
        assert list(batch) == gpus


class TestFusedBarrierExempt:
    """Lanes with changing barrier-exempt sets stay on the fused step."""

    # cycle -> {lane: exempt set}; overlapping, changing and cleared sets.
    SCHEDULE = {
        100: {0: set(range(12))},
        300: {1: {12, 13}},
        500: {0: set(), 2: set(range(8))},
        700: {1: {12, 13, 14}, 0: set(range(4, 16))},
        900: {2: {5}},
        1100: {1: set(), 2: set()},
    }

    @pytest.mark.skipif(load_engine_lib() is None,
                        reason="compiled GPU engine unavailable")
    def test_exempt_lanes_match_lone_gpus(self):
        seeds = [2, 4, 6]
        # Short kernels: several launch barriers in the window.
        lone = [_gpu(s, body=20) for s in seeds]
        gpus = [_gpu(s, body=20) for s in seeds]
        batch = GPUBatch(gpus)
        plain = _gpu(seeds[0], body=20)  # lane 0 without exemptions
        out = np.empty((len(seeds), batch.num_sms))
        for cycle in range(1400):
            for lane, exempt in self.SCHEDULE.get(cycle, {}).items():
                lone[lane].barrier_exempt = set(exempt)
                gpus[lane].barrier_exempt = set(exempt)
            batch.step_into(out)
            plain.step()
            for i, gpu in enumerate(lone):
                assert np.array_equal(out[i], gpu.step()), (i, cycle)
        assert batch._fused is not None  # never left the fused call
        for a, b in zip(lone, gpus):
            assert a.kernel_launch_cycles == b.kernel_launch_cycles
            assert a.kernels_launched == b.kernels_launched
            ma, mb = a.engine.memory, b.engine.memory
            assert ma.requests_served == mb.requests_served
            assert ma.misses == mb.misses
            assert ma._next_service_slot == mb._next_service_slot
        # The exemptions really moved lane 0's launch barrier.
        assert lone[0].kernel_launch_cycles != plain.kernel_launch_cycles


class TestFusedReadThrough:
    """Readers of a fused lane see exact values at any cycle.

    The compiled step updates each lane's memory-queue slot, counters
    and kernel-done census in the batch's shared rows; MemorySystem and
    the engine read through them, mid-run and after a quarantine-style
    rebuild that re-homes the survivors into a new batch.
    """

    @staticmethod
    def _assert_same(a, b, cycle):
        ma, mb = a.memory, b.memory
        assert (ma.requests_served, ma.misses, ma._next_service_slot) == (
            mb.requests_served, mb.misses, mb._next_service_slot
        ), cycle
        assert np.array_equal(
            a.engine.kernel_done_mask(), b.engine.kernel_done_mask()
        ), cycle
        assert a.kernel_launch_cycles == b.kernel_launch_cycles, cycle

    @pytest.mark.skipif(load_engine_lib() is None,
                        reason="compiled GPU engine unavailable")
    def test_mid_run_and_after_rebuild(self):
        seeds = [3, 8, 13]
        lone = [_gpu(s, body=20) for s in seeds]
        gpus = [_gpu(s, body=20) for s in seeds]
        batch = GPUBatch(gpus)
        out = np.empty((len(seeds), batch.num_sms))
        for cycle in range(600):
            batch.step_into(out)
            for i, gpu in enumerate(lone):
                assert np.array_equal(out[i], gpu.step()), (i, cycle)
                self._assert_same(gpu, gpus[i], cycle)
        assert batch._fused is not None
        assert all(g.memory.requests_served > 0 for g in gpus)

        # Lane 1 is evicted: the survivors move to a fresh batch, the
        # evicted lane keeps stepping on its own.
        survivors = GPUBatch([gpus[0], gpus[2]])
        out = np.empty((2, survivors.num_sms))
        for cycle in range(600, 1400):
            survivors.step_into(out)
            evicted = gpus[1].step()
            assert np.array_equal(evicted, lone[1].step()), cycle
            for row, i in enumerate((0, 2)):
                assert np.array_equal(out[row], lone[i].step()), (i, cycle)
            for a, b in zip(lone, gpus):
                self._assert_same(a, b, cycle)
        assert survivors._fused is not None
        assert all(len(g.kernel_launch_cycles) > 2 for g in gpus)
