"""Cycle-by-cycle state equality of the C and NumPy engine backends.

The C step caches each warp's head readiness (the NumPy backend's
``_ready_cycle``) in the same buffer and refreshes an entry only when
the warp issues or one of its loads completes.  These tests step one GPU
per backend in lock-step and compare, after every cycle, the power
vector and the full engine state: PCs, scoreboards, the readiness cache,
statistics and the pending-load heaps (as sorted entry lists: the C
heap and ``heapq`` sift differently, so only their contents must
agree).  The scenarios target the cache's refresh points:
short kernels with many relaunches and stale heap entries, DFS-masked
cycles, gated and waking units, and 32-warp SMs — plus the GATES
scheduler under per-SM preference masks that change mid-run.
"""

import numpy as np
import pytest

from repro.gpu._cbuild import load_engine_lib
from repro.gpu.gpu import GPU
from repro.gpu.isa import ExecUnit, InstructionClass
from repro.gpu.kernels import KernelSpec
from repro.workloads.benchmarks import get_benchmark

pytestmark = pytest.mark.skipif(
    load_engine_lib() is None, reason="compiled GPU engine unavailable"
)

STATE = (
    "prefer", "_pc", "_length", "_warp_done", "_outstanding", "_ready_at",
    "_ready_cycle", "_last_warp", "_window_start", "_issue_budget",
    "_fake_acc", "_clock_acc", "_wheel", "_wheel_pos", "unit_idle",
    "stat_cycles", "stat_active", "stat_instructions", "stat_fakes",
    "stat_stalls", "stat_kernels", "_totals",
)


def _pair(monkeypatch, spec, **kwargs):
    gpus = []
    for backend in ("numpy", "c"):
        monkeypatch.setenv("REPRO_GPU_BACKEND", backend)
        gpus.append(GPU(spec, **kwargs))
    monkeypatch.delenv("REPRO_GPU_BACKEND")
    assert [g.engine.backend for g in gpus] == ["numpy", "c"]
    return gpus


def _heaps(engine):
    if engine.backend == "c":
        return [
            sorted((e >> 24, (e >> 8) & 0xFFFF, e & 0xFF)
                   for e in engine._cheap[: engine._cheap_len[s], s].tolist())
            for s in range(engine.num_sms)
        ]
    return [sorted(heap) for heap in engine._pending]


def _lockstep(ref, fast, cycles, actuate=None):
    """Step both GPUs; return how many launches found loads in flight."""
    stale_launches = 0
    for cycle in range(cycles):
        if actuate is not None:
            actuate(ref, cycle)
            actuate(fast, cycle)
        launched = ref.kernels_launched
        heaps_before = _heaps(fast.engine)
        assert np.array_equal(ref.step(), fast.step()), cycle
        if ref.kernels_launched > launched and any(heaps_before):
            stale_launches += 1
        for name in STATE:
            a, b = getattr(ref.engine, name), getattr(fast.engine, name)
            assert np.array_equal(a, b), (name, cycle)
        assert _heaps(ref.engine) == _heaps(fast.engine), cycle
        mr, mf = ref.memory, fast.memory
        assert (mr.requests_served, mr.misses, mr._next_service_slot) == (
            mf.requests_served, mf.misses, mf._next_service_slot
        ), cycle
    assert ref.kernel_launch_cycles == fast.kernel_launch_cycles
    return stale_launches


class TestReadinessCache:
    def test_short_kernels_relaunch_over_stale_loads(self, monkeypatch):
        """Loads stay in flight across a relaunch only on barrier-exempt
        SMs; their completions then hit the new kernel's warps."""
        spec = KernelSpec("short", dependence=0.0, body_length=20,
                          warps_per_sm=6)
        ref, fast = _pair(monkeypatch, spec, seed=12, miss_ratio=0.05,
                          jitter=0.3)

        def actuate(gpu, cycle):
            if cycle % 200 == 50:
                gpu.barrier_exempt = set(range(cycle % 7, 16, 2))
            elif cycle % 200 == 150:
                gpu.barrier_exempt = set()

        stale = _lockstep(ref, fast, 3000, actuate)
        assert ref.kernels_launched >= 10
        assert stale > 0  # relaunches really met loads still in flight

    def test_dfs_masked_cycles(self, monkeypatch):
        spec = KernelSpec("dfs", body_length=60, warps_per_sm=6)
        ref, fast = _pair(monkeypatch, spec, seed=4, miss_ratio=0.4,
                          jitter=0.1)
        rng = np.random.default_rng(8)
        scales = {int(c): rng.uniform(0.2, 1.0, 16)
                  for c in rng.integers(0, 900, 10)}

        def actuate(gpu, cycle):
            if cycle in scales:
                gpu.set_frequency_scales(scales[cycle])

        _lockstep(ref, fast, 900, actuate)
        assert ref.engine.stat_active.sum() < ref.engine.stat_cycles.sum()

    def test_gated_and_waking_units(self, monkeypatch):
        spec = KernelSpec(
            "gate",
            mix={
                InstructionClass.FALU: 0.4,
                InstructionClass.SFU: 0.3,
                InstructionClass.LOAD: 0.3,
            },
            body_length=80,
            warps_per_sm=6,
        )
        ref, fast = _pair(monkeypatch, spec, seed=9, miss_ratio=0.3,
                          jitter=0.05)
        rng = np.random.default_rng(2)
        units = list(ExecUnit)
        events = {
            int(c): (int(rng.integers(0, 16)), units[int(rng.integers(0, 3))],
                     bool(rng.integers(0, 2)))
            for c in rng.integers(0, 800, 40)
        }

        def actuate(gpu, cycle):
            if cycle not in events:
                return
            sm, unit, gate = events[cycle]
            if gate:
                gpu.sms[sm].gate_unit(unit)
            else:
                gpu.sms[sm].ungate_unit(unit, cycle)

        _lockstep(ref, fast, 800, actuate)

    def test_gates_preference_with_gated_and_waking_units(self, monkeypatch):
        """GATES pools differ per SM and change mid-run: all-true rows
        (plain GTO), all-false rows (pool = every ready warp) and mixed
        rows, over gating, waking and kernel relaunches."""
        spec = KernelSpec(
            "gates",
            mix={
                InstructionClass.FALU: 0.4,
                InstructionClass.SFU: 0.3,
                InstructionClass.LOAD: 0.3,
            },
            dependence=0.1,
            body_length=40,
            warps_per_sm=6,
        )
        ref, fast = _pair(monkeypatch, spec, seed=21, miss_ratio=0.1,
                          jitter=0.2)
        rng = np.random.default_rng(5)
        masks = {int(c): rng.integers(0, 2, (16, 3)).astype(bool)
                 for c in range(0, 1500, 60)}
        units = list(ExecUnit)
        # Each unit gated at cycle c starts waking 25 cycles later.
        gating = {}
        for c in rng.integers(0, 1500, 120).tolist():
            sm, unit = int(rng.integers(0, 16)), units[int(rng.integers(0, 3))]
            gating.setdefault(c, []).append((sm, unit, True))
            gating.setdefault(c + 25, []).append((sm, unit, False))

        def actuate(gpu, cycle):
            if cycle in masks:
                gpu.engine.prefer[:] = masks[cycle]
                gpu.engine.prefer[cycle % 16] = True
            for sm, unit, gate in gating.get(cycle, ()):
                if gate:
                    gpu.sms[sm].gate_unit(unit)
                else:
                    gpu.sms[sm].ungate_unit(unit, cycle)

        _lockstep(ref, fast, 1500, actuate)
        assert ref.kernels_launched >= 3
        assert not ref.engine.prefer.all()

    def test_32_warp_bfs(self, monkeypatch):
        bench = get_benchmark("bfs")
        assert bench.kernel.warps_per_sm == 32
        ref, fast = _pair(monkeypatch, bench.kernel, seed=3,
                          miss_ratio=bench.miss_ratio, jitter=bench.jitter)
        _lockstep(ref, fast, 1200)
