"""GPU-model hot-path performance: vectorized engine vs reference SMs.

Times the struct-of-arrays engine (``repro.gpu.engine``) against the
retained per-object reference on a paper benchmark, asserting both the
speedup floor and exact bit-identity of the per-cycle power traces (the
engine's equivalence contract — see ``docs/performance.md``).

The engine has two step backends (a compiled C kernel and a pure-NumPy
fallback); the floor applies to whatever backend resolves on this
machine, and the active backend is recorded in the results JSON.

It also records, without a gate, the absolute cost of the co-sim's
batched GPU step: a fused ``GPUBatch`` of 64 paper-benchmark lanes in
µs per lane-cycle, split into the compiled ``engine_step_batch`` call
and the Python around it (launch checks, launches, lane clocks, the
power copy).

Writes ``benchmarks/results/perf_gpu.json`` so CI can upload the
numbers as an artifact.
"""

import json
import time

import numpy as np
import pytest

from conftest import RESULTS_DIR, SEED, emit
from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.gpu._cbuild import load_engine_lib
from repro.gpu.batch import GPUBatch
from repro.gpu.gpu import GPU
from repro.workloads.benchmarks import BENCHMARK_NAMES, get_benchmark

BENCHMARK = "hotspot"
COMPARE_CYCLES = 1500
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 5.0
FUSED_LANES = 64
FUSED_CYCLES = 1000
RESULTS_FILE = RESULTS_DIR / "perf_gpu.json"


def _record(fields: dict) -> None:
    """Merge ``fields`` into the results JSON (each test owns its keys)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    data = json.loads(RESULTS_FILE.read_text()) if RESULTS_FILE.exists() else {}
    data.update(fields)
    RESULTS_FILE.write_text(json.dumps(data, indent=2) + "\n")


def _make(vectorized: bool) -> GPU:
    spec = get_benchmark(BENCHMARK)
    return GPU(
        spec.kernel,
        config=SystemConfig(),
        seed=SEED,
        miss_ratio=spec.miss_ratio,
        jitter=spec.jitter,
        vectorized=vectorized,
    )


def _lane_gpu(lane: int) -> GPU:
    spec = get_benchmark(BENCHMARK_NAMES[lane % len(BENCHMARK_NAMES)])
    return GPU(
        spec.kernel,
        seed=SEED * 1000 + lane,
        miss_ratio=spec.miss_ratio,
        jitter=spec.jitter,
    )


def _cycles_per_second(vectorized: bool, cycles: int) -> float:
    """Best of TIMING_ROUNDS rounds (robust on a noisy shared core)."""
    gpu = _make(vectorized)
    gpu.run(50)  # warm caches / stream tables / allocator
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        gpu.run(cycles)
        best = min(best, time.perf_counter() - start)
    return cycles / best


def test_bit_identity():
    ref = _make(vectorized=False)
    vec = _make(vectorized=True)
    assert np.array_equal(ref.run(COMPARE_CYCLES), vec.run(COMPARE_CYCLES))
    assert ref.total_instructions() == vec.total_instructions()
    assert ref.total_fake_instructions() == vec.total_fake_instructions()
    assert ref.kernels_launched == vec.kernels_launched


def test_gpu_cycles_per_second(benchmark):
    backend = _make(vectorized=True).engine.backend
    reference = benchmark.pedantic(
        _cycles_per_second, args=(False, 2000), rounds=1, iterations=1
    )
    fast_cycles = 50_000 if backend == "c" else 4000
    fast = _cycles_per_second(True, fast_cycles)
    speedup = fast / reference
    emit(
        "GPU model hot path (16 SMs, hotspot kernel)",
        format_table(
            ["path", "cycles/s"],
            [
                ["per-object reference", f"{reference:,.0f}"],
                [f"vectorized ({backend})", f"{fast:,.0f}"],
                ["speedup", f"{speedup:.1f}x"],
            ],
            title=f"GPU stepping throughput ({BENCHMARK})",
        ),
    )
    _record(
        {
            "benchmark": BENCHMARK,
            "backend": backend,
            "reference_cycles_per_s": reference,
            "vectorized_cycles_per_s": fast,
            "speedup": speedup,
            "floor": SPEEDUP_FLOOR,
        }
    )
    assert speedup >= SPEEDUP_FLOOR


@pytest.mark.skipif(load_engine_lib() is None,
                    reason="compiled GPU engine unavailable")
def test_fused_batch_step_split():
    """Absolute fused B=64 step cost, C call vs Python, best of rounds."""
    batch = GPUBatch([_lane_gpu(lane) for lane in range(FUSED_LANES)])
    out = np.empty((FUSED_LANES, batch.num_sms))
    batch.step_into(out)  # probes and builds the fused dispatch
    fused = batch._fused
    assert fused is not None
    call = fused.call
    in_c = [0.0]

    def timed_call(*args):
        start = time.perf_counter()
        due = call(*args)
        in_c[0] += time.perf_counter() - start
        return due

    fused.call = timed_call
    lane_cycles = FUSED_LANES * FUSED_CYCLES
    best = None
    for _ in range(TIMING_ROUNDS):
        in_c[0] = 0.0
        start = time.perf_counter()
        for _ in range(FUSED_CYCLES):
            batch.step_into(out)
        total = time.perf_counter() - start
        if best is None or total < best[0]:
            best = (total, in_c[0])
    total, c_call = best
    step_us = total * 1e6 / lane_cycles
    c_us = c_call * 1e6 / lane_cycles
    python_us = step_us - c_us

    # The timed lanes stay bit-identical to lone GPUs stepped as far.
    cycles = 1 + TIMING_ROUNDS * FUSED_CYCLES
    for lane in range(0, FUSED_LANES, 8):
        lone = _lane_gpu(lane)
        lone.run(cycles)
        gpu = batch[lane]
        assert lone.kernel_launch_cycles == gpu.kernel_launch_cycles
        assert lone.total_instructions() == gpu.total_instructions()
        assert lone.memory.requests_served == gpu.memory.requests_served
        assert lone.memory._next_service_slot == gpu.memory._next_service_slot

    emit(
        "Fused GPU batch step (64 lanes)",
        format_table(
            ["part", "us/lane-cycle"],
            [
                ["engine_step_batch (C)", f"{c_us:.3f}"],
                ["Python epilogue", f"{python_us:.3f}"],
                ["whole step", f"{step_us:.3f}"],
            ],
            title=f"Fused GPUBatch.step_into, B={FUSED_LANES}",
        ),
    )
    _record(
        {
            "fused_lanes": FUSED_LANES,
            "fused_step_us_per_lane_cycle": step_us,
            "fused_c_call_us_per_lane_cycle": c_us,
            "fused_python_us_per_lane_cycle": python_us,
        }
    )
    assert 0.0 < c_us < step_us
