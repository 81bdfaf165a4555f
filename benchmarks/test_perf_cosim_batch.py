"""Batched co-sim throughput: B=8 lock-stepped lanes vs 8 serial runs.

The batched struct-of-scenarios engine (``repro.sim.cosim.run_cosim_batch``)
exists for exactly one reason — amortizing the per-cycle Python/NumPy
dispatch across B scenarios while staying bit-identical to the serial
oracle (``tests/oracles/serial_cosim.py``, the one-scenario loop the
batch replaced).  This benchmark gates both halves of that contract:

* a B=8 mixed-benchmark batch must run at least ``SPEEDUP_FLOOR`` times
  faster than the same 8 scenarios run through the serial oracle
  in-process, and
* the batch results must be byte-equal to the oracle's results.

It also reports (ungated) ``run_cosim``'s own throughput: since
``run_cosim`` is the batch loop with one lane, that is the B=1 point.

Timing is min-of-``TIMING_ROUNDS`` (robust on a noisy shared CI core).
Writes ``benchmarks/results/perf_cosim_batch.json`` so CI can upload
lane-cycles/s as an artifact.
"""

import json
import time

import numpy as np

from conftest import RESULTS_DIR, emit
from repro.analysis.report import format_table
from repro.sim.cosim import CosimConfig, CosimLane, run_cosim, run_cosim_batch
from tests.oracles.serial_cosim import run_serial_cosim

BATCH = 8
CYCLES = 2000
WARMUP = 200
TIMING_ROUNDS = 3
SPEEDUP_FLOOR = 6.0
LANE_BENCHMARKS = (
    "hotspot", "backprop", "bfs", "srad",
    "pathfinder", "heartwall", "hotspot", "bfs",
)


def _lanes():
    return [
        CosimLane(
            benchmark=name,
            config=CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP, seed=i),
        )
        for i, name in enumerate(LANE_BENCHMARKS)
    ]


def _time_best(fn) -> float:
    best = float("inf")
    for _ in range(TIMING_ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_batch_bit_identity():
    batch = run_cosim_batch(_lanes())
    for lane, result in zip(_lanes(), batch):
        serial = run_serial_cosim(lane.benchmark, config=lane.config)
        assert np.array_equal(result.power_trace.data, serial.power_trace.data)
        assert np.array_equal(result.sm_voltages, serial.sm_voltages)
        assert np.array_equal(result.supply_current, serial.supply_current)
        assert result.instructions == serial.instructions
        assert result.throttled_cycles == serial.throttled_cycles
        assert result.mean_dcc_power_w == serial.mean_dcc_power_w
        assert np.array_equal(result.kernel_durations, serial.kernel_durations)


def test_batch_speedup_floor(benchmark):
    # Warm caches (C engine build, benchmark stream tables, BLAS init)
    # outside the timed region for both paths.
    run_cosim_batch(_lanes()[:1])
    run_serial_cosim(LANE_BENCHMARKS[0], config=_lanes()[0].config)

    batch_s = benchmark.pedantic(
        lambda: _time_best(lambda: run_cosim_batch(_lanes())),
        rounds=1, iterations=1,
    )
    serial_s = _time_best(
        lambda: [
            run_serial_cosim(l.benchmark, config=l.config) for l in _lanes()
        ]
    )
    single_s = _time_best(
        lambda: [run_cosim(l.benchmark, config=l.config) for l in _lanes()]
    )
    speedup = serial_s / batch_s
    lane_cycles = BATCH * (CYCLES + WARMUP)
    emit(
        f"Batched co-sim throughput (B={BATCH} mixed lanes)",
        format_table(
            ["path", "wall s", "lane-cycles/s"],
            [
                ["serial oracle x8", f"{serial_s:.2f}",
                 f"{lane_cycles / serial_s:,.0f}"],
                ["run_cosim (B=1) x8", f"{single_s:.2f}",
                 f"{lane_cycles / single_s:,.0f}"],
                [f"batched B={BATCH}", f"{batch_s:.2f}",
                 f"{lane_cycles / batch_s:,.0f}"],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
            title="run_cosim_batch vs the serial oracle",
        ),
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "perf_cosim_batch.json", "w") as handle:
        json.dump(
            {
                "batch_size": BATCH,
                "lane_benchmarks": list(LANE_BENCHMARKS),
                "cycles": CYCLES,
                "warmup_cycles": WARMUP,
                "serial_s": serial_s,
                "batch_s": batch_s,
                "speedup": speedup,
                "lane_cycles_per_s_batched": lane_cycles / batch_s,
                # Reported, not gated: run_cosim is the B=1 batch.
                "single_s": single_s,
                "lane_cycles_per_s_single": lane_cycles / single_s,
                "speedup_floor": SPEEDUP_FLOOR,
            },
            handle,
            indent=2,
        )
        handle.write("\n")
    assert speedup >= SPEEDUP_FLOOR, (
        f"B={BATCH} batch is only {speedup:.2f}x faster than the serial "
        f"oracle (floor {SPEEDUP_FLOOR}x)"
    )
