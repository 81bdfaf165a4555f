"""Correctness checks and the environment fingerprint of a benchmark run.

A lane *fails* when its result diverged or holds a non-finite array,
when its digest differs between repetitions (or between the traced and
untraced run), when the batch≡serial cross-check disagrees, or when its
default-seed physics falls outside the ``repro compare`` tolerances of
``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Mapping

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: The repo's physics gates; the reference check reads its tolerances.
REPO_THRESHOLDS = HERE.parent / "benchmarks" / "baselines" / "thresholds.json"
#: Per-lane physics the reference check gates.
PHYSICS_KEYS = ("min_voltage_v", "throughput_ipc", "pde")


def digest(result) -> str:
    """sha256 over every physics field of a ``CosimResult``.

    Covers the waveforms, the work counters, the DCC ledger, the fault
    report and the divergence verdict; the flight recorder is
    observation only and left out.
    """
    h = hashlib.sha256()
    for arr in (result.sm_voltages, result.supply_current,
                result.power_trace.data, result.kernel_durations):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype}{arr.shape}".encode())
        h.update(arr.tobytes())
    scalars = (
        result.benchmark, result.instructions, result.fake_instructions,
        result.throttled_cycles, result.kernels_completed,
        float(result.mean_dcc_power_w).hex(),
        float(result.controller_power_w).hex(),
    )
    h.update(repr(scalars).encode())
    h.update(json.dumps([result.fault_report, result.divergence],
                        sort_keys=True, default=repr).encode())
    return h.hexdigest()


def lane_summary(result) -> Dict[str, object]:
    """The per-lane numbers the checks and ``sim_*`` metrics use."""
    finite = all(
        bool(np.isfinite(arr).all())
        for arr in (result.sm_voltages, result.supply_current,
                    result.power_trace.data)
    )
    return {
        "benchmark": result.benchmark,
        "healthy": finite and not result.diverged,
        "min_voltage_v": result.min_voltage,
        "throughput_ipc": result.throughput(),
        "pde": result.efficiency().pde,
        "digest": digest(result),
    }


def load_reference() -> Dict[str, object]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def reference_check(
    workload: str, shape: Mapping[str, int], lanes: List[Mapping],
    reference: Mapping[str, object],
) -> Dict[str, object]:
    """Compare default-seed lane summaries with the reference.

    Returns ``{"failed": [lane indices], "identical": n}``: a lane fails
    when a :data:`PHYSICS_KEYS` value differs from the reference by more
    than the repo threshold's tolerance; ``identical`` counts lanes
    whose digest matches the reference bit for bit.  A reference taken
    with another run shape fails every lane.
    """
    from repro.analysis.compare import load_thresholds

    gates = load_thresholds(REPO_THRESHOLDS)
    ref_lanes = (reference.get("workloads") or {}).get(workload)
    if (
        ref_lanes is None
        or any(reference.get(k) != v for k, v in shape.items())
        or len(ref_lanes) != len(lanes)
    ):
        return {"failed": list(range(len(lanes))), "identical": 0}
    failed, identical = [], 0
    for i, (ref, lane) in enumerate(zip(ref_lanes, lanes)):
        bad = ref["benchmark"] != lane["benchmark"] or any(
            not abs(lane[k] - ref[k]) <= gates[k].tolerance(ref[k])
            for k in PHYSICS_KEYS
        )
        if bad:
            failed.append(i)
        identical += lane["digest"] == ref["digest"]
    return {"failed": failed, "identical": identical}


def _first_line(cmd: List[str]) -> str:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    lines = (out.stdout or out.stderr).strip().splitlines()
    return lines[0] if lines else "unavailable"


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, object]:
    """What was measured: host, toolchain, BLAS, threads and backends.

    ``valid`` is false when a C kernel fell back to NumPy, a backend is
    not the compiled one, or the process runs more than one thread.
    """
    import scipy

    from repro.circuits import _solverc
    from repro.gpu import _cbuild
    from repro.gpu.gpu import GPU
    from repro.sim.cosim import last_batch_solver_info
    from repro.workloads.benchmarks import get_benchmark

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    solver = last_batch_solver_info()
    threads = _proc_field("/proc/self/status", "Threads")
    env = {
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "cc_version": _first_line(["cc", "--version"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": int(threads) if threads.isdigit() else 0,
        "gpu_backend": GPU(get_benchmark("hotspot").kernel).engine.backend,
        "solver_backend": solver.get("backend", "unknown"),
        "solver_shards": solver.get("shards", 0),
        "gpu_build_fallbacks": _cbuild.build_fallback_count(),
        "solver_build_fallbacks": _solverc.build_fallback_count(),
    }
    env["valid"] = (
        env["gpu_build_fallbacks"] == 0
        and env["solver_build_fallbacks"] == 0
        and env["gpu_backend"] == "c"
        and env["solver_backend"] == "c"
        and env["threads"] == 1
    )
    return env
