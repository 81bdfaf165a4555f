"""Warped-Gates PG with GATES on the engine equals the per-object oracle.

``run_pg_experiment`` drives engine-backed SMs: the controller reads
head-instruction demand from the engine's live PCs and writes the SM's
GATES preference row.  The oracle loop below is the same experiment on
``tests/oracles/gpu_reference.py``'s per-object SMs, each with a
``GatingAwareScheduler`` whose active set the controller refreshes.
Trace, instruction count, hypervisor vetoes and every SM's
``GatingStatistics`` must be equal, on both engine backends.

The tight-budget cases (leakage budget 0.01 W, re-validated every 3 or
7 cycles) make the hypervisor wake units *after* the controllers
stepped, so the scheduler's preference is one cycle stale; they pin
that the engine prefers the controller's snapshot, not the live gate
state.  That difference rarely changes a pick: an engine preferring the
live gate state first diverges at cycle 645 (srad, period 7) and 694
(blackscholes, period 3), hence the longer tight runs.
"""

import functools

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core.hypervisor import HypervisorConfig, VSAwareHypervisor
from repro.gpu._cbuild import load_engine_lib
from repro.gpu.gpu import GPU
from repro.gpu.isa import InstructionClass
from repro.gpu.kernels import KernelSpec
from repro.power_mgmt.power_gating import PowerGatingConfig, WarpedGatesController
from repro.sim import power_experiments
from repro.sim.power_experiments import run_pg_experiment
from repro.workloads.benchmarks import get_benchmark
from tests.oracles.gpu_reference import ReferenceGPU

CYCLES = 400
TIGHT_CYCLES = 800
SEED = 3
TIGHT = functools.partial(
    VSAwareHypervisor, config=HypervisorConfig(base_leakage_threshold_w=0.01)
)

# (benchmark, stacked, hypervisor period, tight budget)
CASES = [
    *[(b, s, 256, False) for b in ("blackscholes", "heartwall", "srad")
      for s in (False, True)],
    ("hotspot", True, 256, False),
    ("blackscholes", True, 3, True),
    *[(b, True, 7, True) for b in ("heartwall", "srad", "bfs")],
]

BACKENDS = [
    "numpy",
    pytest.param("c", marks=pytest.mark.skipif(
        load_engine_lib() is None, reason="compiled GPU engine unavailable")),
]


def _pg_loop(gpu, cycles, stacked, period, hypervisor_factory):
    """``run_pg_experiment``'s loop over any GPU with per-SM gating hooks."""
    controllers = [WarpedGatesController(sm, PowerGatingConfig()) for sm in gpu.sms]
    hypervisor = hypervisor_factory() if stacked else None
    trace = np.empty((cycles, gpu.num_sms))
    vetoes = 0
    for cycle in range(cycles):
        for controller in controllers:
            controller.step(cycle)
        if hypervisor is not None and cycle % period == 0:
            before = hypervisor.gating_vetoes
            granted = hypervisor.map_gating([set(sm.gated_units) for sm in gpu.sms])
            vetoes += hypervisor.gating_vetoes - before
            for sm, allowed in zip(gpu.sms, granted):
                for unit in list(sm.gated_units):
                    if unit not in allowed:
                        sm.ungate_unit(unit, cycle)
        trace[cycle] = gpu.step()
    return trace, vetoes, [c.stats for c in controllers]


@functools.lru_cache(maxsize=None)
def _oracle(bench, stacked, period, tight):
    spec = get_benchmark(bench)
    gpu = ReferenceGPU(
        spec.kernel, config=SystemConfig(), seed=SEED,
        miss_ratio=spec.miss_ratio, jitter=spec.jitter,
        gating_aware_scheduler=True,
    )
    factory = TIGHT if tight else VSAwareHypervisor
    cycles = TIGHT_CYCLES if tight else CYCLES
    trace, vetoes, stats = _pg_loop(gpu, cycles, stacked, period, factory)
    return trace, gpu.total_instructions(), vetoes, stats


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bench,stacked,period,tight", CASES)
def test_run_pg_experiment_matches_oracle(
    monkeypatch, backend, bench, stacked, period, tight
):
    trace, instructions, vetoes, stats = _oracle(bench, stacked, period, tight)
    monkeypatch.setenv("REPRO_GPU_BACKEND", backend)
    if tight:
        monkeypatch.setattr(power_experiments, "VSAwareHypervisor", TIGHT)
    controllers = []
    real_controller = power_experiments.WarpedGatesController

    def recording_controller(sm, config):
        controllers.append(real_controller(sm, config))
        return controllers[-1]

    monkeypatch.setattr(
        power_experiments, "WarpedGatesController", recording_controller
    )
    result = run_pg_experiment(
        bench, stacked=stacked, cycles=TIGHT_CYCLES if tight else CYCLES,
        seed=SEED,
        hypervisor_period=period,
    )
    assert np.array_equal(result.trace, trace)
    assert result.instructions == instructions
    assert result.gating_vetoes == vetoes
    assert [c.stats for c in controllers] == stats
    if tight:
        assert vetoes > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_short_kernels_relaunch_under_gates(monkeypatch, backend):
    """Many kernel launches: the scheduler resets, the preference stays."""
    spec = KernelSpec(
        "pg-short",
        mix={
            InstructionClass.FALU: 0.6,
            InstructionClass.SFU: 0.25,
            InstructionClass.LOAD: 0.15,
        },
        dependence=0.1,
        body_length=30,
        warps_per_sm=6,
    )
    ref = ReferenceGPU(spec, seed=5, miss_ratio=0.0, jitter=0.2,
                       gating_aware_scheduler=True)
    monkeypatch.setenv("REPRO_GPU_BACKEND", backend)
    gpu = GPU(spec, seed=5, miss_ratio=0.0, jitter=0.2)
    expected = _pg_loop(ref, 1000, True, 7, TIGHT)
    got = _pg_loop(gpu, 1000, True, 7, TIGHT)
    assert np.array_equal(got[0], expected[0])
    assert got[1:] == expected[1:]
    assert gpu.total_instructions() == ref.total_instructions()
    assert gpu.kernel_launch_cycles == ref.kernel_launch_cycles
    assert gpu.kernels_launched >= 5
