"""Tests for the Warped-Gates power gating controller.

The controller drives SM 0 of an engine-backed GPU; the GPU steps all
its SMs each cycle, the others ungated.
"""

import pytest

from repro.gpu.gpu import GPU
from repro.gpu.isa import ExecUnit, InstructionClass
from repro.gpu.kernels import UNIT_ORDER, KernelSpec
from repro.power_mgmt.power_gating import (
    PowerGatingConfig,
    WarpedGatesController,
)


def alu_only_gpu(seed=0):
    spec = KernelSpec(
        "alu_only", mix={InstructionClass.FALU: 1.0}, body_length=400,
        dependence=0.2,
    )
    return GPU(spec, seed=seed, miss_ratio=0.0)


def run_with_pg(gpu, controller, cycles):
    for cycle in range(cycles):
        controller.step(cycle)
        gpu.step()


class TestConfig:
    def test_defaults_valid(self):
        PowerGatingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"idle_detect_cycles": 0},
            {"break_even_cycles": 0},
            {"blackout_cycles": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PowerGatingConfig(**kwargs)


class TestGatingBehaviour:
    def test_idle_units_get_gated(self):
        gpu = alu_only_gpu(seed=1)
        sm = gpu.sms[0]
        pg = WarpedGatesController(sm)
        run_with_pg(gpu, pg, 300)
        # SFU and LSU never used by an ALU-only kernel: both gated.
        assert ExecUnit.SFU in sm.gated_units
        assert ExecUnit.LSU in sm.gated_units
        assert pg.stats.gating_events >= 2

    def test_alu_not_gateable_by_default(self):
        gpu = alu_only_gpu(seed=2)
        sm = gpu.sms[0]
        pg = WarpedGatesController(sm)
        run_with_pg(gpu, pg, 300)
        assert ExecUnit.ALU not in sm.gated_units

    def test_gated_cycles_accumulate(self):
        gpu = alu_only_gpu(seed=3)
        pg = WarpedGatesController(gpu.sms[0])
        run_with_pg(gpu, pg, 500)
        assert pg.stats.gated_cycles[ExecUnit.SFU] > 300

    def test_demand_wakes_unit_after_blackout(self):
        spec = KernelSpec(
            "mixed",
            mix={InstructionClass.FALU: 0.7, InstructionClass.LOAD: 0.3},
            body_length=300,
        )
        gpu = GPU(spec, seed=4, miss_ratio=0.0)
        sm = gpu.sms[0]
        pg = WarpedGatesController(sm)
        run_with_pg(gpu, pg, 1500)
        # LSU is in demand: it must not be permanently gated and loads
        # must keep flowing.
        assert sm.stats.instructions_issued > 500

    def test_gating_saves_energy(self):
        gpu = alu_only_gpu(seed=5)
        pg = WarpedGatesController(gpu.sms[0])
        run_with_pg(gpu, pg, 800)
        saved = pg.leakage_energy_saved_j(sm_leakage_w=1.2)
        assert saved > 0

    def test_energy_accounting_validates(self):
        pg = WarpedGatesController(alu_only_gpu().sms[0])
        with pytest.raises(ValueError):
            pg.leakage_energy_saved_j(sm_leakage_w=0.0)


class TestGATESIntegration:
    def test_scheduler_active_units_updated(self):
        gpu = alu_only_gpu(seed=6)
        pg = WarpedGatesController(gpu.sms[0])
        run_with_pg(gpu, pg, 300)
        # The engine's GATES preference row for SM 0.
        active_units = {
            unit for unit, preferred in zip(UNIT_ORDER, gpu.engine.prefer[0])
            if preferred
        }
        assert ExecUnit.SFU not in active_units
        assert ExecUnit.ALU in active_units
