"""Equivalence contract of the batched co-sim engine, plus the co-sim
accounting regressions that rode along with it.

``run_cosim_batch`` steps B independent scenarios lock-stepped; the
serial loop in ``tests/oracles/serial_cosim.py`` is its bit-identity
oracle — a B-lane batch must reproduce B independent serial runs *byte
for byte*, for every field of every :class:`CosimResult`, under mixed
benchmarks, seeds, controller gains, disabled controllers, the
per-object oracle GPU and canned fault scenarios.  These tests drive
both paths side by side (randomized via hypothesis and through canned
scenarios) and pin the three accounting bugfixes: decision-array
ownership at the control boundary, completed kernel-interval counting,
and applied-vs-commanded DCC ledgering.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import pde_loss_ledger
from repro.circuits._solverc import BACKEND_ENV
from repro.core.controller import ControlDecision, ControllerConfig
from repro.core.prior_art import GlobalThrottleController
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.gpu.gpu import GPU
from repro.sim.cosim import (
    CosimConfig,
    CosimLane,
    LayerShutoffEvent,
    run_cosim,
    run_cosim_batch,
)
from repro.telemetry.flight import FlightRecorder
from tests.oracles.gpu_reference import ReferenceGPU
from tests.oracles.serial_cosim import run_serial_cosim

CYCLES = 260
WARMUP = 40


def _assert_result_equal(batch, serial, label=""):
    """Byte-equality of every CosimResult field."""
    assert np.array_equal(
        batch.power_trace.data, serial.power_trace.data
    ), f"{label}: power trace diverged"
    assert np.array_equal(
        batch.sm_voltages, serial.sm_voltages
    ), f"{label}: sm_voltages diverged"
    assert np.array_equal(
        batch.supply_current, serial.supply_current
    ), f"{label}: supply_current diverged"
    assert batch.benchmark == serial.benchmark
    assert batch.stack == serial.stack
    assert batch.instructions == serial.instructions, label
    assert batch.fake_instructions == serial.fake_instructions, label
    assert batch.throttled_cycles == serial.throttled_cycles, label
    assert batch.controller_power_w == serial.controller_power_w, label
    assert batch.kernels_completed == serial.kernels_completed, label
    assert batch.mean_dcc_power_w == serial.mean_dcc_power_w, label
    assert np.array_equal(
        batch.kernel_durations, serial.kernel_durations
    ), f"{label}: kernel_durations diverged"
    assert batch.fault_report == serial.fault_report, label


def _check_batch(lanes, gpu_cls=GPU):
    batch = run_cosim_batch(lanes)
    assert len(batch) == len(lanes)
    for i, (lane, result) in enumerate(zip(lanes, batch)):
        serial = run_serial_cosim(lane.benchmark, config=lane.config,
                                  gpu_cls=gpu_cls)
        _assert_result_equal(result, serial, label=f"lane {i} ({lane.benchmark})")


# Three paper benchmarks with distinct power/kernel shapes.
BENCHMARKS = ("hotspot", "backprop", "bfs")


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            run_cosim_batch([])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cycles", CYCLES + 16),
            ("warmup_cycles", WARMUP + 8),
            ("circuit_substeps", 2),
            ("cr_ivr_area_mm2", 211.6),
        ],
    )
    def test_topology_family_mismatch_rejected(self, field, value):
        base = dict(cycles=CYCLES, warmup_cycles=WARMUP, circuit_substeps=1)
        odd = dict(base)
        odd[field] = value
        lanes = [
            CosimLane(benchmark="hotspot", config=CosimConfig(**base)),
            CosimLane(benchmark="hotspot", config=CosimConfig(**odd)),
        ]
        with pytest.raises(ValueError, match=field):
            run_cosim_batch(lanes)


class TestRandomizedBatchEquivalence:
    """Randomized B, benchmarks, seeds and gains — byte-equality per lane."""

    @settings(max_examples=6, deadline=None)
    @given(
        seeds=st.lists(st.integers(0, 2**20), min_size=1, max_size=4),
        bench_picks=st.lists(st.integers(0, len(BENCHMARKS) - 1),
                             min_size=4, max_size=4),
        k1=st.sampled_from([0.5, 1.0, 2.0]),
        k2=st.sampled_from([2.0, 4.0]),
        drop_controller=st.booleans(),
    )
    def test_mixed_lanes(self, seeds, bench_picks, k1, k2, drop_controller):
        lanes = []
        for i, seed in enumerate(seeds):
            kwargs = dict(cycles=CYCLES, warmup_cycles=WARMUP, seed=seed)
            if i == 1:
                kwargs["controller"] = ControllerConfig(k1=k1, k2=k2)
            if i == 2 and drop_controller:
                kwargs["use_controller"] = False
            lanes.append(
                CosimLane(
                    benchmark=BENCHMARKS[bench_picks[i]],
                    config=CosimConfig(**kwargs),
                )
            )
        _check_batch(lanes)

    def test_per_object_gpu_lane(self):
        """Batched lanes equal the serial oracle on the per-object GPU."""
        _check_batch([
            CosimLane("hotspot", CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP, seed=3)),
            CosimLane("srad", CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP, seed=4)),
        ], gpu_cls=ReferenceGPU)

    def test_single_lane_batch(self):
        _check_batch([
            CosimLane("pathfinder", CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP, seed=11)),
        ])


class TestCannedFaultBatch:
    @pytest.mark.parametrize("scenario", list(CANNED_SCENARIOS))
    def test_fault_lane_batches_bit_identically(self, scenario):
        cyc, wu = 700, 80
        _check_batch([
            CosimLane("hotspot", CosimConfig(cycles=cyc, warmup_cycles=wu)),
            CosimLane("hotspot", CosimConfig(
                cycles=cyc, warmup_cycles=wu,
                faults=CANNED_SCENARIOS[scenario]())),
            CosimLane("bfs", CosimConfig(
                cycles=cyc, warmup_cycles=wu, use_controller=False)),
        ])


def _mixed_lanes(cycles, warmup):
    """Every canned scenario beside clean, shutoff, controller-less and
    duck-typed lanes: one batch that desynchronises the controller bank
    (jitter drops), halts SMs on the fused GPU step and corrupts
    sensors.  Built per call, so duck-typed controllers start fresh."""
    def config(seed, **kwargs):
        return CosimConfig(cycles=cycles, warmup_cycles=warmup, seed=seed,
                           **kwargs)

    lanes = [
        CosimLane(bench, config(10 + i, faults=factory(seed=20 + i)))
        for i, (bench, factory) in enumerate(zip(
            ("hotspot", "bfs", "backprop", "srad"),
            CANNED_SCENARIOS.values(),
        ))
    ]
    return lanes + [
        CosimLane("pathfinder", config(31)),
        CosimLane("heartwall", config(32, shutoff=LayerShutoffEvent(
            layer=3, start_cycle=150, end_cycle=500))),
        CosimLane("bfs", config(
            33, use_controller=False,
            faults=CANNED_SCENARIOS["guardband-breaker"](seed=34))),
        CosimLane("hotspot", config(
            35, controller_object=GlobalThrottleController(),
            faults=CANNED_SCENARIOS["scheduler-storm"](seed=36))),
    ]


class TestMixedFaultBatch:
    """Fault lanes ride the banked paths bit-identically to the oracle."""

    @pytest.mark.parametrize("backend", ["c", "numpy"])
    def test_mixed_batch_matches_oracle(self, backend, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, backend)
        cyc, wu = 900, 80

        def recorder():
            return FlightRecorder(num_sms=16, guardband_v=0.8,
                                  cycle_offset=-wu)

        lanes = _mixed_lanes(cyc, wu)
        batch = run_cosim_batch(lanes, flights=[recorder() for _ in lanes])
        for i, (lane, result) in enumerate(zip(_mixed_lanes(cyc, wu), batch)):
            label = f"lane {i} ({lane.benchmark})"
            serial = run_serial_cosim(
                lane.benchmark, config=lane.config, flight=recorder()
            )
            _assert_result_equal(result, serial, label=label)
            assert result.flight.summary() == serial.flight.summary(), label
            assert [d.to_dict() for d in result.flight.dumps] == [
                d.to_dict() for d in serial.flight.dumps
            ], label
        assert any(r.flight.dumps for r in batch)


class TestBatchStageSplit:
    """A batch records run_cosim's stage names, residual-closed."""

    def test_b4_stage_split_sums_to_wall(self):
        from repro.telemetry import Telemetry

        tele = Telemetry(run_id="batch-stages")
        lanes = [
            CosimLane(name, CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP, seed=i))
            for i, name in enumerate(("hotspot", "backprop", "bfs", "srad"))
        ]
        run_cosim_batch(lanes, telemetry=tele)
        for stage in ("setup", "gpu_model", "transient_solve",
                      "controller", "record", "loop_other", "finalize"):
            assert stage in tele.timings, stage
        assert "batch_loop" not in tele.timings
        wall = tele.elapsed_s
        stage_sum = sum(tele.timings.values())
        assert wall > 0
        assert abs(stage_sum - wall) / wall <= 0.10


# ---------------------------------------------------------------------------
# Accounting regressions (run_cosim)
# ---------------------------------------------------------------------------
class _ScriptedController:
    """Minimal controller duck-type: fixed widths, scripted DCC."""

    def __init__(self, num_sms, dcc_w=1.0, final_dcc_w=None):
        self.num_sms = num_sms
        self.throttled_cycles = 0
        self.dcc_w = dcc_w
        self.final_dcc_w = final_dcc_w
        self.last_observe_cycle = -1
        self.decision = ControlDecision(
            issue_widths=np.full(num_sms, 2.0),
            fake_rates=np.zeros(num_sms),
            dcc_powers_w=np.full(num_sms, dcc_w),
        )
        # Snapshots taken at hand-off: the ownership contract says the
        # loop must never write into these controller-owned arrays.
        self.handed_out = (
            self.decision.issue_widths.copy(),
            self.decision.fake_rates.copy(),
            self.decision.dcc_powers_w.copy(),
        )

    def observe(self, cycle, voltages):
        self.last_observe_cycle = cycle

    def commands_for(self, cycle):
        return self.decision

    def arrays_unmutated(self):
        return (
            np.array_equal(self.decision.issue_widths, self.handed_out[0])
            and np.array_equal(self.decision.fake_rates, self.handed_out[1])
            and np.array_equal(self.decision.dcc_powers_w, self.handed_out[2])
        )


class TestDecisionOwnershipRegression:
    """The control boundary copies what it retains or mutates.

    ``run_cosim`` zeroes halted SMs' issue widths and holds the DCC
    command across cycles; both must act on loop-owned copies.  Before
    the fix the DCC vector was aliased (``dcc_powers = dcc``), so a
    controller reusing its decision buffer — or the loop mutating
    ``widths`` in place for a halted layer — corrupted the enqueued
    decision the controller still owned.
    """

    def test_loop_never_mutates_controller_arrays(self):
        from repro.sim.cosim import LayerShutoffEvent

        num_sms = 16
        ctrl = _ScriptedController(num_sms, dcc_w=0.25)
        result = run_cosim(
            "hotspot",
            CosimConfig(
                cycles=CYCLES, warmup_cycles=WARMUP,
                controller_object=ctrl,
                # A shutoff forces the halted-SM width zeroing that
                # would corrupt an aliased issue_widths array.
                shutoff=LayerShutoffEvent(layer=3, start_cycle=0),
            ),
        )
        assert ctrl.last_observe_cycle == CYCLES + WARMUP - 1
        assert ctrl.arrays_unmutated(), (
            "co-sim loop wrote into controller-owned decision arrays"
        )
        # The halted layer was still actuated (widths were zeroed on the
        # loop's own copy): its SMs idle at leakage-level power.
        halted = result.power_trace.data[:, 12:16]
        live = result.power_trace.data[:, 0:4]
        assert halted.mean() < 0.5 * live.mean()


class TestKernelAccountingRegression:
    """``kernels_completed`` counts completed kernel *intervals* in the
    recorded window — exactly ``len(kernel_durations)``, never the raw
    launch count (which over-counts the still-running kernel by one)."""

    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_completed_matches_durations(self, bench):
        result = run_cosim(bench, CosimConfig(
            cycles=900, warmup_cycles=100, seed=5))
        assert result.kernels_completed == len(result.kernel_durations)
        if result.kernels_completed:
            assert result.cycles_per_kernel() == pytest.approx(
                float(np.mean(result.kernel_durations))
            )

    def test_single_launch_window_counts_zero_completions(self):
        # A window too short for a second launch: one kernel is running
        # but none *completed*, so the mean-duration guard must trip.
        result = run_cosim("heartwall", CosimConfig(
            cycles=40, warmup_cycles=20, seed=2))
        assert result.kernels_completed == len(result.kernel_durations)
        if result.kernels_completed == 0:
            with pytest.raises(ValueError):
                result.cycles_per_kernel()


class TestAppliedDccLedgerRegression:
    """``mean_dcc_power_w`` ledgers the power the PDN *saw* each cycle,
    not the command enqueued for the next cycle.  A command issued on
    the final cycle is never applied and must not enter the mean."""

    def test_final_cycle_command_never_ledgered(self):
        num_sms = 16
        cycles, warmup = 200, 30

        class FinalSpikeController(_ScriptedController):
            def commands_for(self, cycle):
                if cycle == cycles + warmup - 1:
                    # Never applied: there is no next cycle.
                    self.decision.dcc_powers_w[:] = 50.0
                return self.decision

        ctrl = FinalSpikeController(num_sms, dcc_w=1.0)
        result = run_cosim(
            "hotspot",
            CosimConfig(
                cycles=cycles, warmup_cycles=warmup,
                controller_object=ctrl,
            ),
        )
        # Every recorded cycle applied exactly 1.0 W/SM (commanded one
        # cycle earlier); the 50 W/SM final command never reached the
        # PDN, so the mean is exactly num_sms * 1.0.
        assert result.mean_dcc_power_w == pytest.approx(float(num_sms))
        assert result.mean_dcc_power_w < 2.0 * num_sms

    def test_pde_ledger_closes_with_dcc_active(self):
        result = run_cosim("heartwall", CosimConfig(
            cycles=900, warmup_cycles=100, seed=7))
        ledger = pde_loss_ledger(result)
        assert ledger.closes(0.01), (
            f"PDE ledger open by {ledger.closure_rel_error:.3%}"
        )


class TestSweepBatchEquality:
    """`SweepRunner(batch_size=B)` metrics equal the per-point sweep."""

    def test_batched_sweep_matches_serial(self):
        from repro.sim.sweep import run_sweep

        base = CosimConfig(cycles=300, warmup_cycles=50)
        kwargs = dict(
            benchmarks=["hotspot", "bfs"],
            axes={"cr_ivr_area_mm2": [52.9, 105.8]},
            base_config=base,
            base_seed=3,
            max_workers=1,
        )
        serial = run_sweep(**kwargs)
        batched = run_sweep(batch_size=4, **kwargs)
        assert batched.num_failed == 0
        for a, b in zip(serial.points, batched.points):
            assert a.point.index == b.point.index
            assert a.metrics == b.metrics

    def test_batches_group_by_topology_family(self):
        from repro.sim.sweep import SweepRunner, expand_grid

        base = CosimConfig(cycles=300, warmup_cycles=50)
        points = expand_grid(
            ["hotspot", "bfs"], {"cr_ivr_area_mm2": [52.9, 105.8]},
            base_seed=3,
        )
        runner = SweepRunner(points, base, batch_size=4)
        groups = runner._group_batches(points)
        # Four points, two areas: one batch per area, grid order kept.
        assert sorted(tuple(p.index for p in g) for g in groups) == [
            (0, 2), (1, 3),
        ]
        for group in groups:
            areas = {dict(p.overrides)["cr_ivr_area_mm2"] for p in group}
            assert len(areas) == 1
