"""Batch lane quarantine: diverged lanes are evicted mid-run, survivors
keep their bit-identity contract.

``run_cosim_batch``'s equivalence tests (tests/sim/test_cosim_batch)
cover healthy runs; these tests drive the *unhealthy* path with
deterministic NaN poisoning via the chaos harness and assert the
quarantine semantics: an evicted lane yields a structured ``diverged``
verdict with its clean waveform prefix, every surviving lane finishes
byte-identical to its serial-oracle run, and a fully-dead batch
degrades to truncated results instead of a crash.
"""

import numpy as np
import pytest

from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.sim.cosim import CosimConfig, CosimLane, run_cosim, run_cosim_batch
from repro.telemetry import Telemetry
from tests.oracles.serial_cosim import run_serial_cosim

CYCLES = 120
WARMUP = 30


def cfg(seed, **kw):
    return CosimConfig(cycles=CYCLES, warmup_cycles=WARMUP, seed=seed, **kw)


def three_lanes():
    return [
        CosimLane("hotspot", cfg(3)),
        CosimLane("bfs", cfg(5)),
        CosimLane("srad", cfg(7)),
    ]


def poison(at, lane=None):
    """A repeatable (once=False) NaN poisoning of ``lane`` at cycle ``at``.

    once=False keeps serial re-runs of the same plan deterministic:
    the fault is persistent, not claimed away by the first firing.
    """
    return ChaosEvent("cosim_cycle", "nan_poison", at=at, lane=lane, once=False)


class TestEviction:
    def test_poisoned_lane_is_quarantined_survivors_bit_identical(
        self, chaos_plan
    ):
        lanes = three_lanes()
        serial = [run_serial_cosim(ln.benchmark, ln.config) for ln in lanes]
        chaos_plan(ChaosPlan("quarantine", [poison(at=25, lane=1)]))
        batch = run_cosim_batch(lanes)

        assert not batch[0].diverged and not batch[2].diverged
        assert batch[1].diverged
        # Survivors: every recorded field byte-identical to serial.
        for row in (0, 2):
            assert np.array_equal(
                batch[row].sm_voltages, serial[row].sm_voltages
            ), f"lane {row} voltages diverged from serial"
            assert np.array_equal(
                batch[row].power_trace.data, serial[row].power_trace.data
            )
            assert np.array_equal(
                batch[row].supply_current, serial[row].supply_current
            )
            assert batch[row].instructions == serial[row].instructions
            assert batch[row].num_cycles == CYCLES

    def test_dead_lane_keeps_its_clean_prefix(self, chaos_plan):
        lanes = three_lanes()
        serial_mid = run_serial_cosim(lanes[1].benchmark, lanes[1].config)
        chaos_plan(ChaosPlan("prefix", [poison(at=25, lane=1)]))
        batch = run_cosim_batch(lanes)
        dead = batch[1]
        assert dead.num_cycles == 25
        assert np.array_equal(dead.sm_voltages, serial_mid.sm_voltages[:25])
        assert np.array_equal(
            dead.supply_current, serial_mid.supply_current[:25]
        )
        assert np.isfinite(dead.sm_voltages).all()

    def test_divergence_forensics_name_the_original_lane(self, chaos_plan):
        lanes = three_lanes()
        chaos_plan(ChaosPlan("forensics", [poison(at=25, lane=2)]))
        batch = run_cosim_batch(lanes)
        info = batch[2].divergence
        assert info is not None
        assert info["lane"] == 2
        assert info["benchmark"] == "srad"
        assert info["stage"] == "exhausted"
        assert info["cycle"] == 25

    def test_staggered_evictions_leave_a_lone_survivor(self, chaos_plan):
        lanes = three_lanes()
        serial_mid = run_serial_cosim(lanes[1].benchmark, lanes[1].config)
        chaos_plan(ChaosPlan("staggered", [
            poison(at=20, lane=0),
            poison(at=40, lane=2),
        ]))
        batch = run_cosim_batch(lanes)
        assert batch[0].diverged and batch[0].num_cycles == 20
        assert batch[2].diverged and batch[2].num_cycles == 40
        assert not batch[1].diverged
        # The survivor rode through two compactions bit-exactly.
        assert np.array_equal(batch[1].sm_voltages, serial_mid.sm_voltages)
        assert batch[1].instructions == serial_mid.instructions

    def test_all_lanes_dead_is_truncation_not_a_crash(self, chaos_plan):
        lanes = three_lanes()
        chaos_plan(ChaosPlan("wipeout", [poison(at=15, lane=None)]))
        batch = run_cosim_batch(lanes)
        for result in batch:
            assert result.diverged
            assert result.num_cycles == 15
            assert np.isfinite(result.sm_voltages).all()

    def test_warmup_poisoning_yields_an_empty_measured_window(
        self, chaos_plan
    ):
        lanes = [CosimLane("hotspot", cfg(3))]
        # Recorded cycle indices are negative during warmup.
        chaos_plan(ChaosPlan("warmup", [poison(at=-10, lane=0)]))
        batch = run_cosim_batch(lanes)
        assert batch[0].diverged
        assert batch[0].num_cycles == 0
        assert np.isnan(batch[0].min_voltage)


class TestDeadLaneAccounting:
    def test_dead_lane_throttle_count_matches_serial_prefix(self, chaos_plan):
        """A lane evicted at recorded cycle c ran its controller through
        the cycle before, exactly like a serial run c cycles long: its
        throttle count must include the span still open at eviction."""
        from dataclasses import replace

        from repro.core.controller import ControllerConfig

        config = CosimConfig(
            cycles=200, warmup_cycles=30, seed=3, cr_ivr_area_mm2=52.9,
            controller=ControllerConfig(v_threshold=0.99),
        )
        lanes = [
            CosimLane("hotspot", config),
            CosimLane("bfs", replace(config, seed=5)),
        ]
        chaos_plan(ChaosPlan("throttle", [poison(at=187, lane=0)]))
        dead = run_cosim_batch(lanes)[0]
        prefix = run_serial_cosim("hotspot", replace(config, cycles=187))
        assert dead.diverged and dead.num_cycles == 187
        assert np.array_equal(dead.sm_voltages, prefix.sm_voltages)
        assert prefix.throttled_cycles > 0
        assert dead.throttled_cycles == prefix.throttled_cycles

    def test_dead_lane_fault_counters_match_serial_prefix(self, chaos_plan):
        """Halted SMs are counted at window edges; an evicted lane must
        still count every cycle before its divergence, like a serial run
        that many cycles long."""
        from dataclasses import replace

        from repro.faults import (
            FaultSchedule,
            LayerShutoff,
            PowerGateTransient,
        )

        schedule = FaultSchedule(name="halts", seed=4, events=(
            PowerGateTransient(sms=(0, 1), start_cycle=20, end_cycle=150),
            LayerShutoff(layer=3, start_cycle=100),
        ))
        config = cfg(3, faults=schedule)
        lanes = [CosimLane("hotspot", config), CosimLane("bfs", cfg(5))]
        chaos_plan(ChaosPlan("halts", [poison(at=110, lane=0)]))
        dead = run_cosim_batch(lanes)[0]
        prefix = run_serial_cosim("hotspot", replace(config, cycles=110))
        assert dead.diverged and dead.num_cycles == 110
        counters = dead.fault_report["counters"]
        assert counters["halted_sm_cycles"] > 0
        assert counters == prefix.fault_report["counters"]

    def test_flight_recorders_ride_through_eviction(self, chaos_plan):
        """Staged flight samples flush before compaction: the dead lane
        keeps every cycle before its divergence, survivors match the
        serial oracle's recorders exactly."""
        from repro.telemetry.flight import FlightRecorder

        def recorder():
            return FlightRecorder(num_sms=16, guardband_v=0.95,
                                  cycle_offset=-WARMUP)

        lanes = three_lanes()
        serial = [
            run_serial_cosim(ln.benchmark, ln.config, flight=recorder())
            for ln in lanes
        ]
        chaos_plan(ChaosPlan("flight", [poison(at=25, lane=1)]))
        batch = run_cosim_batch(
            lanes, flights=[recorder() for _ in lanes]
        )
        assert batch[1].flight.cycles_observed == WARMUP + 25
        for row in (0, 2):
            b, s = batch[row].flight, serial[row].flight
            assert b.summary() == s.summary()
            assert [d.to_dict() for d in b.dumps] == [
                d.to_dict() for d in s.dumps
            ]

    def test_run_cosim_honours_lane_zero_poison(self, chaos_plan):
        """run_cosim is a batch of one: lane 0 is its only lane."""
        chaos_plan(ChaosPlan("lane0", [poison(at=25, lane=0)]))
        result = run_cosim("hotspot", cfg(3))
        assert result.diverged and result.num_cycles == 25
        assert result.divergence["lane"] == 0

    def test_run_cosim_ignores_other_lanes_poison(self, chaos_plan):
        chaos_plan(ChaosPlan("lane1", [poison(at=25, lane=1)]))
        result = run_cosim("hotspot", cfg(3))
        assert not result.diverged
        assert result.num_cycles == CYCLES


class TestTelemetry:
    def test_quarantine_counters_and_events(self, chaos_plan):
        lanes = three_lanes()
        chaos_plan(ChaosPlan("tele", [poison(at=25, lane=1)]))
        tele = Telemetry(run_id="quarantine-test")
        run_cosim_batch(lanes, telemetry=tele)
        assert tele.counters.get("lanes_quarantined") == 1
        assert tele.counters.get("guard_divergences", 0) >= 1
        kinds = [e["kind"] for e in tele.events]
        assert "lane_quarantined" in kinds

    def test_serial_divergence_is_a_structured_verdict(self, chaos_plan):
        chaos_plan(ChaosPlan("serial", [poison(at=25)]))
        result = run_cosim("hotspot", cfg(3))
        assert result.diverged
        assert result.num_cycles == 25
        assert result.divergence["stage"] == "exhausted"
        assert np.isfinite(result.sm_voltages).all()
