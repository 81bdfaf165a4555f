"""Unit tests for the FaultInjector runtime (no co-simulation)."""

import numpy as np
import pytest

from repro.config import StackConfig
from repro.faults import (
    ActuatorStuck,
    ControlLoopJitter,
    CRIVRPhaseLoss,
    DFSTransient,
    FaultInjector,
    FaultSchedule,
    LayerShutoff,
    PowerGateTransient,
    ProcessVariation,
    SensorDropout,
    SensorNoise,
    SensorStuck,
)
from repro.faults.injector import NO_EDGE

STACK = StackConfig()


def make_injector(*events, seed=0):
    return FaultInjector(FaultSchedule(events=events, seed=seed), STACK)


def healthy():
    return np.full(STACK.num_sms, 1.0)


class TestValidation:
    def test_sm_index_out_of_range(self):
        with pytest.raises(ValueError, match="targets SM 16"):
            make_injector(SensorStuck(sms=(16,)))

    def test_layer_out_of_range(self):
        with pytest.raises(ValueError, match="layer 4"):
            make_injector(LayerShutoff(layer=4))

    def test_circuit_fault_needs_pdn_handles(self):
        with pytest.raises(ValueError, match="pdn/solver"):
            make_injector(CRIVRPhaseLoss())

    def test_explicit_pv_scales_length_checked(self):
        with pytest.raises(ValueError, match="entries"):
            make_injector(ProcessVariation(scales=(1.0, 1.0)))


class TestSensorCorruption:
    def test_inactive_window_returns_same_array(self):
        injector = make_injector(SensorNoise(start_cycle=100))
        voltages = healthy()
        assert injector.corrupt_sensors(0, voltages) is voltages

    def test_corruption_copies_never_mutates_input(self):
        injector = make_injector(SensorStuck(value_v=0.5, sms=(3,)))
        voltages = healthy()
        seen = injector.corrupt_sensors(0, voltages)
        assert seen is not voltages
        assert voltages[3] == 1.0
        assert seen[3] == 0.5

    def test_dropout_probability_one_blanks_all_targets(self):
        injector = make_injector(SensorDropout(probability=1.0, sms=(0, 5)))
        seen = injector.corrupt_sensors(0, healthy())
        assert np.isnan(seen[[0, 5]]).all()
        assert np.isfinite(np.delete(seen, [0, 5])).all()
        assert injector.counters["sensor_samples_dropped"] == 2

    def test_noise_is_seed_reproducible(self):
        a = make_injector(SensorNoise(sigma_v=0.05), seed=7)
        b = make_injector(SensorNoise(sigma_v=0.05), seed=7)
        assert np.array_equal(
            a.corrupt_sensors(0, healthy()), b.corrupt_sensors(0, healthy())
        )

    def test_later_event_overrides_earlier_on_shared_sms(self):
        injector = make_injector(
            SensorNoise(sigma_v=0.5, sms=(2,)),
            SensorStuck(value_v=0.9, sms=(2,)),
        )
        assert injector.corrupt_sensors(0, healthy())[2] == 0.9


class TestProcessVariation:
    def test_scales_applied_in_active_window_only(self):
        scales = tuple(0.5 if i == 0 else 1.0 for i in range(STACK.num_sms))
        injector = make_injector(
            ProcessVariation(scales=scales, start_cycle=10, end_cycle=20)
        )
        before = injector.scale_powers(0, np.full(STACK.num_sms, 2.0))
        assert before[0] == 2.0
        during = injector.scale_powers(15, np.full(STACK.num_sms, 2.0))
        assert during[0] == 1.0
        assert during[1] == 2.0

    def test_random_scales_fixed_for_whole_run(self):
        injector = make_injector(ProcessVariation(sigma=0.2), seed=5)
        first = injector.scale_powers(0, np.ones(STACK.num_sms)).copy()
        second = injector.scale_powers(1, np.ones(STACK.num_sms))
        assert np.array_equal(first, second)
        assert not np.allclose(first, 1.0)


class TestActuation:
    def test_jam_overrides_commanded_value(self):
        injector = make_injector(
            ActuatorStuck(actuator="diws", sms=(1,), value=0.25)
        )
        widths = np.full(STACK.num_sms, 2.0)
        injector.distort_actuation(0, widths, np.zeros(16), np.zeros(16))
        assert widths[1] == 0.25
        assert widths[0] == 2.0
        assert injector.counters["actuation_overrides"] == 1

    def test_stuck_freezes_value_at_activation_edge(self):
        injector = make_injector(
            ActuatorStuck(actuator="fii", sms=(4,), start_cycle=10)
        )
        fakes = np.zeros(STACK.num_sms)
        fakes[4] = 0.7  # command in force when the fault begins
        injector.distort_actuation(10, np.zeros(16), fakes, np.zeros(16))
        assert fakes[4] == 0.7
        # Later commands cannot move the stuck actuator.
        fakes2 = np.zeros(STACK.num_sms)
        injector.distort_actuation(11, np.zeros(16), fakes2, np.zeros(16))
        assert fakes2[4] == 0.7


class TestTimingFaults:
    def test_certain_drop_blocks_observation(self):
        injector = make_injector(ControlLoopJitter(drop_probability=1.0))
        assert not injector.observation_allowed(0)
        assert injector.counters["observations_dropped"] == 1

    def test_no_jitter_outside_window(self):
        injector = make_injector(
            ControlLoopJitter(extra_latency_cycles=8, start_cycle=50)
        )
        assert injector.extra_latency(0) == 0
        extras = [injector.extra_latency(60) for _ in range(50)]
        assert all(0 <= e <= 8 for e in extras)
        assert any(e > 0 for e in extras)


class TestSystemFaults:
    def test_halted_union_of_shutoff_and_gating(self):
        injector = make_injector(
            LayerShutoff(layer=3), PowerGateTransient(sms=(0,))
        )
        halted = injector.halted_sms(0)
        assert halted == set(STACK.sms_in_layer(3)) | {0}

    def test_frequency_scales_only_on_change(self):
        injector = make_injector(
            DFSTransient(frequency_scale=0.5, sms=(2,), start_cycle=10,
                         end_cycle=20)
        )
        scales = injector.frequency_scales(10)
        assert scales is not None and scales[2] == 0.5 and scales[0] == 1.0
        assert injector.frequency_scales(11) is None  # unchanged
        restored = injector.frequency_scales(20)
        assert restored is not None and np.all(restored == 1.0)


class TestReport:
    def test_report_lists_events_with_layers(self):
        injector = make_injector(
            SensorNoise(sigma_v=0.01), LayerShutoff(layer=1)
        )
        report = injector.report()
        assert report["num_events"] == 2
        layers = {e["kind"]: e["layer"] for e in report["events"]}
        assert layers == {
            "sensor_noise": "architecture", "layer_shutoff": "system"
        }
        assert all("description" in e for e in report["events"])
        assert "counters" in report


class TestEdgeCache:
    """Edge-driven hooks recompute only at window edges, exactly."""

    EVENTS = (
        LayerShutoff(layer=3, start_cycle=20, end_cycle=70),
        PowerGateTransient(sms=(0, 12), start_cycle=50, end_cycle=90),
        PowerGateTransient(sms=(12,), start_cycle=-5, end_cycle=30),
        DFSTransient(frequency_scale=0.5, sms=(2,), start_cycle=40,
                     end_cycle=60),
        SensorNoise(sigma_v=0.01, start_cycle=10, end_cycle=45),
        ProcessVariation(sigma=0.1, start_cycle=25, end_cycle=80),
    )

    def test_next_edge_lists_every_window_edge(self):
        injector = make_injector(*self.EVENTS)
        edges = sorted({e.start_cycle for e in self.EVENTS}
                       | {e.end_cycle for e in self.EVENTS})
        walked, cycle = [], -100
        while True:
            cycle = injector.next_edge(cycle)
            if cycle == NO_EDGE:
                break
            walked.append(cycle)
        assert walked == edges

    def test_hooks_match_direct_evaluation(self):
        injector = make_injector(*self.EVENTS)
        for cycle in list(range(-10, 100)) + [57, 3, 99, 20]:
            kinds = tuple(e.kind for e in self.EVENTS if e.active(cycle))
            assert injector.active_kinds(cycle) == kinds, cycle
            halted = set()
            for e in self.EVENTS[:3]:
                if e.active(cycle):
                    halted.update(
                        STACK.sms_in_layer(e.layer)
                        if isinstance(e, LayerShutoff) else e.sms
                    )
            assert injector.halted_sms(cycle) == halted, cycle

    def test_halted_counted_per_cycle_when_called_at_edges(self):
        per_cycle = make_injector(*self.EVENTS)
        at_edges = make_injector(*self.EVENTS)
        start, last = -10, 120
        for cycle in range(start, last + 1):
            per_cycle.halted_sms(cycle)
        cycle = start
        while cycle <= last:
            at_edges.halted_sms(cycle)
            cycle = at_edges.next_edge(cycle)
        at_edges.halted_sms(last)  # settle the tail
        at_edges.halted_sms(last)  # a repeat call counts nothing
        assert (at_edges.counters["halted_sm_cycles"]
                == per_cycle.counters["halted_sm_cycles"] > 0)
