"""Bit-identity contract of the batched controller front end.

``ControllerBank.observe(cycle, voltages, observed)`` must leave every
lane's observable state byte-equal to serial per-lane ``observe`` calls
(skipped where ``observed`` is False) — for uniform and mixed control
periods (the fast and generic wave paths), through quiet stretches (the
idle-wave shortcut re-enqueues the same decision object), droop storms,
NaN sensor dropouts with the fallback on or off, dropped observations
and the watchdog.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import StackConfig
from repro.core.actuators import WeightedActuation
from repro.core.controller import (
    ControllerBank,
    ControllerConfig,
    VoltageSmoothingController,
)

NUM_SMS = StackConfig().num_sms
DT = 1.0 / 700e6


def _make_lane(config):
    return VoltageSmoothingController(
        stack=StackConfig(), config=config,
        actuation=WeightedActuation(), dt_s=DT,
    )


def _voltage_stream(rng, cycles):
    """Mostly-quiet voltages with droop storms, overshoot and NaN holes."""
    v = 1.0 + 0.002 * rng.standard_normal((cycles, NUM_SMS))
    v[120:135] -= 0.15  # droop storm: triggers + slew saturation
    v[200:206] += 0.2  # overshoot: FII/DCC side
    v[260:263] = np.nan  # sensor dropout: fallback path
    return v


def _assert_lane_states_equal(serial, banked, cycle=None):
    tag = f"cycle {cycle}" if cycle is not None else "final"
    assert serial.stats() == banked.stats(), f"{tag}: stats diverged"
    assert np.array_equal(
        serial._filter_state, np.asarray(banked._filter_state)
    ), f"{tag}: filter state diverged"
    sd, bd = serial.active_decision, banked.active_decision
    assert np.array_equal(sd.issue_widths, bd.issue_widths), tag
    assert np.array_equal(sd.fake_rates, bd.fake_rates), tag
    assert np.array_equal(sd.dcc_powers_w, bd.dcc_powers_w), tag


def _run_pair(configs, cycles=400, seed=0):
    rng = np.random.default_rng(seed)
    stream = _voltage_stream(rng, cycles)
    serial = [_make_lane(c) for c in configs]
    banked = [_make_lane(c) for c in configs]
    bank = ControllerBank(banked)
    for cycle in range(cycles):
        for i, c in enumerate(serial):
            c.observe(cycle, stream[cycle, :])
        bank.observe(cycle, np.tile(stream[cycle], (len(configs), 1)))
        for i, (s, b) in enumerate(zip(serial, banked)):
            ds = s.commands_for(cycle)
            db = b.commands_for(cycle)
            assert np.array_equal(ds.issue_widths, db.issue_widths), (
                f"lane {i} cycle {cycle}"
            )
            assert np.array_equal(ds.fake_rates, db.fake_rates)
            assert np.array_equal(ds.dcc_powers_w, db.dcc_powers_w)
    for s, b in zip(serial, banked):
        _assert_lane_states_equal(s, b)


class TestBankEquivalence:
    def test_uniform_cadence_mixed_gains(self):
        _run_pair([
            ControllerConfig(),
            ControllerConfig(k1=0.5, k2=4.0),
            ControllerConfig(k1=2.0, k3=10.0),
        ])

    def test_mixed_periods_take_generic_waves(self):
        _run_pair([
            ControllerConfig(control_period_cycles=4),
            ControllerConfig(control_period_cycles=6),
            ControllerConfig(control_period_cycles=4, k1=0.5),
        ])

    def test_watchdog_lane(self):
        _run_pair([
            ControllerConfig(),
            ControllerConfig(watchdog_enabled=True, watchdog_patience=4),
        ], seed=5)

    def test_single_lane_bank(self):
        _run_pair([ControllerConfig()], cycles=300)


class TestIdleWaveShortcut:
    """Quiet stretches re-enqueue the previous decision object."""

    def test_idle_waves_reuse_decision_object(self):
        lanes = [_make_lane(ControllerConfig()) for _ in range(2)]
        bank = ControllerBank(lanes)
        quiet = np.full((2, NUM_SMS), 1.0)
        seen = set()
        for cycle in range(120):
            bank.observe(cycle, quiet)
            for lane in lanes:
                seen.add(id(lane.commands_for(cycle)))
        # Steady default command: the active decision is one reused
        # object per lane (plus at most the initial default).
        assert len(seen) <= 4
        for lane in lanes:
            assert lane.decisions_made == 30  # every period still decides

    def test_idle_then_droop_recovers_full_wave(self):
        config = ControllerConfig()
        serial = _make_lane(config)
        banked = _make_lane(config)
        bank = ControllerBank([banked])
        for cycle in range(300):
            v = np.full(NUM_SMS, 1.0)
            if 140 <= cycle < 160:
                v -= 0.2
            serial.observe(cycle, v)
            bank.observe(cycle, v[None, :])
            ds = serial.commands_for(cycle)
            db = banked.commands_for(cycle)
            assert np.array_equal(ds.issue_widths, db.issue_widths), cycle
        _assert_lane_states_equal(serial, banked)


def _assert_full_state_equal(serial, banked):
    """Everything observe can touch: stats, filters, pipeline, cadence."""
    _assert_lane_states_equal(serial, banked)
    for name in ("_last_good", "_fallback_active"):
        assert np.array_equal(
            getattr(serial, name), np.asarray(getattr(banked, name))
        ), name
    for name in ("_last_decision_cycle", "in_safe_state",
                 "_subguard_streak", "_healthy_streak", "_flap_flips"):
        assert getattr(serial, name) == getattr(banked, name), name
    assert len(serial._pipeline) == len(banked._pipeline)
    for (ts, ds), (tb, db) in zip(serial._pipeline, banked._pipeline):
        assert ts == tb
        for field in ("issue_widths", "fake_rates", "dcc_powers_w"):
            assert np.array_equal(getattr(ds, field), getattr(db, field))
        assert list(ds.triggered_sms) == list(db.triggered_sms)


class TestMaskedObserve:
    """Dropouts and dropped observations stay on the banked paths."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        periods=st.lists(st.sampled_from([3, 4, 4, 6]), min_size=1,
                         max_size=4),
        fallback=st.lists(st.booleans(), min_size=4, max_size=4),
        nan_rate=st.sampled_from([0.0, 0.05, 0.3]),
        lane_loss=st.sampled_from([0.0, 0.05]),
        drop_rate=st.sampled_from([0.0, 0.1, 0.5]),
    )
    def test_matches_per_lane_observe(
        self, seed, periods, fallback, nan_rate, lane_loss, drop_rate
    ):
        configs = [
            ControllerConfig(
                control_period_cycles=p,
                sensor_fallback_enabled=fallback[i],
                watchdog_enabled=i % 2 == 0, watchdog_patience=3,
                safe_state_release_decisions=6,
            )
            for i, p in enumerate(periods)
        ]
        rng = np.random.default_rng(seed)
        cycles = 240
        lanes = len(configs)
        v = 1.0 + 0.002 * rng.standard_normal((cycles, lanes, NUM_SMS))
        v[60:80] -= rng.uniform(0.0, 0.3, size=(lanes, NUM_SMS))
        v[120:130] += rng.uniform(0.0, 0.25, size=(lanes, NUM_SMS))
        v[rng.random(v.shape) < nan_rate] = np.nan
        v[rng.random((cycles, lanes)) < lane_loss] = np.nan  # whole lane
        observed = rng.random((cycles, lanes)) >= drop_rate
        serial = [_make_lane(c) for c in configs]
        banked = [_make_lane(c) for c in configs]
        bank = ControllerBank(banked)
        for cycle in range(cycles):
            for i, c in enumerate(serial):
                if observed[cycle, i]:
                    c.observe(cycle, v[cycle, i])
            bank.observe(cycle, v[cycle], observed[cycle])
            for i, (s, b) in enumerate(zip(serial, banked)):
                ds, db = s.commands_for(cycle), b.commands_for(cycle)
                assert np.array_equal(ds.issue_widths, db.issue_widths), (
                    f"lane {i} cycle {cycle}"
                )
                assert np.array_equal(ds.fake_rates, db.fake_rates)
                assert np.array_equal(ds.dcc_powers_w, db.dcc_powers_w)
        for s, b in zip(serial, banked):
            _assert_full_state_equal(s, b)

    def test_dropped_due_observation_desyncs_a_uniform_bank(self):
        """A lane that misses its due cycle decides on its next one."""
        configs = [ControllerConfig(), ControllerConfig(k1=0.5)]
        serial = [_make_lane(c) for c in configs]
        banked = [_make_lane(c) for c in configs]
        bank = ControllerBank(banked)
        v = np.full((2, NUM_SMS), 0.85)  # triggered every wave
        for cycle in range(40):
            observed = np.array([True, cycle not in (4, 5, 13)])
            for i, c in enumerate(serial):
                if observed[i]:
                    c.observe(cycle, v[i])
            bank.observe(cycle, v, observed)
        for s, b in zip(serial, banked):
            _assert_full_state_equal(s, b)
        assert serial[1]._last_decision_cycle != serial[0]._last_decision_cycle

    def test_observed_mask_shape_validated(self):
        bank = ControllerBank([_make_lane(ControllerConfig())])
        with pytest.raises(ValueError, match="observed mask"):
            bank.observe(0, np.ones((1, NUM_SMS)), np.ones(2, dtype=bool))


class TestBankValidation:
    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ControllerBank([])

    def test_non_controller_lane_rejected(self):
        with pytest.raises(TypeError, match="VoltageSmoothingController"):
            ControllerBank([object()])
