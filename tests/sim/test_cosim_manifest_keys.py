"""The telemetry keys a ``run_cosim`` manifest carries stay put.

``run_cosim`` runs the batched co-sim loop with one lane and flushes
that lane's manifest through ``_record_cosim_telemetry``.  The key sets
below were recorded from the serial loop that ``run_cosim`` ran before
it became a batch of one; every one of them must still be written.
Keys added since (``lane`` in the divergence forensics, the
``lanes_quarantined`` counter and the ``lane_quarantined`` event) are
allowed, not required.
"""

import pytest

from repro.faults.chaos import ChaosEvent, ChaosPlan
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.sim.cosim import CosimConfig, run_cosim
from repro.telemetry import Telemetry

COUNTERS = {
    "controller_boost_decisions", "controller_dcc_decisions",
    "controller_decisions_made", "controller_diws_decisions",
    "controller_fii_decisions", "controller_slew_saturated_dcc",
    "controller_slew_saturated_fake", "controller_slew_saturated_issue",
    "controller_throttle_decisions", "controller_throttled_cycles",
    "controller_triggers", "cycles", "fake_instructions",
    "guard_divergences", "guard_dt_halving_recoveries",
    "guard_refactor_recoveries", "instructions", "kernels_completed",
    "solver_dc_solves", "solver_factorizations", "solver_steps",
    "warmup_cycles",
}
CHANNELS = {
    "dcc_power_w", "min_sm_voltage_v", "total_power_w",
    "worst_layer_imbalance_w",
}
METRICS = {
    "benchmark", "diverged", "guard_recoveries", "max_voltage_v",
    "mean_dcc_power_w", "mean_power_w", "min_voltage_v", "pde",
    "throughput_ipc",
}
TIMINGS = {
    "setup", "gpu_model", "transient_solve", "controller", "record",
    "loop_other", "finalize",
}
START_DONE = {
    "cosim_start": {"benchmark", "cycles", "kind", "seed", "t_s",
                    "warmup_cycles"},
    "cosim_done": {"benchmark", "kind", "min_voltage_v", "t_s",
                   "throughput_ipc"},
}
CASES = {
    "hotspot": {
        "sections": {"flight", "noise"},
        "events": START_DONE,
    },
    "guardband-breaker": {
        "sections": {"faults", "flight", "noise"},
        "events": {
            **START_DONE,
            "fault_verdict": {"kind", "min_voltage_v", "t_s", "verdict"},
            "faults_armed": {"kind", "num_events", "schedule", "seed",
                             "t_s"},
        },
    },
    "nan-poison": {
        "sections": {"flight", "noise"},
        "events": {
            **START_DONE,
            "numerical_divergence": {
                "benchmark", "cycle", "kind", "message", "recoveries",
                "residual_norm", "stage", "t_s", "time_s", "worst_node",
                "worst_node_index", "worst_value",
            },
        },
    },
}


def _config(case: str) -> CosimConfig:
    if case == "guardband-breaker":
        return CosimConfig(
            cycles=600, warmup_cycles=50, seed=3,
            faults=CANNED_SCENARIOS["guardband-breaker"](),
        )
    if case == "nan-poison":
        return CosimConfig(cycles=120, warmup_cycles=40, seed=1)
    return CosimConfig(cycles=200, warmup_cycles=50, seed=3)


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_cosim_writes_every_pinned_key(case, chaos_plan):
    if case == "nan-poison":
        chaos_plan(ChaosPlan("nan-poison", [
            ChaosEvent("cosim_cycle", "nan_poison", at=40, once=False),
        ]))
    tele = Telemetry(run_id=f"keys-{case}")
    run_cosim("hotspot", _config(case), telemetry=tele)
    expected = CASES[case]
    assert COUNTERS <= set(tele.counters)
    assert CHANNELS <= set(tele.channels)
    assert METRICS <= set(tele.metrics)
    assert TIMINGS <= set(tele.timings)
    assert expected["sections"] <= set(tele.sections)
    fields = {}
    for event in tele.events:
        fields.setdefault(event["kind"], set()).update(event)
    for kind, keys in expected["events"].items():
        assert kind in fields, f"{case}: no {kind} event"
        assert keys <= fields[kind], f"{case}: {kind} lost fields"
