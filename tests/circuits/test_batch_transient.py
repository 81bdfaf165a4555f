"""Bit-identity contract of the lock-stepped batch transient solver.

``BatchTransientSolver`` fuses the per-step NumPy dispatch of B
same-topology :class:`TransientSolver` lanes; every step must return
node voltages byte-equal to stepping each lane alone — including after
a mid-run per-lane ``refactor()`` (a fault injector mutating one lane's
element values), and with per-lane state (``solution`` rows, vsource
currents, step statistics) staying coherent through the batch views.
"""

import numpy as np
import pytest

from repro.circuits import BatchTransientSolver
from repro.circuits.elements import Resistor
from repro.circuits.transient import TransientSolver
from repro.config import StackConfig
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN

DT = 1.0 / 700e6
NUM_SMS = StackConfig().num_sms
NOMINAL_A = 40.0 / NUM_SMS  # ~per-SM draw in amps, cosim's ballpark


def _make_lane(buffer=None):
    pdn = build_stacked_pdn(stack=StackConfig(), params=DEFAULT_PDN)
    pdn.bind_current_buffer(buffer)
    solver = TransientSolver(pdn.circuit, dt=DT)
    return pdn, solver


def _current_schedule(rng, steps):
    base = np.full(NUM_SMS, NOMINAL_A)
    return base * (0.2 + rng.random((steps, NUM_SMS)) * 1.6)


class TestBatchStepEquivalence:
    @pytest.mark.parametrize("n_lanes", [1, 3])
    def test_bit_identical_to_serial(self, n_lanes):
        steps = 160
        rng = np.random.default_rng(7)
        schedules = [_current_schedule(rng, steps) for _ in range(n_lanes)]

        currents_bt = np.zeros((n_lanes, NUM_SMS))
        batch_lanes = [_make_lane(currents_bt[i]) for i in range(n_lanes)]
        batch = BatchTransientSolver(
            [s for _, s in batch_lanes],
            shared_current_base=currents_bt,
        )
        serial_lanes = [_make_lane() for _ in range(n_lanes)]

        for k in range(steps):
            for i in range(n_lanes):
                batch_lanes[i][0].set_sm_currents(schedules[i][k])
                serial_lanes[i][0].set_sm_currents(schedules[i][k])
            node_v = batch.step()
            for i, (_, s) in enumerate(serial_lanes):
                ref = s.step()
                assert np.array_equal(node_v[i], ref), f"lane {i} step {k}"
            assert np.array_equal(
                batch.vsource_currents("vdd"),
                [s.vsource_current("vdd") for _, s in serial_lanes],
            ), f"vsource currents diverged at step {k}"
        for i, (_, s) in enumerate(serial_lanes):
            bs = batch.solvers[i]
            assert bs.stats.steps == s.stats.steps
            assert bs.time == pytest.approx(s.time)
            # Per-lane solution stays a coherent row view of the batch.
            assert np.shares_memory(bs.solution, batch._sol_bt)

    def test_mid_run_refactor_of_one_lane(self):
        steps, refactor_at = 120, 50
        rng = np.random.default_rng(11)
        schedules = [_current_schedule(rng, steps) for _ in range(3)]

        currents_bt = np.zeros((3, NUM_SMS))
        batch_lanes = [_make_lane(currents_bt[i]) for i in range(3)]
        batch = BatchTransientSolver(
            [s for _, s in batch_lanes],
            shared_current_base=currents_bt,
        )
        serial_lanes = [_make_lane() for _ in range(3)]

        def degrade(pdn, solver):
            """A fault injector's move: age one parasitic, refactor."""
            resistor = pdn.circuit.elements_of_type(Resistor)[0]
            resistor.resistance *= 3.0
            solver.refactor()

        for k in range(steps):
            if k == refactor_at:
                degrade(*batch_lanes[1])
                degrade(*serial_lanes[1])
            for i in range(3):
                batch_lanes[i][0].set_sm_currents(schedules[i][k])
                serial_lanes[i][0].set_sm_currents(schedules[i][k])
            node_v = batch.step()
            for i, (_, s) in enumerate(serial_lanes):
                assert np.array_equal(node_v[i], s.step()), (
                    f"lane {i} diverged at step {k} "
                    f"({'post' if k >= refactor_at else 'pre'}-refactor)"
                )


class TestBatchValidation:
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            BatchTransientSolver([])

    def test_unknown_vsource_rejected(self):
        currents = np.zeros((1, NUM_SMS))
        _, solver = _make_lane(currents[0])
        batch = BatchTransientSolver([solver], shared_current_base=currents)
        with pytest.raises(KeyError, match="nope"):
            batch.vsource_currents("nope")


class TestBatchLifetime:
    """The batch and its lanes are freed by reference counting."""

    def test_no_reference_cycle_between_batch_and_lanes(self):
        import gc
        import weakref

        currents = np.zeros((2, NUM_SMS))
        solvers = [_make_lane(currents[i])[1] for i in range(2)]
        for s in solvers:
            s.initialize_dc()
        batch = BatchTransientSolver(solvers, shared_current_base=currents)
        batch.step_n(2)
        refs = [weakref.ref(batch)] + [weakref.ref(s) for s in solvers]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del batch, solvers, s
            assert [r() for r in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()

    def test_refactor_after_the_batch_is_gone(self):
        currents = np.zeros((1, NUM_SMS))
        _, solver = _make_lane(currents[0])
        solver.initialize_dc()
        batch = BatchTransientSolver([solver], shared_current_base=currents)
        del batch
        solver.refactor()  # the dead owner is simply skipped
        solver.step()
