"""The serial co-sim loop: the oracle the batched loop is checked against.

``repro.sim.cosim`` runs one per-cycle loop, batched over lanes
(``run_cosim`` is a batch of one).  This module keeps the plain
one-scenario loop it replaced: per-object controller calls every cycle,
``SolverGuard`` around the substeps, actuation re-applied each cycle.
It shares no loop code with the batch path, so "bit-identical to
serial" claims compare against an independent implementation.

It keeps the physics, fault injection, guard and divergence handling,
and flight-recorder sampling.  It drops telemetry, stage timers and the
chaos hooks.
"""

from typing import List, Optional

import numpy as np

from repro.circuits import NumericalDivergence, SolverGuard, TransientSolver
from repro.config import SystemConfig
from repro.core.controller import VoltageSmoothingController
from repro.core.overheads import ControllerOverheads
from repro.faults.injector import FaultInjector, build_fault_report
from repro.gpu.gpu import GPU
from repro.gpu.kernels import KernelSpec
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters
from repro.sim.cosim import CosimConfig, CosimResult
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.traces import PowerTrace


def run_serial_cosim(
    benchmark: str = "hotspot",
    config: CosimConfig = CosimConfig(),
    system: SystemConfig = SystemConfig(),
    params: PDNParameters = DEFAULT_PDN,
    kernel: Optional[KernelSpec] = None,
    flight=None,
    gpu_cls=GPU,
) -> CosimResult:
    """One scenario, one cycle at a time; same contract as ``run_cosim``.

    ``flight`` is an optional :class:`repro.telemetry.FlightRecorder`,
    sampled every cycle and attached as ``result.flight``.  ``gpu_cls``
    builds the GPU: the engine-backed ``GPU``, or
    ``tests.oracles.gpu_reference.ReferenceGPU`` for a run that shares
    no GPU code with the batch loop either.
    """
    stack = system.stack
    if kernel is None:
        spec = get_benchmark(benchmark)
        gpu = gpu_cls(
            spec.kernel, config=system, seed=config.seed,
            miss_ratio=spec.miss_ratio, jitter=spec.jitter,
        )
        name = spec.name
    else:
        gpu = gpu_cls(kernel, config=system, seed=config.seed)
        name = kernel.name

    pdn = build_stacked_pdn(
        stack=stack, params=params, cr_ivr_area_mm2=config.cr_ivr_area_mm2
    )
    cycle_s = system.gpu.cycle_time_s
    solver = TransientSolver(pdn.circuit, dt=cycle_s / config.circuit_substeps)
    # Seed the circuit at a balanced operating point.
    nominal_current = system.power.sm_peak_power_w * 0.5 / stack.sm_voltage
    pdn.set_sm_currents(np.full(stack.num_sms, nominal_current))
    solver.initialize_dc()
    guard = SolverGuard(solver) if config.solver_guard else None

    injector = None
    if config.faults is not None:
        injector = FaultInjector(config.faults, stack, pdn=pdn, solver=solver)

    controller = None
    controller_power = 0.0
    if config.use_controller:
        if config.controller_object is not None:
            controller = config.controller_object
        else:
            controller = VoltageSmoothingController(
                stack=stack,
                config=config.controller,
                actuation=config.actuation,
                dt_s=cycle_s,
            )
        controller_power = ControllerOverheads().power_w

    num = stack.num_sms
    flight_safe = flight is not None and hasattr(controller, "in_safe_state")

    top_idx = np.empty(num, dtype=int)
    bot_idx = np.empty(num, dtype=int)
    bot_is_ground = np.zeros(num, dtype=bool)
    for sm in range(num):
        top, bottom = pdn.sm_terminals(sm)
        top_idx[sm] = solver.structure.node(top)
        if bottom == "0":
            bot_is_ground[sm] = True
            bot_idx[sm] = 0
        else:
            bot_idx[sm] = solver.structure.node(bottom)

    sm_voltages = np.empty((config.cycles, num))
    powers_rec = np.empty((config.cycles, num))
    supply_current = np.empty(config.cycles)
    dcc_powers = np.zeros(num)
    shutoff_sms: List[int] = (
        stack.sms_in_layer(config.shutoff.layer) if config.shutoff else []
    )

    conductance_bias = params.sm_conductance * stack.sm_voltage
    total_cycles = config.warmup_cycles + config.cycles
    dcc_energy_accum = 0.0
    # Work counters cover the recorded window only: snapshotted at the
    # warmup boundary and subtracted at the end.
    instructions_at_start = 0
    fakes_at_start = 0
    throttled_at_start = 0
    decision = None
    divergence: Optional[NumericalDivergence] = None
    recorded_count = config.cycles
    for cycle in range(total_cycles):
        recording = cycle >= config.warmup_cycles
        if cycle == config.warmup_cycles:
            instructions_at_start = gpu.total_instructions()
            fakes_at_start = gpu.total_fake_instructions()
            if controller is not None:
                throttled_at_start = controller.throttled_cycles
        recorded_cycle = cycle - config.warmup_cycles

        # 1. GPU cycle under the actuation currently in force.
        powers = gpu.step()
        if injector is not None:
            injector.apply_circuit_faults(recorded_cycle)
            powers = injector.scale_powers(recorded_cycle, powers)
            scales = injector.frequency_scales(recorded_cycle)
            if scales is not None:
                gpu.set_frequency_scales(scales)

        # 2. Powers -> PDN currents (ideal sources, I = P / V_nominal,
        # less the netlist's small-signal load-conductance bias).
        currents = (powers + dcc_powers) / stack.sm_voltage - conductance_bias
        pdn.set_sm_currents(np.maximum(currents, 0.0))
        if recording:
            dcc_applied_w = float(dcc_powers.sum())

        # 3. Circuit transient over one clock period.
        if guard is not None:
            try:
                node_v = guard.step_cycle(
                    config.circuit_substeps, cycle=recorded_cycle
                )
            except NumericalDivergence as exc:
                divergence = exc
                recorded_count = max(0, recorded_cycle)
                break
        else:
            for _ in range(config.circuit_substeps):
                node_v = solver.step()
        bottoms = np.where(bot_is_ground, 0.0, node_v[bot_idx])
        voltages_now = node_v[top_idx] - bottoms

        # Halted SMs must not block the kernel-launch barrier.
        halted: set = set()
        shutoff = config.shutoff
        if shutoff is not None and shutoff.active(recorded_cycle):
            halted.update(shutoff_sms)
        if injector is not None:
            halted.update(injector.halted_sms(recorded_cycle))
        if config.shutoff is not None or injector is not None:
            gpu.barrier_exempt = halted
        halted_idx = sorted(halted)

        # 4. Detection + control.  Decision arrays belong to the
        # controller: widths is mutated, so copied; dcc is retained
        # across cycles, so copied into the loop-owned buffer.
        if controller is not None:
            if injector is None:
                controller.observe(cycle, voltages_now)
                decision = controller.commands_for(cycle)
                widths = decision.issue_widths.copy()
                fakes = decision.fake_rates
                dcc = decision.dcc_powers_w
            else:
                seen = injector.corrupt_sensors(recorded_cycle, voltages_now)
                if injector.observation_allowed(recorded_cycle):
                    controller.observe(cycle, seen)
                decision = controller.commands_for(
                    cycle - injector.extra_latency(recorded_cycle)
                )
                widths = decision.issue_widths.copy()
                fakes = decision.fake_rates
                dcc = decision.dcc_powers_w
                if injector.touches_actuation:
                    fakes = fakes.copy()
                    dcc = dcc.copy()
                    injector.distort_actuation(
                        recorded_cycle, widths, fakes, dcc
                    )
            if halted_idx:
                widths[halted_idx] = 0.0
            gpu.set_issue_widths(widths)
            gpu.set_fake_rates(fakes)
            np.copyto(dcc_powers, dcc)
        elif config.shutoff is not None or injector is not None:
            widths = np.full(num, 2.0)
            if halted_idx:
                widths[halted_idx] = 0.0
            gpu.set_issue_widths(widths)

        if flight is not None:
            flight.observe(
                voltages_now,
                decision,
                injector.active_kinds(recorded_cycle)
                if injector is not None
                else None,
                controller.in_safe_state if flight_safe else False,
            )

        if recording:
            k = recorded_cycle
            powers_rec[k] = powers
            sm_voltages[k] = voltages_now
            supply_current[k] = solver.vsource_current("vdd")
            dcc_energy_accum += dcc_applied_w

    if divergence is not None:
        sm_voltages = sm_voltages[:recorded_count]
        powers_rec = powers_rec[:recorded_count]
        supply_current = supply_current[:recorded_count]

    trace = PowerTrace(
        powers_rec, frequency_hz=system.gpu.sm_clock_hz, name=name
    )
    # One completed-kernel interval per launch pair inside the window.
    launches = np.asarray(gpu.kernel_launch_cycles)
    durations = np.diff(launches[launches >= config.warmup_cycles])
    result = CosimResult(
        benchmark=name,
        power_trace=trace,
        sm_voltages=sm_voltages,
        supply_current=supply_current,
        stack=stack,
        instructions=gpu.total_instructions() - instructions_at_start,
        fake_instructions=gpu.total_fake_instructions() - fakes_at_start,
        throttled_cycles=(
            controller.throttled_cycles - throttled_at_start
            if controller is not None
            else 0
        ),
        controller_power_w=controller_power,
        kernels_completed=len(durations),
        mean_dcc_power_w=dcc_energy_accum / (
            config.cycles if divergence is None else max(1, recorded_count)
        ),
    )
    result.kernel_durations = durations
    if divergence is not None:
        info = divergence.forensics()
        info["benchmark"] = name
        result.divergence = info
    if injector is not None and result.num_cycles > 0:
        result.fault_report = build_fault_report(injector, result, controller)
    if flight is not None:
        if divergence is not None:
            flight.force_dump(
                "numerical_divergence",
                min_voltage_v=(
                    float("nan")
                    if divergence.worst_value is None
                    else float(divergence.worst_value)
                ),
            )
        flight.finalize()
        result.flight = flight
    return result
