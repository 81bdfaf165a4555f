"""The coupled GPU / PDN / controller simulation loop.

Per GPU clock cycle:

1. the GPU timing model advances one cycle with whatever actuation is
   in force (issue widths, fake rates, DCC compensation) and emits each
   SM's power;
2. each SM's power becomes a load current ``I = P / V_sm`` on the PDN
   (the time-varying ideal-current-source convention), plus any DCC
   compensation power on its layer;
3. the transient solver advances the circuit by one clock period (in
   ``circuit_substeps`` trapezoidal steps for resonance accuracy);
4. the per-SM supply voltages feed the detectors and (cross-layer only)
   the Algorithm 1 controller, whose latency-delayed commands update
   the GPU's actuation for subsequent cycles.

:class:`LayerShutoffEvent` reproduces the paper's synthetic worst-case
imbalance (Fig. 9): at a chosen time a whole layer's SMs are forced to
stop issuing, dropping them to idle power while the rest of the stack
keeps running.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.circuits import (
    BatchSolverGuard,
    BatchTransientSolver,
    SolverGuard,
    TransientSolver,
)
from repro.config import StackConfig, SystemConfig
from repro.faults import chaos
from repro.faults.injector import NO_EDGE
from repro.core.actuators import WeightedActuation
from repro.core.controller import (
    ControllerBank,
    ControllerConfig,
    VoltageSmoothingController,
)
from repro.gpu.gpu import GPU
from repro.gpu.kernels import KernelSpec
from repro.pdn.builder import build_stacked_pdn
from repro.pdn.efficiency import (
    EfficiencyBreakdown,
    layer_shuffle_power,
    pde_voltage_stacked,
)
from repro.pdn.parameters import DEFAULT_PDN, PDNParameters
from repro.telemetry.flight import BLOCK_CYCLES, FlightRecorder
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.traces import PowerTrace

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids import cost
    from repro.faults import FaultSchedule
    from repro.telemetry import Telemetry


# Backend/shard facts from this process's most recent run_cosim_batch —
# sweep workers thread it into their heartbeat files so `repro top` can
# show a fleet that silently degraded to the NumPy solver fallback.
_LAST_BATCH_SOLVER: Dict[str, object] = {}


def last_batch_solver_info() -> Dict[str, object]:
    """Solver backend/shard info from the most recent batch run.

    Returns a copy of ``{"backend": "c"|"numpy", "shards": int,
    "lanes": int}``, or an empty dict until :func:`run_cosim_batch`
    has completed once in this process.
    """
    return dict(_LAST_BATCH_SOLVER)


@dataclass(frozen=True)
class LayerShutoffEvent:
    """Force a layer's SMs idle from ``start_cycle`` to ``end_cycle``."""

    layer: int = 3
    start_cycle: int = 2000
    end_cycle: int = 10**9

    def active(self, cycle: int) -> bool:
        return self.start_cycle <= cycle < self.end_cycle


@dataclass(frozen=True)
class CosimConfig:
    """Knobs of one co-simulation run."""

    cycles: int = 3000
    warmup_cycles: int = 200
    cr_ivr_area_mm2: float = 105.8  # the paper's 0.2x-die design point
    use_controller: bool = True
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    # Reliability default: DIWS + FII (Algorithm 1's paired actuation).
    # Performance studies override with DIWS-only or swept weights.
    actuation: Optional[WeightedActuation] = field(
        default_factory=lambda: WeightedActuation(w1=1.0, w2=1.0, w3=0.0)
    )
    circuit_substeps: int = 2
    seed: int = 1
    shutoff: Optional[LayerShutoffEvent] = None
    # Declarative cross-layer fault injection (repro.faults): a
    # FaultSchedule of timed circuit / architecture / system events,
    # threaded through the loop by a FaultInjector.  Event cycles use
    # the same convention as ``shutoff`` (0 = end of warmup).
    faults: Optional["FaultSchedule"] = None
    # Swap in an alternative controller implementation (duck-typed:
    # observe / commands_for / throttled_cycles) — used by the
    # prior-art ablation (e.g. GlobalThrottleController).
    controller_object: Optional[object] = field(default=None, compare=False)
    # Numerical guard-rails (repro.circuits.SolverGuard): detect
    # non-finite / blown-up solves once per cycle and recover by
    # refactorizing, then substep halving, before declaring the run
    # diverged.  The clean-path check is bit-transparent (gated <=2% in
    # benchmarks/test_perf_guard.py); disable only for overhead
    # measurements.
    solver_guard: bool = True

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        if self.warmup_cycles < 0:
            raise ValueError("warmup cannot be negative")
        if self.warmup_cycles >= self.cycles:
            raise ValueError(
                f"warmup_cycles ({self.warmup_cycles}) must be smaller than "
                f"the measured window ({self.cycles} cycles): a warmup that "
                "long leaves (nearly) nothing to measure — every statistic "
                "would be dominated by settling transients or empty windows"
            )
        if self.circuit_substeps <= 0:
            raise ValueError("need at least one circuit substep")


class CosimResult:
    """Waveforms and statistics of one co-simulation."""

    def __init__(
        self,
        benchmark: str,
        power_trace: PowerTrace,
        sm_voltages: np.ndarray,
        supply_current: np.ndarray,
        stack: StackConfig,
        instructions: int,
        fake_instructions: int,
        throttled_cycles: int,
        controller_power_w: float,
        kernels_completed: int = 0,
        mean_dcc_power_w: float = 0.0,
    ) -> None:
        self.benchmark = benchmark
        self.power_trace = power_trace
        self.sm_voltages = sm_voltages  # (cycles, num_sms)
        self.supply_current = supply_current  # (cycles,)
        self.stack = stack
        self.instructions = instructions
        self.fake_instructions = fake_instructions
        self.throttled_cycles = throttled_cycles
        self.controller_power_w = controller_power_w
        self.kernels_completed = kernels_completed
        self.mean_dcc_power_w = mean_dcc_power_w
        self.kernel_durations: np.ndarray = np.array([])
        # Filled by run_cosim when a FaultSchedule was injected: the
        # manifest's ``faults`` section (events, counters, verdict).
        self.fault_report: Optional[Dict[str, object]] = None
        # The droop flight recorder that rode along, when one did
        # (always with telemetry, or passed explicitly): full-resolution
        # windows around every guardband onset / safe-state edge.
        self.flight = None
        # Structured verdict when the transient solve diverged and the
        # guard-rail ladder was exhausted (see SolverGuard): forensics
        # dict with cycle/stage/worst-node, plus truncated waveforms up
        # to the last good cycle.  None on a healthy run.
        self.divergence: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    @property
    def diverged(self) -> bool:
        return self.divergence is not None

    @property
    def num_cycles(self) -> int:
        return self.sm_voltages.shape[0]

    @property
    def min_voltage(self) -> float:
        # Diverged runs may truncate to an empty window.
        if self.sm_voltages.size == 0:
            return float("nan")
        return float(self.sm_voltages.min())

    @property
    def max_voltage(self) -> float:
        if self.sm_voltages.size == 0:
            return float("nan")
        return float(self.sm_voltages.max())

    def voltage_percentiles(self, q) -> np.ndarray:
        """Noise-distribution percentiles over all SMs and cycles (Fig. 11)."""
        return np.percentile(self.sm_voltages, q)

    def worst_sm_voltage_trace(self) -> np.ndarray:
        """Per-cycle minimum SM voltage (Fig. 9's critical waveform)."""
        return self.sm_voltages.min(axis=1)

    def efficiency(
        self, params: PDNParameters = DEFAULT_PDN
    ) -> EfficiencyBreakdown:
        """PDE breakdown of this run, from the measured trace imbalance."""
        load = self.power_trace.mean_power_w
        shuffle = layer_shuffle_power(self.power_trace.data, self.stack)
        return pde_voltage_stacked(
            load, shuffle, self.stack, params,
            controller_power_w=self.controller_power_w,
        )

    def throughput(self) -> float:
        """Real instructions per cycle across the GPU."""
        if self.num_cycles == 0:
            return 0.0
        return self.instructions / self.num_cycles

    def cycles_per_kernel(self) -> float:
        """Mean kernel completion time — the performance-penalty metric.

        Throttling that merely eats kernel-tail slack does not extend
        completion time; throttling on the critical SM does.  Requires
        at least one completed kernel in the measured window.
        """
        if len(self.kernel_durations) == 0:
            raise ValueError(
                "no kernel completed in the measurement window; run longer"
            )
        return float(np.mean(self.kernel_durations))

    def summary(self) -> str:
        eff = self.efficiency()
        # Short runs may finish zero kernels; the human-facing summary
        # degrades to "n/a" while cycles_per_kernel() keeps raising for
        # library callers that need the real number.
        try:
            kernel_time = f"{self.cycles_per_kernel():.0f} cycles/kernel"
        except ValueError:
            kernel_time = "cycles/kernel n/a"
        return (
            f"{self.benchmark}: {self.num_cycles} cycles, "
            f"mean power {self.power_trace.mean_power_w:.1f} W, "
            f"PDE {eff.pde:.1%}, "
            f"V(min) {self.min_voltage:.3f} V, "
            f"throughput {self.throughput():.1f} instr/cycle, "
            f"{kernel_time}, "
            f"fakes {self.fake_instructions}"
        )


def run_cosim(
    benchmark: str = "hotspot",
    config: CosimConfig = CosimConfig(),
    system: SystemConfig = SystemConfig(),
    params: PDNParameters = DEFAULT_PDN,
    kernel: Optional[KernelSpec] = None,
    telemetry: Optional["Telemetry"] = None,
    flight=None,
) -> CosimResult:
    """Run one coupled GPU/PDN/controller simulation.

    ``benchmark`` picks a paper workload; pass ``kernel`` to run a
    custom :class:`KernelSpec` instead (with default memory behaviour).

    This is :func:`run_cosim_batch` with a batch of one lane: both entry
    points share the one per-cycle co-sim loop.  What differs is the
    telemetry, which here is the single run's full manifest.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) records the
    per-stage wall-clock split (GPU model / transient solve /
    controller / record), solver and controller work counters,
    decimated per-cycle voltage/power channels, the noise and fault
    sections, and headline metrics.  ``None`` (the default) leaves the
    hot loop on its untimed fast path.

    ``flight`` (a :class:`repro.telemetry.FlightRecorder`) rides the
    loop and captures full-resolution windows around guardband onsets
    and safe-state edges.  One is created automatically whenever
    telemetry is enabled; pass ``False`` to suppress that, or your own
    recorder to control the window geometry.  The finalized recorder is
    attached as ``result.flight``.
    """
    tele = telemetry if telemetry is not None and telemetry.enabled else None
    if tele is not None:
        tele.event("cosim_start", benchmark=benchmark, cycles=config.cycles,
                   warmup_cycles=config.warmup_cycles, seed=config.seed)
        if config.faults is not None:
            tele.event(
                "faults_armed", schedule=config.faults.name,
                num_events=len(config.faults), seed=config.faults.seed,
            )
    flights = flight if flight is None or flight is False else [flight]
    (result,) = _run_lanes(
        [CosimLane(benchmark, config, kernel)], system, params, tele,
        flights, lane_manifest=True,
    )
    return result


def _record_guard_and_backends(tele, guards: List[SolverGuard]) -> None:
    """Flush guard recovery counters and native-kernel fallbacks."""
    # Summed over every lane's guard: a rebuilt batch guard only wraps
    # the survivors, but quarantined lanes' counts must be reported.
    totals: Dict[str, int] = {}
    for guard in guards:
        for key, value in guard.counters().items():
            totals[key] = totals.get(key, 0) + value
    for key, value in totals.items():
        tele.incr(f"guard_{key}", value)
    # A failed on-demand build of _enginec.c / _solverc.c is warned
    # about once and surfaced here as a counter: the NumPy fallbacks
    # are bit-identical but slow, so campaigns must see the perf cliff.
    from repro.circuits._solverc import build_fallback_count as solver_fb
    from repro.gpu._cbuild import build_fallback_count as gpu_fb

    for name, count in (
        ("gpu.backend_fallback", gpu_fb()),
        ("solver.backend_fallback", solver_fb()),
    ):
        if count:
            tele.incr(name, count)


def _record_channels(
    tele, result: CosimResult, dcc_trace: np.ndarray
) -> None:
    """Decimated per-cycle channels of one run's recorded window."""
    powers = result.power_trace.data
    stack = result.stack
    layers = powers.reshape(
        len(powers), stack.num_layers, stack.num_columns
    ).sum(axis=2)
    for name, values in (
        ("min_sm_voltage_v", result.sm_voltages.min(axis=1)),
        ("total_power_w", powers.sum(axis=1)),
        ("dcc_power_w", dcc_trace[: len(powers)]),
        ("worst_layer_imbalance_w", layers.max(axis=1) - layers.mean(axis=1)),
    ):
        channel = tele.channel(name)
        for k, value in enumerate(values.tolist()):
            channel.record(k, value)


def _record_cosim_telemetry(
    tele, config: CosimConfig, result: CosimResult, solver, controller,
    guard=None,
) -> None:
    """Flush run counters and headline metrics into the recorder."""
    tele.incr("cycles", config.cycles)
    tele.incr("warmup_cycles", config.warmup_cycles)
    tele.incr("solver_steps", solver.stats.steps)
    tele.incr("solver_factorizations", solver.stats.factorizations)
    tele.incr("solver_dc_solves", solver.stats.dc_solves)
    _record_guard_and_backends(tele, [guard] if guard is not None else [])
    if result.divergence is not None:
        tele.event("numerical_divergence", **result.divergence)
    if controller is not None:
        # Duck-typed controllers (prior-art ablations) expose a subset.
        stats = getattr(controller, "stats", None)
        stats = stats() if callable(stats) else {}
        for key in ("decisions_made", "triggers", "throttle_decisions",
                    "boost_decisions"):
            if key in stats:
                tele.incr(f"controller_{key}", stats[key])
        for actuator, count in (stats.get("actuator_decisions") or {}).items():
            tele.incr(f"controller_{actuator}_decisions", count)
        for actuator, count in (stats.get("slew_saturations") or {}).items():
            tele.incr(f"controller_slew_saturated_{actuator}", count)
    tele.incr("controller_throttled_cycles", result.throttled_cycles)
    tele.incr("fake_instructions", result.fake_instructions)
    tele.incr("instructions", result.instructions)
    tele.incr("kernels_completed", result.kernels_completed)
    metrics: Dict[str, object] = {
        "benchmark": result.benchmark,
        # Divergence and recovery work as gateable metrics: baselines
        # carry zeros, so repro compare flags any diverged or
        # recovery-burning candidate with zero-tolerance thresholds.
        "diverged": 1.0 if result.diverged else 0.0,
        "guard_recoveries": (
            float(guard.recoveries) if guard is not None else 0.0
        ),
    }
    if result.num_cycles > 0:
        metrics.update({
            "min_voltage_v": result.min_voltage,
            "max_voltage_v": result.max_voltage,
            "mean_power_w": result.power_trace.mean_power_w,
            "pde": result.efficiency().pde,
            "throughput_ipc": result.throughput(),
            "mean_dcc_power_w": result.mean_dcc_power_w,
        })
    tele.set_metrics(metrics)
    # The noise observatory: band decomposition, droop-event log, PDE
    # loss ledger and per-layer imbalance, embedded as the manifest's
    # ``noise`` section (rendered back by ``repro observe`` and gated
    # by ``repro compare``).  Too-short runs skip it with an event.
    if result.num_cycles >= 8:
        from repro.analysis.observatory import compute_noise_report

        tele.set_section("noise", compute_noise_report(result).to_dict())
    else:
        tele.event(
            "noise_report_skipped",
            reason="too few recorded cycles",
            cycles=result.num_cycles,
        )
    # Fault-injection section: injected events, degradation counters
    # and the guardband verdict (gated by ``repro compare`` via the
    # flat ``faults.*`` summary keys).
    if result.fault_report is not None:
        tele.set_section("faults", result.fault_report)
        tele.event(
            "fault_verdict",
            verdict=result.fault_report["verdict"],
            min_voltage_v=result.fault_report["summary"]["min_voltage_v"],
        )
    tele.event(
        "cosim_done", benchmark=result.benchmark,
        min_voltage_v=result.min_voltage,
        throughput_ipc=result.throughput(),
    )


def run_crosslayer_cosim(
    benchmark: str = "hotspot", cycles: int = 2000, **kwargs
) -> CosimResult:
    """Convenience entry point: default cross-layer configuration."""
    return run_cosim(
        benchmark=benchmark, config=CosimConfig(cycles=cycles, **kwargs)
    )


# ---------------------------------------------------------------------------
# Batched struct-of-scenarios engine
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CosimLane:
    """One scenario of a batched co-simulation.

    Lanes in a batch must share a *topology family* — identical
    ``cycles``, ``warmup_cycles``, ``circuit_substeps`` and
    ``cr_ivr_area_mm2`` (the knobs that shape the netlist and the
    lock-stepped timeline) — while benchmark/kernel, seed, controller
    gains, actuation weights, shutoff events and fault schedules may
    vary freely per lane.
    """

    benchmark: str = "hotspot"
    config: CosimConfig = field(default_factory=CosimConfig)
    kernel: Optional[KernelSpec] = None


_LANE_SHARED_FIELDS = (
    "cycles", "warmup_cycles", "circuit_substeps", "cr_ivr_area_mm2",
    "solver_guard",
)


class _BatchLaneState:
    """One lane's simulation objects and per-lane loop bookkeeping."""

    __slots__ = (
        "index", "name", "config", "gpu", "pdn", "solver", "injector",
        "controller", "controller_power", "in_bank", "bank_slot",
        "shutoff_sms", "next_edge", "fault_kinds",
        "instructions_at_start", "fakes_at_start", "throttled_at_start",
        "applied_decision", "applied_halted", "halted_idx",
        "count_from", "active_throttling",
        "last_decision", "flight", "flight_safe", "flight_meta",
        "row", "dead", "dead_at", "divergence", "guard",
    )

    def __init__(
        self, index: int, lane: CosimLane, system: SystemConfig,
        params: PDNParameters, currents: np.ndarray,
    ) -> None:
        config = lane.config
        stack = system.stack
        cycle_s = system.gpu.cycle_time_s
        self.index = index
        self.config = config
        if lane.kernel is None:
            spec = get_benchmark(lane.benchmark)
            kernel, self.name = spec.kernel, spec.name
            memory = dict(miss_ratio=spec.miss_ratio, jitter=spec.jitter)
        else:
            kernel, self.name, memory = lane.kernel, lane.kernel.name, {}
        self.gpu = GPU(kernel, config=system, seed=config.seed, **memory)
        self.pdn = build_stacked_pdn(
            stack=stack, params=params, cr_ivr_area_mm2=config.cr_ivr_area_mm2
        )
        # Bind the lane's current sources to its batch row *before* the
        # solver caches its gather maps, then seed the circuit at a
        # balanced operating point.
        self.pdn.bind_current_buffer(currents)
        self.solver = TransientSolver(
            self.pdn.circuit, dt=cycle_s / config.circuit_substeps
        )
        self.pdn.set_sm_currents(np.full(
            stack.num_sms,
            system.power.sm_peak_power_w * 0.5 / stack.sm_voltage,
        ))
        self.solver.initialize_dc()
        self.guard = None
        if config.solver_guard:
            self.guard = SolverGuard(self.solver, lane=index)
        self.injector = None
        if config.faults is not None:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(
                config.faults, stack, pdn=self.pdn, solver=self.solver
            )
        self.controller = None
        self.controller_power = 0.0
        if config.use_controller:
            self.controller = config.controller_object
            if self.controller is None:
                self.controller = VoltageSmoothingController(
                    stack=stack, config=config.controller,
                    actuation=config.actuation, dt_s=cycle_s,
                )
            from repro.core.overheads import ControllerOverheads

            self.controller_power = ControllerOverheads().power_w
        self.shutoff_sms: List[int] = (
            stack.sms_in_layer(config.shutoff.layer) if config.shutoff else []
        )
        # Quarantine bookkeeping: ``row`` is the lane's current row in
        # the compacted batch arrays (== index until an eviction);
        # ``dead_at`` is the count of fully recorded cycles when the
        # lane was evicted.
        self.row = index
        self.dead = False
        self.dead_at = 0
        self.divergence = None
        self.in_bank = False
        self.bank_slot = -1  # row in the controller bank's arrays
        # Recorded cycle of the next event-window edge (first cycle: now).
        self.next_edge = -NO_EDGE
        self.fault_kinds = None
        # The decision in force (what the flight recorder samples).
        self.last_decision = None
        self.flight = None
        self.flight_safe = False
        self.flight_meta: list = []
        self.instructions_at_start = 0
        self.fakes_at_start = 0
        self.throttled_at_start = 0
        # Actuation gating: the last applied (decision, halted set).
        # GPU setters are idempotent for identical values, so re-applying
        # an unchanged decision is skipped; holding a strong reference to
        # the applied decision keeps the identity check sound.
        self.applied_decision = None
        self.applied_halted: List[int] = []
        self.halted_idx: List[int] = []  # sorted; replaced, never mutated
        # Event-driven throttle accounting (fast lanes): the active
        # decision's throttle flag covers the half-open cycle span
        # [count_from, next pop); the span length is credited to
        # throttled_cycles at the next pop (or settle), matching the
        # one-count-per-cycle commands_for bookkeeping.
        self.count_from = 0
        self.active_throttling = False

    def update_halted(self, recorded_cycle: int, num: int) -> None:
        """Redo halted SMs (exempt from the launch barrier; full issue
        width elsewhere without a controller) and fault kinds at an
        event edge, and find the next edge."""
        halted: set = set()
        edge = NO_EDGE
        shutoff = self.config.shutoff
        if shutoff is not None:
            if shutoff.active(recorded_cycle):
                halted.update(self.shutoff_sms)
            for bound in (shutoff.start_cycle, shutoff.end_cycle):
                if recorded_cycle < bound < edge:
                    edge = bound
        if self.injector is not None:
            halted.update(self.injector.halted_sms(recorded_cycle))
            self.fault_kinds = self.injector.active_kinds(recorded_cycle)
            edge = min(edge, self.injector.next_edge(recorded_cycle))
        self.next_edge = edge
        self.gpu.barrier_exempt = halted
        self.halted_idx = sorted(halted)
        if self.controller is None and (
            self.applied_decision is None
            or self.halted_idx != self.applied_halted
        ):
            widths = np.full(num, 2.0)
            widths[self.halted_idx] = 0.0
            self.gpu.set_issue_widths(widths)
            self.applied_decision = widths
            self.applied_halted = self.halted_idx

    def actuate(self, decision, dcc_row: np.ndarray) -> None:
        """Apply an unhalted lane's decision (the setters copy)."""
        self.gpu.set_issue_widths(decision.issue_widths)
        self.gpu.set_fake_rates(decision.fake_rates)
        np.copyto(dcc_row, decision.dcc_powers_w)
        self.applied_decision = self.last_decision = decision


def _lane_dcc_possible(ln: _BatchLaneState) -> bool:
    """Whether a lane can ever command nonzero DCC power."""
    if ln.injector is not None and ln.injector.touches_actuation:
        return True
    if ln.controller is None:
        return False
    if ln.config.controller_object is not None:
        return True
    w3 = getattr(getattr(ln.controller, "actuation", None), "w3", None)
    return w3 is None or w3 != 0.0


def _buffers(rows: int, num: int, flight_lanes: list):
    """Per-cycle work blocks: currents, readout bottoms, voltages.

    The currents math and node->SM voltage readout run as out= ufuncs
    on these (at small B the loop is dispatch-bound, so every avoided
    temporary counts).  With flight lanes the readout rotates through
    a (BLOCK_CYCLES, rows, num) stage, and each full stage reaches the
    recorders in one observe_block call per lane.
    """
    depth = BLOCK_CYCLES if flight_lanes else 1
    return (
        np.empty((rows, num)), np.empty((rows, num)),
        np.empty((depth, rows, num)),
    )



def _record_block(shape: tuple) -> np.ndarray:
    """An uninitialized float block on its own anonymous mapping.

    The recorded waveforms (several MB at B=64) outlive the call as
    views in the results.  Taking them from malloc would raise glibc's
    sliding mmap threshold when they are freed, so later runs place
    them, and the engines' large buffers, in the brk heap, where
    fragmentation moves peak RSS from run to run.  A mapping of their
    own is returned to the OS when the last result view drops.
    """
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(8 * count, 1))
    return np.frombuffer(buf, dtype=float, count=count).reshape(shape)

def _flush_flights(
    lanes: List[_BatchLaneState], stage: np.ndarray, staged: int
) -> None:
    """Hand each flight lane its ``staged`` buffered cycles."""
    for ln in lanes:
        ln.flight.observe_block(stage[:staged, ln.row], ln.flight_meta)
        ln.flight_meta.clear()


def _throttles(controller, decision) -> bool:
    """Whether ``decision`` throttles any SM below the default width."""
    return bool(np.any(
        decision.issue_widths < controller._default_issue_width
    ))


def _settle_throttle_span(ln: _BatchLaneState, cycle: int) -> None:
    """Count a fast lane's throttling as if ``commands_for`` had run
    once per cycle up to ``cycle - 1``."""
    if ln.active_throttling:
        ln.controller.throttled_cycles += cycle - ln.count_from
    ln.count_from = cycle
    ln.controller._counted_through_cycle = cycle - 1


def _bank_front_end(members: List[_BatchLaneState], rows: int):
    """``(bank, bank_rows, all_banked, observed)`` over ``members``;
    ``observed`` is the bank's observation mask, ``None`` unless a
    member's faults can drop observations."""
    for slot, ln in enumerate(members):
        ln.in_bank, ln.bank_slot = True, slot
    observed = None
    if any(ln.injector is not None and ln.injector.touches_timing
           for ln in members):
        observed = np.ones(len(members), dtype=bool)
    return (
        ControllerBank([ln.controller for ln in members]) if members
        else None,
        np.array([ln.row for ln in members], dtype=np.intp),
        len(members) == rows,
        observed,
    )


def run_cosim_batch(
    lanes: List[CosimLane],
    system: SystemConfig = SystemConfig(),
    params: PDNParameters = DEFAULT_PDN,
    telemetry: Optional["Telemetry"] = None,
    flights=None,
) -> List[CosimResult]:
    """Run B co-simulation scenarios lock-stepped as one batch.

    Every lane's result is *bit-identical* to running that lane alone
    (``run_cosim`` is this loop with one lane): ops across the batch
    axis are elementwise or row-wise, the circuit back-substitution
    stays one LAPACK call per lane, and everything data-dependent
    (kernel scheduling, fault RNG, controller streaks and pipelines)
    runs on per-lane objects.  The batch exists for throughput: one NumPy
    dispatch per array op instead of B.  The serial loop it is checked
    against lives in the test suite (``tests/oracles/serial_cosim.py``).

    All lanes must share the topology-family fields of
    :class:`CosimLane`.  ``telemetry`` records the stage split (setup /
    gpu_model / transient_solve / controller / record / loop_other /
    finalize), guard and quarantine counters, and events; per-lane
    manifest sections (noise report, decimated channels) remain a
    ``run_cosim`` feature.

    ``flights`` is a per-lane list of
    :class:`repro.telemetry.FlightRecorder` (``None`` entries skip a
    lane), created for every lane when telemetry is enabled (``False``
    suppresses that) and attached as ``result.flight``.
    """
    if not lanes:
        raise ValueError("need at least one lane")
    first_cfg = lanes[0].config
    for lane in lanes[1:]:
        for field_name in _LANE_SHARED_FIELDS:
            a = getattr(first_cfg, field_name)
            b = getattr(lane.config, field_name)
            if a != b:
                raise ValueError(
                    "lanes do not share a topology family: "
                    f"{field_name} differs ({a} != {b}); run incompatible "
                    "scenarios in separate batches"
                )
    tele = telemetry if telemetry is not None and telemetry.enabled else None
    if tele is not None:
        tele.event(
            "cosim_batch_start", lanes=len(lanes), cycles=first_cfg.cycles,
            warmup_cycles=first_cfg.warmup_cycles,
            benchmarks=[lane.benchmark for lane in lanes],
        )
    return _run_lanes(
        lanes, system, params, tele, flights, lane_manifest=False
    )


def _run_lanes(
    lanes: List[CosimLane],
    system: SystemConfig,
    params: PDNParameters,
    tele: Optional["Telemetry"],
    flights,
    lane_manifest: bool,
) -> List[CosimResult]:
    """The co-sim loop: GPU step, PDN solve, Algorithm 1, per cycle.

    ``tele`` is an enabled recorder or ``None``.  ``lane_manifest``
    (single-lane batches from :func:`run_cosim`) records that lane's
    full manifest — decimated channels, counters, noise / faults /
    flight sections — through :func:`_record_cosim_telemetry`; without
    it the recorder gets batch-level counters and events.
    """
    setup_start = perf_counter()
    first_cfg = lanes[0].config
    num_lanes = len(lanes)
    stack = system.stack
    num = stack.num_sms
    conductance_bias = params.sm_conductance * stack.sm_voltage
    warmup = first_cfg.warmup_cycles
    cycles = first_cfg.cycles
    substeps = first_cfg.circuit_substeps
    total_cycles = warmup + cycles

    # The batch axis: row i of this array is lane i's bound SM current
    # buffer (the PDN sources read it directly; see bind_current_buffer).
    batch_currents = np.zeros((num_lanes, num), dtype=float)
    states = [
        _BatchLaneState(i, lane, system, params, batch_currents[i])
        for i, lane in enumerate(lanes)
    ]
    batch_solver = BatchTransientSolver(
        [ln.solver for ln in states], shared_current_base=batch_currents
    )
    batch_guard = None
    if first_cfg.solver_guard:
        batch_guard = BatchSolverGuard(
            batch_solver, guards=[ln.guard for ln in states]
        )
    # Chaos harness: pre-resolved scheduled cycles (one None check per
    # cycle when inactive); lane-targeted NaN poisoning keys on the
    # lane's *original* index.
    monkey = chaos.current()
    chaos_cycles = monkey.cycle_schedule() if monkey is not None else None
    from repro.gpu.batch import GPUBatch

    gpu_batch = GPUBatch([ln.gpu for ln in states])
    # Quarantine bookkeeping: ``alive`` is the current (compacted) lane
    # order — ``ln.row`` indexes the batch working arrays, ``ln.index``
    # the full-size recording arrays, which the recording block writes
    # through ``alive_idx`` (a basic slice until the first eviction).
    alive: List[_BatchLaneState] = list(states)
    alive_idx = slice(None)

    # Batched sensor/decision front end: every lane running the stock
    # controller, fault-injected or not.  Duck-typed controller objects
    # keep the per-lane observe/commands_for path.
    bank_members = [
        ln for ln in states
        if isinstance(ln.controller, VoltageSmoothingController)
    ]
    bank, bank_rows_arr, all_banked, bank_observed = _bank_front_end(
        bank_members, num_lanes
    )
    # Bank lanes whose faults corrupt or drop what the detectors see.
    sense_lanes = [
        ln for ln in bank_members
        if ln.injector is not None
        and (ln.injector.touches_sensors or ln.injector.touches_timing)
    ]

    # Per-SM voltage readout indices — identical across lanes (same
    # netlist builder); verified against lane 0 at setup.
    s0 = states[0]
    node_of = s0.solver.structure.node
    top_idx = np.empty(num, dtype=int)
    bot_idx = np.zeros(num, dtype=int)
    ground_cols = []
    for sm in range(num):
        top, bottom = s0.pdn.sm_terminals(sm)
        top_idx[sm] = node_of(top)
        if bottom == "0":
            ground_cols.append(sm)
        else:
            bot_idx[sm] = node_of(bottom)
    ground_cols = np.array(ground_cols, dtype=np.intp)
    for ln in states[1:]:
        for sm in (0, num - 1):
            if ln.pdn.sm_terminals(sm) != s0.pdn.sm_terminals(sm):
                raise ValueError(
                    "lanes do not share a topology family (SM terminal "
                    "naming differs)"
                )

    powers_bt = np.empty((num_lanes, num))
    dcc_bt = np.zeros((num_lanes, num))
    powers_rec_bt = _record_block((num_lanes, cycles, num))
    sm_voltages_bt = _record_block((num_lanes, cycles, num))
    supply_bt = _record_block((num_lanes, cycles))
    dcc_accum = np.zeros(num_lanes)
    dcc_applied = np.zeros(num_lanes)
    event_lanes = [
        ln for ln in states
        if ln.injector is not None or ln.config.shutoff is not None
    ]
    next_event_edge = -NO_EDGE
    injector_lanes = [ln for ln in states if ln.injector is not None]
    scaled_lanes = [ln for ln in injector_lanes if ln.injector.touches_power]
    # Fast lanes — bank-controlled, never halted, no jitter or actuator
    # faults — apply actuation only when a decision pops out of the
    # latency pipeline (nothing can change between pops); the rest run
    # the per-cycle commands_for path, as does a pre-used controller
    # whose commands_for skips already-counted cycles.
    fast_lanes = [
        ln for ln in bank_members
        if ln.config.shutoff is None
        and (ln.injector is None or not (
            ln.injector.touches_halts or ln.injector.touches_timing
            or ln.injector.touches_actuation
        ))
        and ln.controller._counted_through_cycle < 0
    ]
    slow_ctrl_lanes = [
        ln for ln in states
        if ln.controller is not None and ln not in fast_lanes
    ]
    for ln in fast_lanes:
        ln.active_throttling = _throttles(
            ln.controller, ln.controller.active_decision
        )
    # Skip the per-cycle applied-DCC reduction when no lane can ever
    # command nonzero DCC power: the per-cycle ledger would only add
    # exact 0.0s, which is bitwise what an untouched accumulator holds.
    dcc_possible = any(_lane_dcc_possible(ln) for ln in states)

    # Droop flight recorders: one per lane alongside telemetry (or as
    # passed), observation-only so recording never perturbs the physics.
    if flights is None and tele is not None:
        flights = [
            FlightRecorder(num_sms=num, guardband_v=stack.min_safe_voltage,
                           cycle_offset=-warmup)
            for _ in states
        ]
    elif flights is False:
        flights = None
    if flights is not None and len(flights) != num_lanes:
        raise ValueError(
            f"flights must have one entry per lane ({num_lanes}), "
            f"got {len(flights)}"
        )
    flight_lanes: List[_BatchLaneState] = []
    for ln, fr in zip(states, flights or ()):
        if fr is not None:
            ln.flight = fr
            ln.flight_safe = hasattr(ln.controller, "in_safe_state")
            flight_lanes.append(ln)
    cur_buf, bot_buf, flight_stage = _buffers(num_lanes, num, flight_lanes)
    stage_rows = list(flight_stage)
    volt_buf = stage_rows[0]
    staged = 0  # cycles in flight_stage not yet handed to the recorders

    # Telemetry: stage accumulators.  ``timing`` gates five perf_counter
    # reads per cycle; with telemetry off the loop body is branch-only.
    timing = tele is not None
    t_gpu = t_circuit = t_controller = t_record = 0.0
    # run_cosim's channels come from the recorded waveforms after the
    # loop; only the applied DCC power needs a per-cycle trace.
    dcc_trace = None
    if timing:
        tele.add_time("setup", perf_counter() - setup_start)
        if lane_manifest:
            dcc_trace = np.zeros(cycles)
    loop_start = perf_counter()
    for cycle in range(total_cycles):
        recording = cycle >= warmup
        if cycle == warmup:
            # Work counters cover the recorded window only: settle the
            # throttle spans through warmup-1, then snapshot every lane.
            for ln in fast_lanes:
                _settle_throttle_span(ln, cycle)
            for ln in states:
                ln.instructions_at_start = ln.gpu.total_instructions()
                ln.fakes_at_start = ln.gpu.total_fake_instructions()
                if ln.controller is not None:
                    ln.throttled_at_start = ln.controller.throttled_cycles
        # Event timing (shutoff, faults, chaos) counts from the end of
        # warmup.
        recorded_cycle = cycle - warmup

        # 1. GPU cycle per lane (independent engines, lock-stepped).
        # Circuit faults mutate element values before this cycle's
        # solve; process variation scales the emitted powers before they
        # become currents or records, keeping the PDE ledger closed.
        if timing:
            t0 = perf_counter()
        gpu_batch.step_into(powers_bt)
        at_edge = recorded_cycle >= next_event_edge
        if at_edge:
            for ln in injector_lanes:
                if recorded_cycle >= ln.next_edge:
                    ln.injector.apply_circuit_faults(recorded_cycle)
                    scales = ln.injector.frequency_scales(recorded_cycle)
                    if scales is not None:
                        ln.gpu.set_frequency_scales(scales)
        for ln in scaled_lanes:
            ln.injector.scale_powers(recorded_cycle, powers_bt[ln.row])
        if timing:
            t1 = perf_counter()
            t_gpu += t1 - t0

        # 2. Powers -> PDN currents, all lanes at once.  Per the paper's
        # convention each SM is a time-varying *ideal* current source:
        # I = P / V_nominal.  (Dividing by the instantaneous voltage
        # would add the classic constant-power negative resistance and
        # destabilize the grid.)  The netlist's small-signal load
        # conductance already draws ~g*V per SM, so that bias is
        # deducted from the source to keep the total SM draw equal to
        # P / V_nominal.
        np.add(powers_bt, dcc_bt, out=cur_buf)
        cur_buf /= stack.sm_voltage
        cur_buf -= conductance_bias
        np.maximum(cur_buf, 0.0, out=batch_currents)
        if recording and dcc_possible:
            # Ledger the DCC power *applied* this cycle (the last
            # decision's command, just injected as current above), not
            # the command the controller issues below for the next one.
            dcc_bt.sum(axis=1, out=dcc_applied)

        # 3. Circuit transient over one clock period, batched.  With the
        # guard on, a diverged lane is quarantined: marked dead, its row
        # compacted out of the batch, and the surviving lanes continue
        # lock-stepped (bit-identical to their lone runs — the guard
        # redoes suspect cycles per-lane, and compaction only rebuilds
        # views/wrappers around untouched per-lane state).
        if chaos_cycles is not None and recorded_cycle in chaos_cycles:
            for event in monkey.take_cycle(recorded_cycle):
                for ln in alive:
                    if (event.action == "nan_poison"
                            and event.lane in (None, ln.index)):
                        ln.solver._react_v[:] = np.nan
        if batch_guard is None:
            node_bt = batch_solver.step_n(substeps)
        else:
            node_bt, failures = batch_guard.step_cycle(
                substeps, cycle=recorded_cycle
            )
            if failures:
                if staged:
                    # Dead lanes' recorders get every cycle before the
                    # divergence; the block restarts on the new rows.
                    _flush_flights(flight_lanes, flight_stage, staged)
                    staged = 0
                for row in sorted(failures):
                    ln = alive[row]
                    ln.dead = True
                    ln.dead_at = max(0, recorded_cycle)
                    if ln in fast_lanes:
                        # Its controller ran commands_for through the
                        # previous cycle; close the open span there.
                        _settle_throttle_span(ln, cycle)
                    if ln.injector is not None and cycle:
                        # Halted SMs are counted through that cycle too.
                        ln.injector.halted_sms(recorded_cycle - 1)
                    ln.divergence = {
                        **failures[row].forensics(),
                        "lane": ln.index, "benchmark": ln.name,
                    }
                    if tele is not None:
                        tele.event("lane_quarantined", **ln.divergence)
                (survivors, event_lanes, injector_lanes, scaled_lanes,
                 fast_lanes, slow_ctrl_lanes, flight_lanes, bank_members,
                 sense_lanes) = (
                    [ln for ln in group if not ln.dead]
                    for group in (alive, event_lanes, injector_lanes,
                                  scaled_lanes, fast_lanes, slow_ctrl_lanes,
                                  flight_lanes, bank_members, sense_lanes)
                )
                if not survivors:
                    alive = []
                    break
                # Compact the batch axis around the survivors: new
                # shared current base, re-bound PDN sources + solver
                # gather maps, rebuilt batch solver/guard/GPU front
                # ends, compacted controller bank.  Per-lane objects
                # (solver state, controllers, GPU engines) carry over
                # untouched, so survivor physics continues bit-exactly.
                old_rows = [ln.row for ln in survivors]
                batch_currents = batch_currents[old_rows].copy()
                cur_buf, bot_buf, flight_stage = _buffers(
                    len(survivors), num, flight_lanes
                )
                stage_rows = list(flight_stage)
                volt_buf = stage_rows[0]
                for new_row, ln in enumerate(survivors):
                    ln.row = new_row
                    ln.pdn.bind_current_buffer(batch_currents[new_row])
                    ln.solver.rebind_sources()
                batch_solver = BatchTransientSolver(
                    [ln.solver for ln in survivors],
                    shared_current_base=batch_currents,
                )
                batch_guard = BatchSolverGuard(
                    batch_solver, guards=[ln.guard for ln in survivors]
                )
                gpu_batch = GPUBatch([ln.gpu for ln in survivors])
                # The rebuilt bank re-homes the survivors' filter rows;
                # their controllers carry over untouched.
                bank, bank_rows_arr, all_banked, bank_observed = (
                    _bank_front_end(bank_members, len(survivors))
                )
                powers_bt = powers_bt[old_rows]
                dcc_bt = dcc_bt[old_rows]
                dcc_applied = dcc_applied[old_rows]
                alive = survivors
                alive_idx = np.array(
                    [ln.index for ln in survivors], dtype=np.intp
                )
                node_bt = batch_solver._node_bt
        # Bound-method take skips np.take's dispatch wrapper — this
        # runs twice per recorded cycle on the hot path.
        node_bt.take(bot_idx, axis=1, out=bot_buf)
        if ground_cols.size:
            bot_buf[:, ground_cols] = 0.0
        node_bt.take(top_idx, axis=1, out=volt_buf)
        volt_buf -= bot_buf
        voltages_bt = volt_buf
        if timing:
            t2 = perf_counter()
            t_circuit += t2 - t1

        # Halted SMs and active fault kinds change only at event edges.
        if at_edge:
            for ln in event_lanes:
                if recorded_cycle >= ln.next_edge:
                    ln.update_halted(recorded_cycle, num)
            next_event_edge = min(
                (ln.next_edge for ln in event_lanes), default=NO_EDGE
            )

        # 4. Detection + control (commands apply after the loop
        # latency): one bank call, after fault lanes stage what their
        # detectors see (a corrupted copy, or no observation at all);
        # duck-typed controllers observe per lane.  Each injector draws
        # from its own RNG in the serial order (corrupt, allowed, extra
        # latency), so lane interleaving cannot change any bits.
        # Actuation is gated on decision identity (setters are
        # idempotent, decisions immutable once enqueued) except under
        # actuation-distorting faults; values the loop mutates (halted
        # widths) or retains (DCC) are copies.
        if bank is not None:
            seen = (voltages_bt if all_banked and not sense_lanes
                    else voltages_bt[bank_rows_arr])
            for ln in sense_lanes:
                injector, slot = ln.injector, ln.bank_slot
                if injector.touches_sensors:
                    seen[slot] = injector.corrupt_sensors(
                        recorded_cycle, seen[slot]
                    )
                if injector.touches_timing:
                    bank_observed[slot] = injector.observation_allowed(
                        recorded_cycle
                    )
            bank.observe(cycle, seen, bank_observed)
        for ln in fast_lanes:
            controller = ln.controller
            pipeline = controller._pipeline
            if pipeline and pipeline[0][0] <= cycle:
                while pipeline and pipeline[0][0] <= cycle:
                    _, decision = pipeline.popleft()
                if decision is ln.applied_decision:
                    # An idle wave re-enqueued the object already
                    # applied: same values, same throttle flag — the
                    # open span simply continues.
                    continue
                throttling = _throttles(controller, decision)
                controller.active_decision = decision
                controller._active_throttling = throttling
                if ln.active_throttling:
                    controller.throttled_cycles += cycle - ln.count_from
                ln.count_from = cycle
                ln.active_throttling = throttling
                ln.actuate(decision, dcc_bt[ln.row])
            elif ln.applied_decision is None:
                # First cycles before any pop: the initial active
                # decision (what commands_for would return) applies.
                ln.actuate(controller.active_decision, dcc_bt[ln.row])
        for ln in slow_ctrl_lanes:
            controller = ln.controller
            injector = ln.injector
            if not ln.in_bank:
                seen = voltages_bt[ln.row]
                if injector is not None:
                    seen = injector.corrupt_sensors(recorded_cycle, seen)
                if injector is None or injector.observation_allowed(
                    recorded_cycle
                ):
                    controller.observe(cycle, seen)
            if injector is None or not injector.touches_timing:
                decision = controller.commands_for(cycle)
            else:
                decision = controller.commands_for(
                    cycle - injector.extra_latency(recorded_cycle)
                )
            ln.last_decision = decision
            distort = injector is not None and injector.touches_actuation
            if (
                distort
                or decision is not ln.applied_decision
                or ln.halted_idx != ln.applied_halted
            ):
                widths = decision.issue_widths.copy()
                fakes = decision.fake_rates
                dcc = decision.dcc_powers_w
                if distort:
                    fakes = fakes.copy()
                    dcc = dcc.copy()
                    injector.distort_actuation(
                        recorded_cycle, widths, fakes, dcc
                    )
                if ln.halted_idx:
                    widths[ln.halted_idx] = 0.0
                ln.gpu.set_issue_widths(widths)
                ln.gpu.set_fake_rates(fakes)
                np.copyto(dcc_bt[ln.row], dcc)
                ln.applied_decision = decision
                ln.applied_halted = ln.halted_idx
        if timing:
            t3 = perf_counter()
            t_controller += t3 - t2

        if flight_lanes:
            for ln in flight_lanes:
                ln.flight_meta.append((
                    ln.last_decision,
                    ln.fault_kinds,
                    ln.controller.in_safe_state if ln.flight_safe else False,
                ))
            staged += 1
            if staged == len(stage_rows):
                _flush_flights(flight_lanes, flight_stage, staged)
                staged = 0
            volt_buf = stage_rows[staged]

        if recording:
            # After an eviction, dead lanes keep what they recorded
            # before their divergence cycle (results are truncated to
            # ``dead_at``); survivors scatter through alive_idx.
            k = recorded_cycle
            powers_rec_bt[alive_idx, k, :] = powers_bt
            sm_voltages_bt[alive_idx, k, :] = voltages_bt
            if isinstance(alive_idx, slice):
                batch_solver.vsource_currents("vdd", out=supply_bt[:, k])
            else:
                supply_bt[alive_idx, k] = batch_solver.vsource_currents(
                    "vdd"
                )
            if dcc_possible:
                dcc_accum[alive_idx] += dcc_applied
            if dcc_trace is not None:
                dcc_trace[k] = dcc_applied[0]
        if timing:
            t_record += perf_counter() - t3
    if staged:
        _flush_flights(flight_lanes, flight_stage, staged)
    # Settle the remaining event-driven throttle spans so lane
    # controllers end bit-equal to a per-cycle commands_for run, and
    # count halted SMs through the last cycle.
    for ln in fast_lanes:
        _settle_throttle_span(ln, total_cycles)
    for ln in injector_lanes:
        ln.injector.halted_sms(cycles - 1)
    if timing:
        # Attribute the loop's residual (iteration overhead, warmup
        # bookkeeping, the timing reads themselves) to its own stage so
        # the stage sum reconciles with wall-clock time.
        loop_wall = perf_counter() - loop_start
        tele.add_time("gpu_model", t_gpu)
        tele.add_time("transient_solve", t_circuit)
        tele.add_time("controller", t_controller)
        tele.add_time("record", t_record)
        tele.add_time(
            "loop_other",
            max(0.0, loop_wall - t_gpu - t_circuit - t_controller - t_record),
        )

    finalize_start = perf_counter()
    results: List[CosimResult] = []
    for ln in states:
        # A quarantined lane's recorded window stops at its divergence
        # cycle; its result carries the forensics verdict instead of a
        # NaN tail.
        valid = cycles if not ln.dead else ln.dead_at
        trace = PowerTrace(
            powers_rec_bt[ln.index, :valid],
            frequency_hz=system.gpu.sm_clock_hz,
            name=ln.name,
        )
        launches = np.asarray(ln.gpu.kernel_launch_cycles)
        durations = np.diff(launches[launches >= warmup])
        result = CosimResult(
            benchmark=ln.name,
            power_trace=trace,
            sm_voltages=sm_voltages_bt[ln.index, :valid],
            supply_current=supply_bt[ln.index, :valid],
            stack=stack,
            instructions=(
                ln.gpu.total_instructions() - ln.instructions_at_start
            ),
            fake_instructions=(
                ln.gpu.total_fake_instructions() - ln.fakes_at_start
            ),
            throttled_cycles=(
                ln.controller.throttled_cycles - ln.throttled_at_start
                if ln.controller is not None
                else 0
            ),
            controller_power_w=ln.controller_power,
            kernels_completed=len(durations),
            mean_dcc_power_w=float(dcc_accum[ln.index]) / max(1, valid),
        )
        result.kernel_durations = durations
        if ln.divergence is not None:
            result.divergence = ln.divergence
        if ln.injector is not None and result.num_cycles > 0:
            from repro.faults.injector import build_fault_report

            result.fault_report = build_fault_report(
                ln.injector, result, ln.controller
            )
        if ln.flight is not None:
            if ln.dead:
                ln.flight.force_dump(
                    "numerical_divergence",
                    min_voltage_v=ln.divergence.get("worst_value", np.nan),
                )
            ln.flight.finalize()
            result.flight = ln.flight
        results.append(result)
    if tele is not None:
        quarantined = sum(1 for ln in states if ln.dead)
        if quarantined:
            tele.incr("lanes_quarantined", quarantined)
        if lane_manifest:
            (ln,) = states
            if ln.flight is not None:
                tele.set_section("flight", ln.flight.summary())
            _record_channels(tele, results[0], dcc_trace)
            _record_cosim_telemetry(
                tele, ln.config, results[0], ln.solver, ln.controller,
                guard=ln.guard,
            )
        else:
            _record_guard_and_backends(
                tele, [ln.guard for ln in states if ln.guard is not None]
            )
            for ln, result in zip(states, results):
                tele.event(
                    "cosim_batch_lane_done", lane=ln.index,
                    benchmark=result.benchmark,
                    min_voltage_v=result.min_voltage,
                    throughput_ipc=result.throughput(),
                    diverged=ln.dead,
                )
            tele.event(
                "cosim_batch_done", lanes=num_lanes,
                solver_backend=batch_solver.active_backend,
                solver_shards=batch_solver.shard_count,
            )
        tele.add_time("finalize", perf_counter() - finalize_start)
    _LAST_BATCH_SOLVER.update(
        backend=batch_solver.active_backend,
        shards=batch_solver.shard_count,
        lanes=num_lanes,
    )
    return results
