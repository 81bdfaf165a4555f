"""Algorithm 1: the boundary-triggered voltage smoothing controller.

Every control period the controller reads the filtered boundary-node
voltages from the per-SM detectors, derives each SM's layer voltage
``V_sm(i,j) = V(i,j) - V(i-1,j)``, and — only when an SM droops below
``v_threshold`` — computes proportional actuation:

* the drooping SM's issue width is cut by ``k1 * w1 * (V_nom - V_sm)``;
* fake instructions at rate ``k2 * w2 * (V_nom - V_sm)`` are injected
  into the SM *above* it in the stack (raising the neighbour layer's
  current restores the series balance from the other side);
* a DCC code worth ``k3 * w3 * (V_nom - V_sm)`` watts is applied near
  the layer above.

Commands take effect after the loop latency (detector + compute +
actuate + wire delay), modeled by a delay queue.  When the SM recovers
above the threshold its commands relax back to defaults.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import StackConfig
from repro.core.actuators import (
    ActuationCommand,
    CurrentCompensationDAC,
    WeightedActuation,
)
from repro.core.detectors import DETECTOR_OPTIONS, DetectorSpec, VoltageDetector
from repro.core.overheads import control_latency_cycles


@dataclass(frozen=True)
class ControllerConfig:
    """Tunables of the Algorithm 1 controller."""

    # Gains follow the sampled-stability analysis: the per-volt power
    # response k_i * P_instr must stay below the 2C/T limit (~12 W/V at
    # the 60-cycle loop), or the loop limit-cycles.
    v_threshold: float = 0.9  # droop trigger voltage (Section VI-C default)
    # Symmetric boost trigger: a layer voltage above this marks an
    # underdrawing layer and engages FII/DCC on it directly.  Sits a bit
    # beyond the droop threshold's mirror so ordinary workload variance
    # does not burn fake-instruction power.
    v_high_threshold: float = 1.15
    v_nominal: float = 1.0
    k1: float = 1.0  # DIWS proportional factor (issue slots per volt)
    k2: float = 8.0  # FII proportional factor (fakes/cycle per volt)
    k3: float = 20.0  # DCC proportional factor (watts per volt)
    control_period_cycles: int = 4  # decision rate of the controller
    # Maximum per-decision command change (slew limiting): abrupt
    # full-swing actuation steps would ring the PDN's package resonance
    # harder than the noise being fixed, and the slew bound also caps
    # the overshoot accumulated during the loop latency
    # (ramp <= slew * latency / period), which is what keeps the high
    # FII gain stable.  Each actuator slews in its *own* natural units —
    # issue slots, fakes/cycle, and watts respectively; a single shared
    # number cannot serve all three (0.02 slots is a meaningful DIWS
    # step, but 0.02 W per decision pins the k3 = 20 W/V DCC DAC to a
    # ramp hundreds of decisions long, disabling it in practice).
    # ``slew_per_decision`` is the legacy shared knob: it still seeds
    # ``slew_issue`` and ``slew_fake`` when they are not given, so
    # existing DIWS/FII configurations behave identically.
    slew_per_decision: float = 0.02
    slew_issue: Optional[float] = None  # issue slots per decision
    slew_fake: Optional[float] = None  # fakes/cycle per decision
    slew_dcc_w: float = 0.25  # watts per decision (5 DAC LSBs)
    latency_cycles: Optional[int] = None  # None -> budget from overheads
    detector: DetectorSpec = field(
        default_factory=lambda: DETECTOR_OPTIONS["oddd"]
    )
    # Escape hatch for the sampled-stability validation below: research
    # configurations that deliberately cross the 2C/T bound (e.g. to
    # reproduce a limit cycle) must opt in explicitly.
    allow_unstable: bool = False
    # --- graceful degradation -----------------------------------------
    # The emergency guardband: ``watchdog_patience`` consecutive
    # decisions measuring the worst SM below ``guardband_v`` escalate to
    # a safe state (issue width clamped to ``safe_issue_width`` on every
    # SM, FII off, DCC clamped off) until
    # ``safe_state_release_decisions`` consecutive healthy decisions
    # release it.  Off by default: escalation deliberately trades
    # throughput for survival, so fault-scenario runs opt in.
    guardband_v: float = 0.8
    watchdog_enabled: bool = False
    watchdog_patience: int = 8
    # Max DIWS throttle: issue width 0 stops real issue everywhere, so
    # every SM draws (near-uniform) idle power and the series stack
    # re-balances by construction, whatever caused the imbalance.
    safe_issue_width: float = 0.0
    safe_state_release_decisions: int = 200
    # Sensor-loss fallback: a NaN sample (dropout) holds the last good
    # measurement and widens that SM's trigger thresholds by
    # ``fallback_widen_v`` — protective actions engage earlier on stale
    # data, power-adding ones later.  NaN itself NEVER reaches the RC
    # filter or produces actuation, fallback enabled or not.
    sensor_fallback_enabled: bool = True
    fallback_widen_v: float = 0.05
    # Limit-cycle detection (stats only): the throttle-engagement flag
    # flipping >= ``limit_cycle_min_flips`` times within the last
    # ``limit_cycle_window`` decisions marks a sustained oscillation.
    limit_cycle_window: int = 32
    limit_cycle_min_flips: int = 12

    def __post_init__(self) -> None:
        if not 0.0 < self.v_threshold <= self.v_nominal:
            raise ValueError("need 0 < v_threshold <= v_nominal")
        if self.v_high_threshold < self.v_nominal:
            raise ValueError("v_high_threshold must be >= v_nominal")
        if self.control_period_cycles <= 0:
            raise ValueError("control period must be positive")
        if min(self.k1, self.k2, self.k3) < 0:
            raise ValueError("proportional factors must be non-negative")
        if self.slew_per_decision <= 0:
            raise ValueError("slew limit must be positive")
        # Seed the per-actuator limits from the legacy shared knob.
        if self.slew_issue is None:
            object.__setattr__(self, "slew_issue", self.slew_per_decision)
        if self.slew_fake is None:
            object.__setattr__(self, "slew_fake", self.slew_per_decision)
        if min(self.slew_issue, self.slew_fake, self.slew_dcc_w) <= 0:
            raise ValueError("per-actuator slew limits must be positive")
        if not 0.0 < self.guardband_v < self.v_nominal:
            raise ValueError("need 0 < guardband_v < v_nominal")
        if self.watchdog_patience <= 0:
            raise ValueError("watchdog_patience must be positive")
        if not 0.0 <= self.safe_issue_width <= 2.0:
            raise ValueError("safe_issue_width must be within 0..2 slots")
        if self.safe_state_release_decisions <= 0:
            raise ValueError("safe_state_release_decisions must be positive")
        if self.fallback_widen_v < 0:
            raise ValueError("fallback_widen_v cannot be negative")
        if self.limit_cycle_window < 4:
            raise ValueError("limit_cycle_window must be at least 4")
        if not 0 < self.limit_cycle_min_flips < self.limit_cycle_window:
            raise ValueError(
                "limit_cycle_min_flips must be within the window"
            )
        if not self.allow_unstable:
            limit = self.stability_limit_w_per_v()
            gains = self.effective_power_gains_w_per_v()
            offenders = {
                name: gains[name]
                for name in ("diws", "fii")
                if gains[name] > limit * (1.0 + 1e-9)
            }
            if offenders:
                detail = ", ".join(
                    f"{name}={gain:.2f} W/V" for name, gain in offenders.items()
                )
                raise ValueError(
                    f"unstable controller gains ({detail}) exceed the "
                    f"sampled-stability limit 2C/T = {limit:.2f} W/V at the "
                    f"{self.total_latency_cycles}-cycle loop — such a loop "
                    "limit-cycles (gain beyond 2C/T overshoots the "
                    "boundary capacitance every period); reduce k1/k2, "
                    "tighten the slew limits, shorten the latency, or pass "
                    "allow_unstable=True to study the oscillation"
                )

    @property
    def total_latency_cycles(self) -> int:
        if self.latency_cycles is not None:
            return self.latency_cycles
        return control_latency_cycles(self.detector)

    # ------------------------------------------------------------------
    # Sampled-stability bound (the "~12 W/V" note on the gains above)
    # ------------------------------------------------------------------
    def stability_limit_w_per_v(
        self,
        cycle_time_s: Optional[float] = None,
        boundary_capacitance_f: Optional[float] = None,
    ) -> float:
        """The 2C/T gain bound of the sampled (ZOH) control loop.

        A proportional power-per-volt gain above ``2C/T`` moves more
        charge per loop latency ``T`` than the boundary capacitance
        ``C`` holds, so every correction overshoots and the loop
        limit-cycles.  ``C`` defaults to the decap hanging on one layer
        boundary of the default stack (above + below: 2 x columns x
        per-SM decap = 512 nF), ``T`` to this config's loop latency at
        the default 700 MHz clock — about 12 W/V for the 60-cycle loop.
        """
        if cycle_time_s is None:
            from repro.config import GPUConfig

            cycle_time_s = GPUConfig().cycle_time_s
        if boundary_capacitance_f is None:
            from repro.pdn.parameters import DEFAULT_PDN

            boundary_capacitance_f = (
                2 * StackConfig().num_columns * DEFAULT_PDN.sm_decap
            )
        latency_s = self.total_latency_cycles * cycle_time_s
        return 2.0 * boundary_capacitance_f / latency_s

    def effective_power_gains_w_per_v(self) -> Dict[str, float]:
        """Slew-aware closed-loop power gains, per actuator (W/V).

        The raw proportional gain is ``k_i * P_instr`` (DIWS/FII issue
        or inject instructions worth ``P_instr`` watts each; DCC's
        ``k3`` is already in W/V).  The per-decision slew limit caps how
        much actuation can actually build up within one loop latency —
        ``slew x (latency / period)`` command units — so over the
        guardband excursion (``v_nominal - guardband_v``) the realized
        gain is the *smaller* of the raw gain and that ramp bound.
        Only DIWS and FII gate construction: they always engage when
        triggered, while DCC's contribution scales with the actuation
        weight ``w3`` (zero in the reliability default) which this
        config does not know.
        """
        p_instr = WeightedActuation().instruction_power_w
        decisions = self.total_latency_cycles / self.control_period_cycles
        depth = self.v_nominal - self.guardband_v

        def slew_cap(slew: float, unit_power_w: float) -> float:
            if depth <= 0:
                return float("inf")
            return slew * decisions * unit_power_w / depth

        return {
            "diws": min(self.k1 * p_instr, slew_cap(self.slew_issue, p_instr)),
            "fii": min(self.k2 * p_instr, slew_cap(self.slew_fake, p_instr)),
            "dcc": min(self.k3, slew_cap(self.slew_dcc_w, 1.0)),
        }


@dataclass
class ControlDecision:
    """Per-GPU actuation computed by one controller invocation."""

    issue_widths: np.ndarray  # per SM
    fake_rates: np.ndarray  # per SM
    dcc_powers_w: np.ndarray  # per SM (watts of compensation current)
    triggered_sms: List[int] = field(default_factory=list)


class VoltageSmoothingController:
    """Algorithm 1 with detectors, latency pipeline and statistics."""

    def __init__(
        self,
        stack: StackConfig = StackConfig(),
        config: ControllerConfig = ControllerConfig(),
        actuation: Optional[WeightedActuation] = None,
        dt_s: float = 1.0 / 700e6,
    ) -> None:
        self.stack = stack
        self.config = config
        self.actuation = actuation or WeightedActuation()
        self.dt_s = dt_s
        self.detectors = [
            VoltageDetector(config.detector, filter_initial_v=stack.sm_voltage)
            for _ in range(stack.num_sms)
        ]
        # Vectorized sensor front-end: one array holds every SM's RC
        # filter state; observe() advances them all with three ufunc
        # calls instead of num_sms Python method calls.  The per-object
        # detectors above remain the spec source and the documented
        # front-end model; their scalar ``sample`` is what the array
        # update replicates operation-for-operation.
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        filt = self.detectors[0].filter
        tau = filt.r_ohm * filt.c_farad
        self._filter_alpha = dt_s / (tau + dt_s)
        self._filter_state = np.full(stack.num_sms, stack.sm_voltage)
        self._resolution_v = config.detector.resolution_v
        # (apply_at_cycle, decision) queue modelling the loop latency.
        self._pipeline: Deque[Tuple[int, ControlDecision]] = deque()
        self._latency = config.total_latency_cycles
        self._last_decision_cycle = -config.control_period_cycles
        self._default_issue_width = float(self.actuation.issue_width_max)
        self.active_decision = self._default_decision()
        self._last_enqueued = self._default_decision()
        # Statistics for performance-penalty accounting.  throttled_cycles
        # counts *simulated* cycles (commands_for may be called more than
        # once for the same cycle without double counting).
        self.throttled_cycles = 0
        self._counted_through_cycle = -1
        self.decisions_made = 0
        self.triggers = 0
        # Per-actuator telemetry: decisions in which each actuator was
        # engaged, and decisions in which its slew clamp saturated (the
        # commanded change exceeded the per-decision limit).
        self.actuator_decisions: Dict[str, int] = {
            "diws": 0, "fii": 0, "dcc": 0
        }
        self.slew_saturations: Dict[str, int] = {
            "issue": 0, "fake": 0, "dcc": 0
        }
        self.throttle_decisions = 0
        self.boost_decisions = 0
        # Graceful-degradation state: sensor-loss fallback holds the
        # last good filtered measurement per SM; the guardband watchdog
        # tracks consecutive sub-guardband decisions and escalates to
        # the safe state; limit-cycle detection watches the throttle
        # flag flap.
        self._last_good = np.full(stack.num_sms, config.v_nominal)
        self._fallback_active = np.zeros(stack.num_sms, dtype=bool)
        self.sensor_fallback_samples = 0
        self.nan_samples_seen = 0
        self.watchdog_engagements = 0
        self.safe_state_decisions = 0
        self.in_safe_state = False
        self._subguard_streak = 0
        self._healthy_streak = 0
        self._flap_history: Deque[bool] = deque(
            maxlen=config.limit_cycle_window
        )
        # Incrementally maintained count of adjacent flag flips inside
        # the history window (O(1) per decision vs re-scanning the
        # window).
        self._flap_flips = 0
        self.limit_cycle_events = 0
        self._limit_cycle_flagged = False
        # Cached "active decision throttles" flag, refreshed whenever a
        # new decision is popped from the pipeline; commands_for()
        # consults it instead of re-scanning issue widths every cycle.
        # Decision arrays are controller-owned and never mutated after
        # enqueue (callers copy at the boundary — see run_cosim), so the
        # cache cannot go stale.
        self._active_throttling = bool(
            np.any(self.active_decision.issue_widths < self._default_issue_width)
        )

    # ------------------------------------------------------------------
    def _default_decision(self) -> ControlDecision:
        n = self.stack.num_sms
        return ControlDecision(
            issue_widths=np.full(n, self._default_issue_width),
            fake_rates=np.zeros(n),
            dcc_powers_w=np.zeros(n),
        )

    def observe(self, cycle: int, sm_voltages: np.ndarray) -> None:
        """Feed this cycle's true SM voltages through the detectors.

        Runs the per-SM RC filters every cycle; makes a control decision
        every ``control_period_cycles`` and enqueues it to apply after
        the loop latency.

        A non-finite sample means "no reading this cycle" (sensor
        dropout): it never enters the RC filter (NaN would poison the
        filter state permanently) and never produces actuation.  With
        the sensor fallback enabled the SM's last good measurement is
        held instead, with widened trigger thresholds; otherwise the SM
        simply cannot trigger until a real sample returns.
        """
        sm_voltages = np.asarray(sm_voltages, dtype=float)
        if sm_voltages.shape != (self.stack.num_sms,):
            raise ValueError(
                f"expected {self.stack.num_sms} SM voltages, got "
                f"{sm_voltages.shape}"
            )
        measured = self._advance_filters(sm_voltages)
        if cycle - self._last_decision_cycle < self.config.control_period_cycles:
            return
        self._last_decision_cycle = cycle
        self._update_watchdog(measured)
        if self.in_safe_state:
            decision = self._safe_decision()
            self.safe_state_decisions += 1
        else:
            decision = self._decide(measured)
        self._apply_slew_limit(decision)
        self._enqueue(
            cycle, decision,
            bool(np.any(decision.issue_widths < self._default_issue_width)),
            bool(np.any(decision.fake_rates > 0.0)),
            bool(np.any(decision.dcc_powers_w > 0.0)),
        )

    def _advance_filters(self, sm_voltages: np.ndarray) -> np.ndarray:
        """Advance every SM's RC filter one cycle; return the measurement.

        RC filter + quantization for all SMs at once.  The elementwise
        float64 ops match RCLowPassFilter.step / VoltageDetector.sample
        exactly (np.rint is round-half-even, like Python's round), so
        decisions are bit-identical to the per-object path.  Non-finite
        samples never enter the filter state.
        """
        cfg = self.config
        finite = np.isfinite(sm_voltages)
        state = self._filter_state
        alpha = self._filter_alpha
        step = self._resolution_v
        if finite.all():
            state += alpha * (sm_voltages - state)
            measured = np.rint(state / step) * step
            self._last_good[:] = measured
            if self._fallback_active.any():
                self._fallback_active[:] = False
        else:
            bad = ~finite
            self.nan_samples_seen += int(bad.sum())
            np.copyto(state, state + alpha * (sm_voltages - state), where=finite)
            measured = np.rint(state / step) * step
            np.copyto(self._last_good, measured, where=finite)
            self._fallback_active[finite] = False
            if cfg.sensor_fallback_enabled:
                np.copyto(measured, self._last_good, where=bad)
                self._fallback_active[bad] = True
                self.sensor_fallback_samples += int(bad.sum())
            else:
                measured[bad] = np.nan
        return measured

    def _enqueue(
        self,
        cycle: int,
        decision: ControlDecision,
        throttling: bool,
        fii_active: bool,
        dcc_active: bool,
    ) -> None:
        """Count a post-slew decision and queue it behind the latency.

        A throttle decision is one that cuts issue width below the
        default — overvoltage boosts (which *inject* work) are counted
        separately, so the Fig. 12 throttling proxy is not inflated by
        power-adding actuation.
        """
        self._last_enqueued = decision
        self.decisions_made += 1
        if decision.triggered_sms:
            self.triggers += 1
        self._track_limit_cycle(throttling)
        if throttling:
            self.throttle_decisions += 1
            self.actuator_decisions["diws"] += 1
        if fii_active:
            self.actuator_decisions["fii"] += 1
        if dcc_active:
            self.actuator_decisions["dcc"] += 1
        if fii_active or dcc_active:
            self.boost_decisions += 1
        self._pipeline.append((cycle + self._latency, decision))

    def _update_watchdog(self, measured: np.ndarray) -> None:
        """Track sub-guardband streaks; escalate / release the safe state.

        The streaks advance on *decisions* (not cycles), so
        ``watchdog_patience`` is a count of consecutive control
        decisions whose worst measured SM sits below the guardband.
        All-NaN measurements (total sensor loss without fallback) leave
        the streaks untouched: no evidence either way.
        """
        finite = measured[np.isfinite(measured)]
        if finite.size == 0:
            return
        self._note_worst_measurement(float(finite.min()))

    def _note_worst_measurement(self, worst: float) -> None:
        """Advance the watchdog streaks given this decision's worst SM."""
        cfg = self.config
        if worst < cfg.guardband_v:
            self._subguard_streak += 1
            self._healthy_streak = 0
        else:
            self._subguard_streak = 0
            self._healthy_streak += 1
        if (
            cfg.watchdog_enabled
            and not self.in_safe_state
            and self._subguard_streak >= cfg.watchdog_patience
        ):
            self.in_safe_state = True
            self.watchdog_engagements += 1
            self._healthy_streak = 0
        elif (
            self.in_safe_state
            and self._healthy_streak >= cfg.safe_state_release_decisions
        ):
            self.in_safe_state = False

    def _safe_decision(self) -> ControlDecision:
        """The emergency safe state: minimal, uniform, boost-free draw.

        Every SM's issue width is clamped to ``safe_issue_width`` and
        all power-adding actuation (FII, DCC) is clamped off: a small
        uniform current per layer restores the series balance no matter
        which layer caused the imbalance, at a known throughput cost.
        The decision still passes through the normal slew limiter and
        latency pipeline — the safe state must not itself ring the PDN.
        """
        n = self.stack.num_sms
        return ControlDecision(
            issue_widths=np.full(n, float(self.config.safe_issue_width)),
            fake_rates=np.zeros(n),
            dcc_powers_w=np.zeros(n),
        )

    def _track_limit_cycle(self, throttling: bool) -> None:
        """Flag sustained on/off flapping of the throttle engagement.

        The adjacent-flip count is maintained incrementally: appending
        to the full window evicts ``history[0]`` — removing the
        ``(history[0], history[1])`` adjacency — and adds the
        ``(history[-1], new)`` one, so each decision costs O(1) instead
        of re-scanning the window.
        """
        cfg = self.config
        hist = self._flap_history
        if len(hist) == cfg.limit_cycle_window and hist[0] != hist[1]:
            self._flap_flips -= 1
        if hist and hist[-1] != throttling:
            self._flap_flips += 1
        hist.append(throttling)
        if len(hist) < cfg.limit_cycle_window:
            return
        flips = self._flap_flips
        if flips >= cfg.limit_cycle_min_flips:
            if not self._limit_cycle_flagged:
                self._limit_cycle_flagged = True
                self.limit_cycle_events += 1
        elif flips <= cfg.limit_cycle_min_flips // 2:
            self._limit_cycle_flagged = False

    def _decide(
        self,
        measured: np.ndarray,
        decision: Optional[ControlDecision] = None,
    ) -> ControlDecision:
        """The Algorithm 1 loop body over all (layer, column) positions.

        ``decision`` lets :class:`ControllerBank` pass a preallocated
        default decision (rows of a wave-shared array) instead of
        allocating one per lane; its arrays must hold the default
        commands on entry.

        Two symmetric boundary triggers implement eq. (6)'s
        ``P_i = k V_i`` around the deadband:

        * an SM below ``v_threshold`` is overdrawing — DIWS throttles it
          proportionally to its droop;
        * an SM above ``v_high_threshold`` is underdrawing — FII / DCC
          raise its power proportionally to its overvoltage.  (In a
          series stack the overvolted SM is exactly the ``SM(i+1, j)``
          neighbour of a drooping SM that Algorithm 1 names as the
          injection target; triggering on its own voltage keeps the
          boost engaged until balance is actually restored instead of
          releasing as soon as the drooping SM crosses back over its
          threshold.)
        """
        cfg = self.config
        if decision is None:
            decision = self._default_decision()
        for sm in range(self.stack.num_sms):
            v_sm = measured[sm]
            # Sensor-loss fallback widens this SM's thresholds: with a
            # held (stale) measurement, protective throttling engages
            # earlier and power-adding boosts engage later.  NaN (no
            # fallback) fails both comparisons — never actuates.
            widen = (
                cfg.fallback_widen_v if self._fallback_active[sm] else 0.0
            )
            if v_sm < cfg.v_threshold + widen:
                decision.triggered_sms.append(sm)
                error = cfg.v_nominal - v_sm
                command = self.actuation.commands(
                    error, cfg.k1, cfg.k2, cfg.k3
                )
                decision.issue_widths[sm] = command.issue_width
            elif v_sm > cfg.v_high_threshold + widen:
                decision.triggered_sms.append(sm)
                boost = self.actuation.boost_commands(
                    v_sm - cfg.v_nominal, cfg.k2, cfg.k3
                )
                decision.fake_rates[sm] = max(
                    decision.fake_rates[sm], boost.fake_rate
                )
                decision.dcc_powers_w[sm] = max(
                    decision.dcc_powers_w[sm],
                    self.actuation.dac.power_for_code(boost.dcc_code),
                )
        return decision

    def _apply_slew_limit(self, decision: ControlDecision) -> None:
        """Clamp each command within its actuator's per-decision slew.

        Each actuator is limited in its own natural units (issue slots,
        fakes/cycle, watts); saturation of a clamp — the proportional
        law asking for a bigger step than the slew allows — is counted
        per actuator for telemetry.
        """
        cfg = self.config
        previous = self._last_enqueued
        for key, values, prev, slew in (
            ("issue", decision.issue_widths, previous.issue_widths,
             cfg.slew_issue),
            ("fake", decision.fake_rates, previous.fake_rates,
             cfg.slew_fake),
            ("dcc", decision.dcc_powers_w, previous.dcc_powers_w,
             cfg.slew_dcc_w),
        ):
            clamped = np.clip(values, prev - slew, prev + slew)
            if np.any(clamped != values):
                self.slew_saturations[key] += 1
            values[:] = clamped

    def commands_for(self, cycle: int) -> ControlDecision:
        """The actuation in force at ``cycle`` (after loop latency)."""
        while self._pipeline and self._pipeline[0][0] <= cycle:
            _, decision = self._pipeline.popleft()
            self.active_decision = decision
            # Decisions are immutable once enqueued (ownership contract:
            # actuation consumers copy at the boundary), so the throttle
            # scan happens once per decision pop, not once per cycle.
            self._active_throttling = bool(
                np.any(decision.issue_widths < self._default_issue_width)
            )
        # Count each simulated cycle at most once, so callers that read
        # the same cycle's commands twice do not double-count.
        if cycle > self._counted_through_cycle:
            self._counted_through_cycle = cycle
            if self._active_throttling:
                self.throttled_cycles += 1
        return self.active_decision

    # ------------------------------------------------------------------
    @property
    def throttle_fraction(self) -> float:
        """Fraction of decisions that cut issue width (for Fig. 12).

        Only work-removing decisions count; overvoltage boosts (FII/DCC
        injections, which *add* work) are reported separately as
        :attr:`boost_fraction`.
        """
        if self.decisions_made == 0:
            return 0.0
        return self.throttle_decisions / self.decisions_made

    @property
    def boost_fraction(self) -> float:
        """Fraction of decisions engaging power-adding actuation."""
        if self.decisions_made == 0:
            return 0.0
        return self.boost_decisions / self.decisions_made

    def stats(self) -> Dict[str, object]:
        """Controller statistics snapshot for telemetry manifests."""
        return {
            "decisions_made": self.decisions_made,
            "triggers": self.triggers,
            "throttle_decisions": self.throttle_decisions,
            "boost_decisions": self.boost_decisions,
            "throttled_cycles": self.throttled_cycles,
            "actuator_decisions": dict(self.actuator_decisions),
            "slew_saturations": dict(self.slew_saturations),
            "watchdog_engagements": self.watchdog_engagements,
            "safe_state_decisions": self.safe_state_decisions,
            "in_safe_state": self.in_safe_state,
            "sensor_fallback_samples": self.sensor_fallback_samples,
            "nan_samples_seen": self.nan_samples_seen,
            "limit_cycle_events": self.limit_cycle_events,
        }


class ControllerBank:
    """Lock-stepped sensor/decision front end over B independent lanes.

    The batched co-simulator steps B scenarios per cycle; this bank
    vectorizes the per-cycle RC filter advance and the per-decision
    Algorithm 1 / slew arithmetic of B :class:`VoltageSmoothingController`
    instances by re-homing each lane's filter/fallback state as one row
    of shared ``(B, num_sms)`` arrays.  All batched operations are
    elementwise with per-lane constants (or row-wise reductions), so
    each row is bit-identical to the serial controller;
    everything scalar — watchdog streaks, pipelines, counters — still
    runs on the owning controller.  Observable state after
    ``bank.observe(cycle, voltages, observed)`` is therefore byte-equal
    to calling ``lane.observe(cycle, voltages[i])`` for every lane ``i``
    with ``observed[i]`` set.

    Lanes may differ in gains, thresholds, detectors, periods, sensor
    fallback and actuation — only ``num_sms`` must match.  The bank
    takes over the lanes' ``observe`` duty; do not call ``lane.observe``
    directly while a bank owns the lane.
    """

    def __init__(self, controllers: List[VoltageSmoothingController]) -> None:
        self.controllers = list(controllers)
        if not self.controllers:
            raise ValueError("need at least one controller lane")
        for c in self.controllers:
            if not isinstance(c, VoltageSmoothingController):
                raise TypeError(
                    "ControllerBank requires VoltageSmoothingController "
                    f"lanes, got {type(c).__name__}"
                )
        sizes = {c.stack.num_sms for c in self.controllers}
        if len(sizes) != 1:
            raise ValueError(f"lanes must share num_sms, got {sorted(sizes)}")
        self.num_sms = sizes.pop()
        ctrls = self.controllers
        # Re-home per-lane filter/fallback state as rows of batch arrays
        # (np.stack copies current values; rows stay views so the serial
        # per-lane code paths keep operating on the same storage).
        self._state = np.stack([c._filter_state for c in ctrls])
        self._last_good = np.stack([c._last_good for c in ctrls])
        self._fallback = np.stack([c._fallback_active for c in ctrls])
        for i, c in enumerate(ctrls):
            c._filter_state = self._state[i]
            c._last_good = self._last_good[i]
            c._fallback_active = self._fallback[i]

        n = self.num_sms

        def col(values, dtype=float) -> np.ndarray:
            # Per-lane constants spread across the row: same-shape
            # ufuncs dispatch faster than (B, 1) broadcasts and give the
            # same elementwise results.
            column = np.asarray(values, dtype=dtype).reshape(-1, 1)
            return np.ascontiguousarray(
                np.broadcast_to(column, (len(column), n))
            )

        self._alpha = col([c._filter_alpha for c in ctrls])
        self._step_v = col([c._resolution_v for c in ctrls])
        self._thr = col([c.config.v_threshold for c in ctrls])
        self._thr_high = col([c.config.v_high_threshold for c in ctrls])
        self._widen = col([c.config.fallback_widen_v for c in ctrls])
        self._fallback_on = col(
            [c.config.sensor_fallback_enabled for c in ctrls], dtype=bool
        )
        # Banked Algorithm 1 columns: when every lane runs the stock
        # WeightedActuation / CurrentCompensationDAC pair, a wave's
        # per-SM proportional law vectorizes as (B, num_sms) array ops
        # (see _decide_banked).  A lane with a subclassed actuation or
        # DAC may override the command math, so any such lane sends the
        # bank's triggered lanes through the per-lane ``_decide``.
        if all(
            type(c.actuation) is WeightedActuation
            and type(c.actuation.dac) is CurrentCompensationDAC
            for c in ctrls
        ):
            # Columns: v_nominal, issue_width_max, k1*w1, k2*w2, k3*w3,
            # DAC unit power, DAC max code.
            self._bank_cols: Optional[List[np.ndarray]] = [
                col([c.config.v_nominal for c in ctrls]),
                col([c.actuation.issue_width_max for c in ctrls]),
                col([c.config.k1 * c.actuation.w1 for c in ctrls]),
                col([c.config.k2 * c.actuation.w2 for c in ctrls]),
                col([c.config.k3 * c.actuation.w3 for c in ctrls]),
                col([c.actuation.dac.unit_power_w for c in ctrls]),
                col([c.actuation.dac.max_code for c in ctrls]),
            ]
        else:
            self._bank_cols = None
        # Decision cadence: lane i is due once cycle >= _due_at[i] (the
        # serial ``cycle - _last_decision_cycle >= period``); between
        # waves one integer compare against the earliest due cycle
        # skips the test.
        self._period = np.array(
            [c.config.control_period_cycles for c in ctrls], dtype=np.int64
        )
        self._due_at = self._period + [c._last_decision_cycle for c in ctrls]
        self._next_due = int(self._due_at.min())
        self._any_fallback = bool(self._fallback.any())
        # Per-cycle observe scratch (the filter advance is dispatch-
        # bound at small B; out= ufuncs avoid temporaries every cycle).
        self._obs_buf = np.empty_like(self._state)
        self._meas_buf = np.empty_like(self._state)
        self._finite_buf = np.empty(self._state.shape, dtype=bool)
        # Wave working set: the three actuator command blocks live side
        # by side in one (B, 3*num_sms) layout, so the slew clamp and
        # its saturation test run as single ufunc calls.  ``_prev_cat``
        # mirrors every lane's last enqueued commands and ``_at_default``
        # flags the lanes whose last command is exactly the default one.
        self._ids = list(range(len(ctrls)))
        self._cat_default = np.hstack((
            col([c._default_issue_width for c in ctrls]),
            np.zeros((len(ctrls), 2 * n)),
        ))
        self._slew_cat = np.hstack((
            col([c.config.slew_issue for c in ctrls]),
            col([c.config.slew_fake for c in ctrls]),
            col([c.config.slew_dcc_w for c in ctrls]),
        ))
        self._prev_cat = np.stack([
            np.concatenate((d.issue_widths, d.fake_rates, d.dcc_powers_w))
            for d in (c._last_enqueued for c in ctrls)
        ])
        self._at_default: List[bool] = (
            self._prev_cat == self._cat_default
        ).all(axis=1).tolist()

    # ------------------------------------------------------------------
    def observe(
        self,
        cycle: int,
        sm_voltages: np.ndarray,
        observed: Optional[np.ndarray] = None,
    ) -> None:
        """Batched equivalent of per-lane ``observe`` for one cycle.

        ``sm_voltages`` has shape ``(B, num_sms)`` — row i is what lane
        i's detectors see this cycle.  ``observed`` is an optional
        ``(B,)`` boolean mask: a lane whose entry is False gets no
        observation this cycle (as if its ``observe`` were not called:
        no filter advance, no decision).
        """
        sm_voltages = np.asarray(sm_voltages, dtype=float)
        expected = (len(self.controllers), self.num_sms)
        if sm_voltages.shape != expected:
            raise ValueError(
                f"expected voltages of shape {expected}, got "
                f"{sm_voltages.shape}"
            )
        if observed is not None:
            observed = np.asarray(observed, dtype=bool)
            if observed.shape != expected[:1]:
                raise ValueError(
                    f"expected an observed mask of shape {expected[:1]}, "
                    f"got {observed.shape}"
                )
            if observed.all():
                observed = None
        finite = self._finite_buf
        np.isfinite(sm_voltages, out=finite)
        has_nan = False
        state = self._state
        buf = self._obs_buf
        np.subtract(sm_voltages, state, out=buf)
        buf *= self._alpha
        if observed is None and finite.all():
            # Every lane sees a full finite sample: the all-finite path
            # of _advance_filters, broadcast over lanes.  Clearing an
            # all-False fallback row is a no-op, so one global clear
            # matches the per-lane clears.
            state += buf
            # Quantize straight into _last_good (rows alias the lanes'
            # held-measurement arrays, which the serial path updates
            # with exactly this value on every finite sample).
            measured = self._last_good
            np.divide(state, self._step_v, out=measured)
            np.rint(measured, out=measured)
            measured *= self._step_v
            if self._any_fallback:
                self._fallback[:] = False
                self._any_fallback = False
        else:
            measured, has_nan = self._advance_masked(finite, observed)
        if cycle < self._next_due:
            return
        due = self._due_at <= cycle
        if observed is not None:
            due &= observed
        due = due.nonzero()[0]
        if due.size == len(self._ids):
            np.add(self._period, cycle, out=self._due_at)
            self._decide_wave(cycle, None, measured, has_nan)
        elif due.size:
            self._due_at[due] = self._period[due] + cycle
            self._decide_wave(cycle, due.tolist(), measured, has_nan)
        self._next_due = int(self._due_at.min())

    def _advance_masked(self, finite: np.ndarray, observed):
        """Filter advance with dropouts and unobserved lanes.

        Per observed row this is the non-finite branch of
        ``_advance_filters``: non-finite samples never enter the filter,
        and they take the held measurement (fallback on) or NaN
        (fallback off).  Unobserved rows keep every piece of state.
        ``self._obs_buf`` holds ``alpha * (v - state)`` on entry.
        Returns ``(measured, has_nan)``.
        """
        update = finite if observed is None else finite & observed[:, None]
        bad = ~finite
        if observed is not None:
            bad &= observed[:, None]
        state = self._state
        buf = self._obs_buf
        buf += state
        np.copyto(state, buf, where=update)
        measured = self._meas_buf
        np.divide(state, self._step_v, out=measured)
        np.rint(measured, out=measured)
        measured *= self._step_v
        np.copyto(self._last_good, measured, where=update)
        np.copyto(self._fallback, False, where=update)
        has_nan = False
        counts = np.add.reduce(bad, axis=1).tolist()
        if any(counts):
            held = bad & self._fallback_on
            np.copyto(measured, self._last_good, where=held)
            np.copyto(self._fallback, True, where=held)
            for c, count in zip(self.controllers, counts):
                if not count:
                    continue
                c.nan_samples_seen += count
                if c.config.sensor_fallback_enabled:
                    c.sensor_fallback_samples += count
                else:
                    has_nan = True
            if has_nan:
                measured[bad & ~self._fallback_on] = np.nan
        self._any_fallback = bool(self._fallback.any())
        return measured, has_nan

    # ------------------------------------------------------------------
    def _decide_wave(
        self,
        cycle: int,
        due: Optional[List[int]],
        measured: np.ndarray,
        has_nan: bool,
    ) -> None:
        """One decision wave over the ``due`` lanes (``None``: all).

        Per due lane this is the decision half of ``observe``: watchdog,
        safe state or Algorithm 1, slew clamp, statistics, enqueue.  The
        array work runs row-wise over every bank row and only due rows
        are used, so a partial wave needs no gathers.  A due lane that
        did not trigger, is not in the safe state and whose previous
        command is exactly the default re-enqueues that same decision
        object (a new one would be value-identical); the others share
        one command block for Algorithm 1, the slew clamp and the
        statistics.  NaN measurements (dropouts with the fallback off)
        fail every threshold compare, as in the serial loop, and stay
        out of the watchdog's worst SM.
        """
        ctrls = self.controllers
        ids = self._ids if due is None else due
        m = measured
        worst = np.minimum.reduce(
            np.where(np.isnan(m), np.inf, m) if has_nan else m, axis=1
        ).tolist()
        safe = []
        for i in ids:
            c = ctrls[i]
            c._last_decision_cycle = cycle
            if worst[i] != np.inf:  # all-NaN rows carry no evidence
                c._note_worst_measurement(worst[i])
            if c.in_safe_state:
                safe.append(i)
        if self._any_fallback:
            widen = np.where(self._fallback, self._widen, 0.0)
            low = m < self._thr + widen
            high = m > self._thr_high + widen
        else:
            low = m < self._thr
            high = m > self._thr_high
        if safe:
            # The safe state replaces Algorithm 1 (no triggers counted).
            low[safe] = False
            high[safe] = False
        trig_mask = low | high
        trig = np.logical_or.reduce(trig_mask, axis=1).tolist()
        at_default = self._at_default
        work = []
        for i in ids:
            if trig[i] or not at_default[i] or i in safe:
                work.append(i)
                continue
            c = ctrls[i]
            c.decisions_made += 1
            c._track_limit_cycle(False)
            c._pipeline.append((cycle + c._latency, c._last_enqueued))
        if not work:
            return
        n = self.num_sms
        cat = self._cat_default.copy()
        widths = cat[:, :n]
        fakes = cat[:, n:2 * n]
        dcc = cat[:, 2 * n:]
        for i in safe:
            c = ctrls[i]
            widths[i] = float(c.config.safe_issue_width)
            c.safe_state_decisions += 1
        triggered_sms = {}
        triggered = [i for i in work if trig[i]]
        if triggered and self._bank_cols is not None:
            self._decide_banked(m, low, high, widths, fakes, dcc)
            for i in triggered:
                triggered_sms[i] = [
                    sm for sm, hit in enumerate(trig_mask[i].tolist()) if hit
                ]
        elif triggered:
            for i in triggered:
                d = ControlDecision(
                    issue_widths=widths[i], fake_rates=fakes[i],
                    dcc_powers_w=dcc[i],
                )
                ctrls[i]._decide(m[i], decision=d)
                triggered_sms[i] = d.triggered_sms
        prev = self._prev_cat
        clamped = np.clip(cat, prev - self._slew_cat, prev + self._slew_cat)
        rows = len(cat)
        # Per-actuator flags, one (B, 3) reduction each: the slew clamp
        # saturated; the command throttles (issue < default) or boosts
        # (fake/DCC > 0).
        saturated = np.logical_or.reduce(
            (clamped != cat).reshape(rows, 3, n), axis=2
        ).tolist()
        engaged = np.empty((rows, 3 * n), dtype=bool)
        np.less(clamped[:, :n], self._cat_default[:, :n], out=engaged[:, :n])
        np.greater(clamped[:, n:], 0.0, out=engaged[:, n:])
        engaged = np.logical_or.reduce(
            engaged.reshape(rows, 3, n), axis=2
        ).tolist()
        at_default = np.logical_and.reduce(
            clamped == self._cat_default, axis=1
        ).tolist()
        # The new decisions hold row views of a block owned by this
        # wave's work lanes alone, so they stay immutable after enqueue.
        owned = clamped[work]
        prev[work] = owned
        for k, i in enumerate(work):
            c = ctrls[i]
            self._at_default[i] = at_default[i]
            for key, hit in zip(("issue", "fake", "dcc"), saturated[i]):
                if hit:
                    c.slew_saturations[key] += 1
            d = ControlDecision(
                issue_widths=owned[k, :n], fake_rates=owned[k, n:2 * n],
                dcc_powers_w=owned[k, 2 * n:],
                triggered_sms=triggered_sms.get(i, []),
            )
            c._enqueue(cycle, d, *engaged[i])

    # ------------------------------------------------------------------
    def _decide_banked(
        self,
        m: np.ndarray,
        low: np.ndarray,
        high: np.ndarray,
        widths: np.ndarray,
        fakes: np.ndarray,
        dcc: np.ndarray,
    ) -> None:
        """Vectorized Algorithm 1 body across every bank row.

        Bit-identical to ``c._decide(m[i])`` per triggered lane, for
        the stock :class:`WeightedActuation` /
        :class:`CurrentCompensationDAC` pair (rows that did not trigger
        have all-False ``low``/``high`` and keep their defaults):

        * low side writes ``min(iwmax, max(0, iwmax - (k1*w1)*err))``
          (the clamps collapse to ``iwmax`` exactly where ``err <= 0``,
          matching the serial early return, which the ``np.where``
          keeps exact even for pathological negative gains);
        * high side max-merges FII/DCC into default-zero rows, i.e.
          plain masked assignment; the DAC quantization
          ``min(max_code, round(p / unit))`` uses ``np.rint``, whose
          half-to-even tie-breaking matches Python's ``round``.

        ``k1*w1`` etc. are precomputed per lane so the product
        associates exactly as the serial ``k1 * self.w1 * error_v``.
        """
        v_nom, iwmax, k1w1, k2w2, k3w3, unit, max_code = self._bank_cols
        err = v_nom - m
        w_raw = np.minimum(iwmax, np.maximum(0.0, iwmax - k1w1 * err))
        np.copyto(widths, np.where(err > 0, w_raw, iwmax), where=low)
        high_eff = high & ~low
        if high_eff.any():
            over = m - v_nom
            pos = over > 0
            fake = np.minimum(2.0, np.maximum(0.0, k2w2 * over))
            np.copyto(fakes, np.where(pos, fake, 0.0), where=high_eff)
            p = k3w3 * over
            code = np.minimum(max_code, np.rint(p / unit))
            power = np.where(pos & (p > 0), code * unit, 0.0)
            np.copyto(dcc, power, where=high_eff)
