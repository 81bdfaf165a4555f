"""The benchmark's three co-sim workloads.

Each workload is a list of :class:`repro.sim.cosim.CosimLane` built from
the run's ``--seed`` (every lane's ``CosimConfig.seed`` and every fault
schedule's seed derive from it) and one call path into the public
co-sim entry points.  The entry points are looked up on the module at
call time so the layer tracer's root wrappers see the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import repro.sim.cosim as cosim
from repro.faults.scenarios import CANNED_SCENARIOS
from repro.sim.cosim import CosimConfig, CosimLane, CosimResult
from repro.telemetry import Telemetry
from repro.workloads.benchmarks import BENCHMARK_NAMES

#: Recorded cycles and warmup of every lane; lane-cycles count both.
CYCLES = 1000
WARMUP = 200
#: Seed whose physics ``reference.json`` pins.
DEFAULT_SEED = 1
BATCH64_LANES = 64
FAULTS8_LANES = 8


def lane_seed(seed: int, lane: int) -> int:
    """Distinct per-lane seed derived from the run seed."""
    return seed * 1000 + lane


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``run_cosim_batch`` over all lanes (else serial ``run_cosim``).
    batched: bool
    #: Pass a ``Telemetry`` recorder (and so flight recorders).
    telemetry: bool
    make_lanes: Callable[[int, int, int], List[CosimLane]]

    def lanes(self, seed: int, cycles: int = CYCLES,
              warmup: int = WARMUP) -> List[CosimLane]:
        return self.make_lanes(seed, cycles, warmup)

    def run(self, lanes: List[CosimLane]) -> List[CosimResult]:
        """One repetition through the workload's public entry point."""
        if self.batched:
            tele = Telemetry(run_id=f"perfbench-{self.name}") \
                if self.telemetry else None
            return cosim.run_cosim_batch(lanes, telemetry=tele)
        return [cosim.run_cosim(lane.benchmark, lane.config) for lane in lanes]

    def run_other_path(self, lane: CosimLane) -> CosimResult:
        """``lane`` through the other entry point (batch≡serial check)."""
        if self.batched:
            return cosim.run_cosim(lane.benchmark, lane.config)
        return cosim.run_cosim_batch([lane])[0]


def _config(seed: int, cycles: int, warmup: int, **kwargs) -> CosimConfig:
    return CosimConfig(cycles=cycles, warmup_cycles=warmup, seed=seed,
                       **kwargs)


def _single(seed: int, cycles: int, warmup: int) -> List[CosimLane]:
    return [
        CosimLane(name, _config(lane_seed(seed, i), cycles, warmup))
        for i, name in enumerate(BENCHMARK_NAMES)
    ]


def _batch64(seed: int, cycles: int, warmup: int) -> List[CosimLane]:
    return [
        CosimLane(
            BENCHMARK_NAMES[i % len(BENCHMARK_NAMES)],
            _config(lane_seed(seed, i), cycles, warmup),
        )
        for i in range(BATCH64_LANES)
    ]


def _faults8(seed: int, cycles: int, warmup: int) -> List[CosimLane]:
    scenarios = list(CANNED_SCENARIOS.values())
    lanes = []
    for i in range(FAULTS8_LANES):
        s = lane_seed(seed, i)
        schedule = scenarios[i % len(scenarios)](seed=s)
        lanes.append(CosimLane(
            BENCHMARK_NAMES[i], _config(s, cycles, warmup, faults=schedule)
        ))
    return lanes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "single",
            "serial run_cosim over the 12 paper benchmarks: the per-object "
            "controller and per-cycle Python dispatch dominate",
            batched=False, telemetry=False, make_lanes=_single,
        ),
        Workload(
            "batch64",
            "run_cosim_batch with 64 clean lanes: the B>=32 plateau, "
            "dominated by the compiled GPU engine, C solver and lane setup",
            batched=True, telemetry=False, make_lanes=_batch64,
        ),
        Workload(
            "faults8",
            "run_cosim_batch with 8 fault lanes and flight recorders: the "
            "per-lane fallback path, mid-run refactor and sensor faults",
            batched=True, telemetry=True, make_lanes=_faults8,
        ),
    )
}


def probe_setup(name: str, seed: int) -> None:
    """Minimal-length run (``cycles=2, warmup_cycles=1``) of the lanes.

    Run in a fresh interpreter to time set-up from outside: import,
    native-kernel load and lane construction, up to the first cycles.
    """
    workload = WORKLOADS[name]
    workload.run(workload.lanes(seed, cycles=2, warmup=1))
