"""Kernel descriptions -> per-warp instruction streams.

A :class:`KernelSpec` describes a GPU kernel statistically — instruction
mix, memory intensity, dependence density, warp count, body length —
and :func:`build_warps` expands it into concrete per-warp instruction
streams with register dependencies.  All randomness flows through an
explicit seed so every simulation is reproducible.

The specs are how the twelve paper benchmarks are realized (see
``repro.workloads.benchmarks``): each benchmark is a KernelSpec tuned to
its published character (memory-bound BFS, SFU-heavy blackscholes,
phase-structured backprop, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.gpu.isa import (
    ENERGY,
    LATENCY,
    UNIT_FOR_CLASS,
    ExecUnit,
    Instruction,
    InstructionClass,
)
from repro.gpu.warp import Warp

# Register file window each warp cycles through; small enough to create
# realistic read-after-write dependence chains.
_NUM_REGS = 16


@dataclass(frozen=True)
class KernelSpec:
    """Statistical description of a kernel's instruction stream.

    ``mix`` maps instruction classes to relative frequencies (normalized
    internally).  ``dependence`` in [0, 1] sets how often an instruction
    reads the most recently written register (longer RAW chains -> lower
    issue rate).  ``warps_per_sm`` and ``body_length`` set occupancy and
    stream length; ``phase_period``/``phase_memory_boost`` overlay a
    coarse compute/memory phase structure (cycles of alternating
    behaviour, the source of low-frequency power swing).
    """

    name: str
    mix: Dict[InstructionClass, float] = field(
        default_factory=lambda: {
            InstructionClass.FALU: 0.5,
            InstructionClass.IALU: 0.3,
            InstructionClass.LOAD: 0.15,
            InstructionClass.STORE: 0.05,
        }
    )
    dependence: float = 0.35
    warps_per_sm: int = 12
    body_length: int = 4000
    phase_period: int = 0  # instructions per phase; 0 disables phases
    phase_memory_boost: float = 0.0  # extra LOAD weight in memory phases

    def __post_init__(self) -> None:
        if not self.mix:
            raise ValueError(f"kernel {self.name!r} has an empty mix")
        if any(w < 0 for w in self.mix.values()):
            raise ValueError(f"kernel {self.name!r} has negative mix weights")
        if sum(self.mix.values()) <= 0:
            raise ValueError(f"kernel {self.name!r} mix sums to zero")
        if not 0.0 <= self.dependence <= 1.0:
            raise ValueError(f"dependence must be in [0,1], got {self.dependence}")
        if self.warps_per_sm <= 0:
            raise ValueError(f"warps_per_sm must be positive")
        if self.body_length <= 0:
            raise ValueError(f"body_length must be positive")


def _draw_warp(rng: np.random.Generator, length: int) -> tuple:
    """The generator draws behind one warp's stream, in their fixed order.

    The single definition of how a stream consumes its generator: every
    builder calls this once per warp, in warp order, so streams drawn
    from the same seed are identical whatever container they land in.
    Returns ``(class_u, chain_u, random_src1, src2_u, random_src2)``.
    """
    return (
        rng.random(length),
        rng.random(length),
        rng.integers(0, _NUM_REGS, size=length),
        rng.random(length),
        rng.integers(0, _NUM_REGS, size=length),
    )


def _draw_streams(
    spec: KernelSpec, rng: np.random.Generator, count: int, length: int
) -> dict:
    """``count`` warps' streams as ``(count, length)`` register columns.

    Draws each warp with :func:`_draw_warp`, then derives every column
    in one vectorized pass: the class from per-position phase profiles,
    and the reference's sequential dest/chain recurrence as a running
    maximum over writer positions.  Returns ``classes`` (the mix's
    class order) and the ``op`` (index into ``classes``), ``dest`` (-1
    for none), ``src1`` and ``src2`` (-1 when absent) columns.
    """
    class_u, chain_u, random_src1, src2_u, random_src2 = (
        np.array(column) for column in zip(*(
            _draw_warp(rng, length) for _ in range(count)
        ))
    )
    classes = list(spec.mix.keys())
    weights = np.array([spec.mix[c] for c in classes], dtype=float)
    op = np.searchsorted(np.cumsum(weights / weights.sum()), class_u,
                         side="right")
    positions = np.arange(length, dtype=np.int64)
    if spec.phase_period > 0 and spec.phase_memory_boost > 0:
        # Two alternating phase profiles: odd phases boost LOAD weight.
        boosted = np.array(
            [
                spec.mix[c]
                + (spec.phase_memory_boost if c is InstructionClass.LOAD else 0.0)
                for c in classes
            ]
        )
        in_memory_phase = (positions // spec.phase_period) % 2 == 1
        op_boost = np.searchsorted(
            np.cumsum(boosted / boosted.sum()), class_u, side="right"
        )
        op = np.where(in_memory_phase, op_boost, op)
    op = np.clip(op, 0, len(classes) - 1)

    has_dest_lut = np.array(
        [
            c is not InstructionClass.STORE and c is not InstructionClass.BRANCH
            for c in classes
        ],
        dtype=bool,
    )
    has_dest = has_dest_lut[op]
    # src1 chains to the most recent written register strictly before
    # the current position (the reference's running ``last_dest``);
    # the register cursor advances on every instruction.
    writer_pos = np.where(has_dest, positions, -1)
    last_writer = np.empty((count, length), dtype=np.int64)
    last_writer[:, :1] = -1
    np.maximum.accumulate(writer_pos[:, :-1], axis=1, out=last_writer[:, 1:])
    use_chain = (chain_u < spec.dependence) & (last_writer >= 0)
    return {
        "classes": classes,
        "op": op,
        "dest": np.where(has_dest, positions % _NUM_REGS, -1),
        "src1": np.where(use_chain, last_writer % _NUM_REGS, random_src1),
        "src2": np.where(src2_u < 0.5, random_src2, -1),
    }


def _instructions(drawn: dict, warp: int) -> List[Instruction]:
    """Row ``warp`` of :func:`_draw_streams` as Instruction objects."""
    classes = drawn["classes"]
    return [
        Instruction(classes[op], dest, (src1, src2) if src2 >= 0 else (src1,))
        for op, dest, src1, src2 in zip(
            drawn["op"][warp].tolist(),
            drawn["dest"][warp].tolist(),
            drawn["src1"][warp].tolist(),
            drawn["src2"][warp].tolist(),
        )
    ]


# Cache of generated base streams: under SPMD all 16 SMs request the
# same (spec, seed) streams, so generation runs once per GPU, not per SM.
_STREAM_CACHE: dict = {}
_STREAM_CACHE_LIMIT = 64


def _spec_cache_key(spec: KernelSpec, seed: int, count: int) -> tuple:
    return (
        spec.name,
        tuple(sorted((c.value, w) for c, w in spec.mix.items())),
        spec.dependence,
        spec.body_length,
        spec.phase_period,
        spec.phase_memory_boost,
        seed,
        count,
    )


def _base_streams(
    spec: KernelSpec, seed: int, count: int
) -> List[List[Instruction]]:
    key = _spec_cache_key(spec, seed, count)
    cached = _STREAM_CACHE.get(key)
    if cached is None:
        drawn = _draw_streams(
            spec, np.random.default_rng(seed), count, spec.body_length
        )
        cached = [_instructions(drawn, warp) for warp in range(count)]
        if len(_STREAM_CACHE) >= _STREAM_CACHE_LIMIT:
            _STREAM_CACHE.clear()
        _STREAM_CACHE[key] = cached
    return cached


def build_warps(
    spec: KernelSpec,
    seed: int,
    num_warps: Optional[int] = None,
    jitter: float = 0.0,
    jitter_seed: Optional[int] = None,
) -> List[Warp]:
    """Materialize the kernel's warps for one SM.

    ``seed`` draws the instruction streams; under the SPMD execution
    model every SM passes the *same* seed so all SMs run identical code
    (the balance property that motivates GPU voltage stacking).

    ``jitter`` in [0, 1) perturbs each warp's stream length, modelling
    per-SM thread-block tail imbalance (see :func:`jittered_lengths`);
    a lengthened stream wraps around to its own head.
    """
    count = num_warps if num_warps is not None else spec.warps_per_sm
    lengths = jittered_lengths(spec, count, jitter, jitter_seed, seed).tolist()
    base = _base_streams(spec, seed, count)
    warps: List[Warp] = []
    for warp_id, length in enumerate(lengths):
        stream = base[warp_id]
        if length <= spec.body_length:
            stream = stream[:length]
        else:
            stream = stream + stream[: length - spec.body_length]
        warps.append(Warp(warp_id, stream))
    return warps


# --------------------------------------------------------------------------
# Struct-of-arrays stream representation (vectorized GPU engine)
# --------------------------------------------------------------------------

#: Fixed execution-unit ordering used by all ``(…, 3)`` engine arrays.
UNIT_ORDER = (ExecUnit.ALU, ExecUnit.SFU, ExecUnit.LSU)
_UNIT_INDEX = {unit: idx for idx, unit in enumerate(UNIT_ORDER)}

# Energy-smear bounds mirrored from the SM model (kept in sync with
# repro.gpu.sm; the arrays bake span/share in so the engine's hot loop
# never touches per-instruction Python objects).
_SMEAR_LIMIT = 6


@dataclass(frozen=True)
class StreamArrays:
    """One SM's base instruction streams as ``(num_warps, body)`` arrays.

    Column layout per (warp, position):

    - ``unit``: execution-unit index into :data:`UNIT_ORDER`
    - ``latency`` / ``energy``: pipeline latency and dynamic energy
    - ``span`` / ``share``: energy-smear window and per-slot share
      (``span = clip(latency, 1, 6)``, ``share = energy / span``)
    - ``is_load``: LOAD-class lanes (resolved by the memory system)
    - ``dest_col``: scoreboard column of the written register
      (register id, or the dummy column 16 for dest-less instructions)
    - ``src1_col`` / ``src2_col``: scoreboard columns of the read
      registers (column 16 when the second source is absent)

    The dummy column lets readiness be computed as one fancy-indexed
    ``max`` over a ``(…, 17)`` ready-at table with no masking.
    """

    num_warps: int
    body_length: int
    unit: np.ndarray
    latency: np.ndarray
    energy: np.ndarray
    span: np.ndarray
    share: np.ndarray
    is_load: np.ndarray
    dest: np.ndarray  # register id, -1 for none (STORE/BRANCH)
    dest_col: np.ndarray
    src1_col: np.ndarray
    src2_col: np.ndarray


_ARRAY_CACHE: dict = {}


def stream_arrays(spec: KernelSpec, seed: int, count: int) -> StreamArrays:
    """The kernel's base streams for one SM in struct-of-arrays form.

    Same cache discipline as :func:`_base_streams` (all SMs share the
    (spec, seed) streams under SPMD), and drawn by the same
    :func:`_draw_streams`, so the arrays describe exactly the
    instructions :func:`build_warps` materializes as objects.
    """
    key = _spec_cache_key(spec, seed, count)
    cached = _ARRAY_CACHE.get(key)
    if cached is None:
        drawn = _draw_streams(
            spec, np.random.default_rng(seed), count, spec.body_length
        )
        classes = drawn["classes"]
        op = drawn["op"]
        latency = np.array([LATENCY[c] for c in classes], dtype=np.int64)[op]
        energy = np.array([ENERGY[c] for c in classes], dtype=float)[op]
        span = np.clip(latency, 1, _SMEAR_LIMIT)
        dest = drawn["dest"]
        src2 = drawn["src2"]
        cached = StreamArrays(
            num_warps=count,
            body_length=spec.body_length,
            unit=np.array(
                [_UNIT_INDEX[UNIT_FOR_CLASS[c]] for c in classes],
                dtype=np.int64,
            )[op],
            latency=latency,
            energy=energy,
            span=span,
            share=energy / span,
            is_load=np.array(
                [c is InstructionClass.LOAD for c in classes], dtype=bool
            )[op],
            dest=dest,
            dest_col=np.where(dest >= 0, dest, _NUM_REGS),
            src1_col=drawn["src1"],
            src2_col=np.where(src2 >= 0, src2, _NUM_REGS),
        )
        if len(_ARRAY_CACHE) >= _STREAM_CACHE_LIMIT:
            _ARRAY_CACHE.clear()
        _ARRAY_CACHE[key] = cached
    return cached


def jittered_lengths(
    spec: KernelSpec,
    count: int,
    jitter: float,
    jitter_seed: Optional[int],
    seed: int,
) -> np.ndarray:
    """Per-warp stream lengths of one SM: the body scaled by jitter.

    Warp ``w``'s length is ``max(1, round(body * (1 + jitter * u_w)))``
    with ``u_w`` the generator's ``w``-th ``uniform(-1, 1)`` draw (from
    ``jitter_seed``, else ``seed``); no draws when ``jitter == 0``.
    ``np.rint`` rounds half to even, like ``round``.  Lengths beyond
    ``body_length`` mean the stream wraps around to its own head.
    """
    if jitter < 0 or jitter >= 1:
        raise ValueError(f"jitter must be in [0,1), got {jitter}")
    if jitter == 0:
        return np.full(count, spec.body_length, dtype=np.int64)
    jitter_rng = np.random.default_rng(seed if jitter_seed is None else jitter_seed)
    scale = 1.0 + jitter * jitter_rng.uniform(-1.0, 1.0, size=count)
    lengths = np.rint(spec.body_length * scale).astype(np.int64)
    return np.maximum(lengths, 1)
