"""Lock-stepped batch facade over B independent GPU instances.

The batched co-simulator (``repro.sim.cosim.run_cosim_batch``) steps B
scenarios per cycle.  The GPU timing model is already vectorized *within*
one GPU (the struct-of-arrays engine); batching across scenarios
lands as B independent engines behind one facade: per-lane state
(kernels, RNG streams, barrier bookkeeping) stays exactly the serial
model's, which is what keeps the batch bit-identical to B serial runs.

When every lane runs the compiled engine backend, the facade steps all
lanes through one ``engine_step_batch`` call per cycle instead of B
``engine_step`` calls — the per-lane C work is unchanged (lanes share
nothing, so cross-lane order cannot affect results); only the Python
and ctypes dispatch around it is amortized.  The lanes' memory-queue
state, kernel-done censuses and powers live in shared ``(B, ...)``
rows that the kernel updates in place, so a step costs no per-lane
syncing.  Lanes with a non-empty barrier-exempt set (halted SMs under
shutoff or power-gating faults) stay on the fused call: only their
kernel-launch check differs, and it runs the serial exempt-aware test.
A batch with any NumPy-backend lane steps every lane through its own
``GPU.step_into``.
"""

from __future__ import annotations

import ctypes
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.gpu._cbuild import CEngineState, load_engine_lib
from repro.gpu.gpu import GPU


class _FusedDispatch:
    """Cached ctypes plumbing for the one-call-per-cycle batch step.

    Re-homes each engine's memory-queue slot, served/miss counters,
    kernel-done census and power output as rows of shared ``(B, ...)``
    arrays (then repoints the C structs).  The C kernel updates those
    rows in place, and :class:`MemorySystem` and the engine read through
    them, so nothing needs syncing back per lane after a step.
    """

    __slots__ = ("ptrs", "powers", "ndone", "call", "B", "nsms", "due")

    def __init__(self, lib: ctypes.CDLL, gpus: Sequence[GPU]) -> None:
        engines = [gpu.engine for gpu in gpus]
        B = len(engines)
        slots = np.zeros((B, 1))
        counters = np.zeros((B, 2), dtype=np.int64)
        self.ndone = np.zeros(B, dtype=np.int64)
        self.powers = np.zeros((B, engines[0].num_sms))
        for i, eng in enumerate(engines):
            eng.memory.rehome(slots[i], counters[i])
            self.ndone[i] = eng._ndone[0]
            self.powers[i] = eng._powers_buf
            eng._ndone = self.ndone[i : i + 1]
            eng._powers_buf = self.powers[i]
            eng._rebuild_cstate()
        self.ptrs = (ctypes.POINTER(CEngineState) * B)(
            *[eng._cstate_ptr for eng in engines]
        )
        # Hot-path prebinds: the per-cycle call crosses ctypes once, so
        # everything constant about it is resolved here, not per cycle.
        self.call = lib.engine_step_batch
        self.B = B
        self.nsms = engines[0].num_sms
        # Lanes whose every SM reported done at the last step.
        self.due = int(np.count_nonzero(self.ndone == self.nsms))


class GPUBatch:
    """B independent :class:`GPU` instances stepped in lock-step."""

    def __init__(self, gpus: Sequence[GPU]) -> None:
        self.gpus: List[GPU] = list(gpus)
        if not self.gpus:
            raise ValueError("need at least one GPU lane")
        sizes = {gpu.num_sms for gpu in self.gpus}
        if len(sizes) != 1:
            raise ValueError(f"lanes must share num_sms, got {sorted(sizes)}")
        self.num_sms = sizes.pop()
        # None = not yet probed or ineligible (a NumPy-backend lane).
        self._fused: Optional[_FusedDispatch] = None
        self._fused_probed = False

    def __len__(self) -> int:
        return len(self.gpus)

    def __getitem__(self, lane: int) -> GPU:
        return self.gpus[lane]

    def __iter__(self) -> Iterator[GPU]:
        return iter(self.gpus)

    def _probe_fused(self) -> Optional[_FusedDispatch]:
        self._fused_probed = True
        if not all(gpu.engine.backend == "c" for gpu in self.gpus):
            return None
        # Alignment is invariant once established: the fused call
        # advances every lane exactly one cycle per step_into, so
        # checking once here suffices.
        if len({gpu.cycle for gpu in self.gpus}) != 1:
            return None
        lib = load_engine_lib()
        if lib is None:
            return None
        self._fused = _FusedDispatch(lib, self.gpus)
        return self._fused

    def step_into(self, out: np.ndarray) -> np.ndarray:
        """Advance every lane one cycle; write per-SM powers into ``out``.

        ``out`` has shape ``(B, num_sms)``; row i receives lane i's
        emitted powers (a copy — callers may mutate rows freely, e.g.
        for fault power scaling).
        """
        gpus = self.gpus
        fused = self._fused
        if fused is None and not self._fused_probed:
            fused = self._probe_fused()
        if fused is not None:
            return self._step_fused(fused, gpus[0].cycle, out)
        for i, gpu in enumerate(gpus):
            gpu.step_into(out[i])
        return out

    def _step_fused(
        self, fused: _FusedDispatch, cycle: int, out: np.ndarray
    ) -> np.ndarray:
        """One ``engine_step_batch`` call for the whole lane set.

        Mirrors ``VectorizedGPUEngine._step_c``'s launch barrier around
        a single crossing of the ctypes boundary.  A lane with
        barrier-exempt SMs launches when every SM is done or exempt
        (``_step_c``'s exempt test); every other lane when all its SMs
        reported done.  After the call only the lane clocks advance.
        """
        gpus = self.gpus
        ndone = fused.ndone
        nsms = fused.nsms
        launch = np.flatnonzero(ndone == nsms).tolist() if fused.due else []
        for i, gpu in enumerate(gpus):
            exempt = gpu.barrier_exempt
            # All SMs done implies all done-or-exempt, and fewer than
            # nsms - |exempt| done SMs rules it out: only the lanes in
            # between need the mask test.
            if exempt and nsms > ndone[i] >= nsms - len(exempt) and bool(
                np.all(gpu.engine.kernel_done_mask()
                       | gpu._refresh_exempt_mask())
            ):
                launch.append(i)
        for i in launch:
            gpu = gpus[i]
            eng = gpu.engine
            eng._load_generation(eng.generation + 1)
            # _rebuild_cstate allocated a fresh struct; repoint.
            fused.ptrs[i] = eng._cstate_ptr
            gpu._generation = eng.generation
            gpu.kernels_launched += 1
            gpu.kernel_launch_cycles.append(gpu.cycle)
        due = fused.call(fused.ptrs, fused.B, cycle)
        if due < 0:
            raise RuntimeError("C engine pending-load heap overflow")
        fused.due = due
        for gpu in gpus:
            gpu.cycle += 1
        np.copyto(out, fused.powers)
        return out

    def total_instructions(self) -> int:
        """Aggregate real instructions across all lanes."""
        return sum(gpu.total_instructions() for gpu in self.gpus)

    def total_fake_instructions(self) -> int:
        """Aggregate injected fake instructions across all lanes."""
        return sum(gpu.total_fake_instructions() for gpu in self.gpus)
