"""Compile-on-demand loader for the C step kernel (``_enginec.c``).

The build/cache/loud-fallback machinery lives in
:class:`repro.native.cbuild.KernelBuild` (shared with the batched PDN
solver kernel, ``repro.circuits._solverc``); this module binds it to the
engine kernel and keeps the original module-level surface
(:data:`_LIB_CACHE`, :data:`_LOAD_FAILED`, :func:`load_engine_lib`, …)
that the engine, CLI chaos scenario, and fallback tests poke.

When no compiler is available or the build fails, :func:`load_engine_lib`
returns ``None`` and the engine falls back to its pure-NumPy step path —
same results (both are bit-identical to the per-object oracle), just
slower; the co-sim telemetry surfaces the count as
``gpu.backend_fallback``.  Setting ``REPRO_GPU_CBUILD=fail`` forces the
build to fail (test hook); ``REPRO_GPU_CBUILD=quiet`` suppresses the
warning while keeping the counter.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional

from repro.native.cbuild import LOAD_FAILED as _LOAD_FAILED
from repro.native.cbuild import KernelBuild

CBUILD_ENV = "REPRO_GPU_CBUILD"

_C_SOURCE = Path(__file__).with_name("_enginec.c")

_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong
_F64 = ctypes.c_double


class CEngineState(ctypes.Structure):
    """Mirror of ``EngineState`` in ``_enginec.c`` (field order matters)."""

    _fields_ = [
        ("num_sms", _I64),
        ("num_warps", _I64),
        ("body", _I64),
        ("heap_cap", _I64),
        ("max_pc", _I64),
        ("dram_cycles", _I64),
        ("l2_cycles", _I64),
        ("clock_hz", _F64),
        ("idle_energy", _F64),
        ("fake_energy", _F64),
        ("slot_width", _F64),
        ("issue_width", _PTR),
        ("fake_rate", _PTR),
        ("freq_scale", _PTR),
        ("gated", _PTR),
        ("prefer", _PTR),
        ("waking", _PTR),
        ("unit_idle", _PTR),
        ("leakage", _PTR),
        ("window_start", _PTR),
        ("budget", _PTR),
        ("fake_acc", _PTR),
        ("clock_acc", _PTR),
        ("wheel", _PTR),
        ("wheel_pos", _PTR),
        ("st_cycles", _PTR),
        ("st_active", _PTR),
        ("st_inst", _PTR),
        ("st_fake", _PTR),
        ("st_stall", _PTR),
        ("pc", _PTR),
        ("length", _PTR),
        ("outstanding", _PTR),
        ("warp_done", _PTR),
        ("ready_at", _PTR),
        ("head_ready", _PTR),
        ("heads_valid", _I64),
        ("last_warp", _PTR),
        ("heap", _PTR),
        ("heap_len", _PTR),
        ("mem_slot", _PTR),
        ("mem_counters", _PTR),
        ("totals", _PTR),
        ("s_unit", _PTR),
        ("s_latency", _PTR),
        ("s_dest", _PTR),
        ("s_is_load", _PTR),
        ("s_span", _PTR),
        ("s_share", _PTR),
        ("s_dest_col", _PTR),
        ("s_src1_col", _PTR),
        ("s_src2_col", _PTR),
        ("miss_table", _PTR),
        ("powers", _PTR),
        ("ndone", _PTR),
    ]


def _configure(lib: ctypes.CDLL) -> None:
    lib.engine_step.argtypes = [ctypes.POINTER(CEngineState), _I64]
    lib.engine_step.restype = _I64
    lib.engine_step_batch.argtypes = [
        ctypes.POINTER(ctypes.POINTER(CEngineState)),
        _I64,
        _I64,
    ]
    lib.engine_step_batch.restype = _I64


_BUILD = KernelBuild(
    source=_C_SOURCE,
    env_var=CBUILD_ENV,
    what="C step kernel",
    fallback="the pure-NumPy engine path",
    counter="gpu.backend_fallback",
    configure=_configure,
)

# Back-compat aliases: tests monkeypatch _LIB_CACHE["lib"] and compare
# against _LOAD_FAILED directly; both bind KernelBuild's own objects.
_LIB_CACHE = _BUILD.cache
_FALLBACKS = _BUILD.fallbacks


def build_fallback_count() -> int:
    """How many times this process fell back to the NumPy step path."""
    return _BUILD.fallback_count()


def reset_fallback_state() -> None:
    """Test hook: forget cached load failures and fallback accounting."""
    _BUILD.reset()


def load_engine_lib() -> Optional[ctypes.CDLL]:
    """The compiled step kernel, or ``None`` when unavailable."""
    return _BUILD.load()
