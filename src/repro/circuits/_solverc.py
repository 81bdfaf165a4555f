"""Compile-on-demand loader for the batched solver kernel (``_solverc.c``).

Shares the build/cache/loud-fallback machinery of
:class:`repro.native.cbuild.KernelBuild` with the GPU step kernel
(``repro.gpu._cbuild``).  When no compiler is available, the build
fails, or scipy's LAPACK ``dgetrs`` pointer cannot be extracted,
:class:`repro.circuits.transient.BatchTransientSolver` falls back to its
pure-NumPy batch step — same results (both are bit-identical to B
serial runs), just slower; the co-sim telemetry surfaces the count as
``solver.backend_fallback``.

Setting ``REPRO_SOLVER_CBUILD=fail`` forces the build to fail (test
hook for the fallback path); ``REPRO_SOLVER_CBUILD=quiet`` suppresses
the warning while keeping the counter.  ``REPRO_SOLVER_BACKEND=c|numpy``
(read by the batch solver, not here) selects the backend explicitly.

The kernel back-substitutes through the very LAPACK ``dgetrs`` scipy's
``getrs`` wrapper calls: the function pointer is pulled out of
``scipy.linalg.cython_lapack.__pyx_capi__`` at runtime, so the C path
runs the same routine on the same operands and stays bit-identical to
the NumPy oracle.  (A hand-rolled P·L·U substitution was rejected — a
blocked BLAS ``trsm`` reorders dot-product accumulation, which breaks
the bit-identity contract.)
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional

from repro.native.cbuild import LOAD_FAILED as _LOAD_FAILED
from repro.native.cbuild import KernelBuild

CBUILD_ENV = "REPRO_SOLVER_CBUILD"
BACKEND_ENV = "REPRO_SOLVER_BACKEND"

_C_SOURCE = Path(__file__).with_name("_solverc.c")

_PTR = ctypes.c_void_p
_I64 = ctypes.c_longlong


class CSolverState(ctypes.Structure):
    """Mirror of ``SolverState`` in ``_solverc.c`` (field order matters)."""

    _fields_ = [
        ("n_lanes", _I64),
        ("size", _I64),
        ("n_vals", _I64),
        ("n_react", _I64),
        ("n_scatter", _I64),
        ("n_cs", _I64),
        ("n_vs", _I64),
        ("dgetrs", _PTR),
        ("lu_addr", _PTR),
        ("piv_addr", _PTR),
        ("react_g", _PTR),
        ("react_v", _PTR),
        ("react_i", _PTR),
        ("react_sign", _PTR),
        ("pos_mask", _PTR),
        ("neg_mask", _PTR),
        ("react_pos", _PTR),
        ("react_neg", _PTR),
        ("vals", _PTR),
        ("base", _PTR),
        ("cs_dst", _PTR),
        ("cs_src", _PTR),
        ("scat_idx", _PTR),
        ("scat_src", _PTR),
        ("scat_gain", _PTR),
        ("vs_rows", _PTR),
        ("vs_vals", _PTR),
        ("rhs", _PTR),
        ("sol", _PTR),
        ("snap", _PTR),
        ("sq", _PTR),
        ("limit_sq", _PTR),
    ]


def _configure(lib: ctypes.CDLL) -> None:
    lib.solver_step_n.argtypes = [ctypes.POINTER(CSolverState), _I64]
    lib.solver_step_n.restype = _I64
    lib.solver_cycle_checked.argtypes = [ctypes.POINTER(CSolverState), _I64]
    lib.solver_cycle_checked.restype = _I64


_BUILD = KernelBuild(
    source=_C_SOURCE,
    env_var=CBUILD_ENV,
    what="C batch solver kernel",
    fallback="the NumPy batch-step path",
    counter="solver.backend_fallback",
    configure=_configure,
)

# Back-compat-style aliases mirroring repro.gpu._cbuild: tests
# monkeypatch _LIB_CACHE["lib"] and compare against _LOAD_FAILED.
_LIB_CACHE = _BUILD.cache
_FALLBACKS = _BUILD.fallbacks


def build_fallback_count() -> int:
    """How many times this process fell back to the NumPy batch step."""
    return _BUILD.fallback_count()


def reset_fallback_state() -> None:
    """Test hook: forget cached load failures and fallback accounting."""
    _BUILD.reset()
    _DGETRS.clear()


def note_fallback(reason: str) -> None:
    """Count (and warn once about) a fallback decided by the caller."""
    _BUILD.note_fallback(reason)


def load_solver_lib() -> Optional[ctypes.CDLL]:
    """The compiled substep kernel, or ``None`` when unavailable."""
    return _BUILD.load()


# ----------------------------------------------------------------------
# LAPACK dgetrs extraction
# ----------------------------------------------------------------------
_DGETRS: dict = {}


def dgetrs_pointer() -> Optional[int]:
    """Raw address of LAPACK ``dgetrs``, or ``None`` when unavailable.

    Extracted from scipy's cython_lapack capsule table so the C kernel
    calls the identical routine scipy's ``getrs`` wrapper dispatches
    to.  The caller passes Fortran-ordered LU blocks and *1-based*
    int32 pivot vectors (scipy's ``lu_factor`` returns 0-based pivots;
    its f2py wrapper converts internally, the raw routine does not).
    """
    if "ptr" in _DGETRS:
        return _DGETRS["ptr"]
    ptr: Optional[int] = None
    try:
        import scipy.linalg.cython_lapack as cython_lapack

        capsule = cython_lapack.__pyx_capi__["dgetrs"]
        get_name = ctypes.pythonapi.PyCapsule_GetName
        get_name.restype = ctypes.c_char_p
        get_name.argtypes = [ctypes.py_object]
        get_ptr = ctypes.pythonapi.PyCapsule_GetPointer
        get_ptr.restype = ctypes.c_void_p
        get_ptr.argtypes = [ctypes.py_object, ctypes.c_char_p]
        ptr = get_ptr(capsule, get_name(capsule))
    except Exception:
        ptr = None
    _DGETRS["ptr"] = ptr
    return ptr
