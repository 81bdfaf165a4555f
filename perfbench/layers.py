"""Outside-in layer tracer for the co-sim benchmark.

The tracer wraps the public methods of each co-sim layer from outside
``src/``: while installed, every call records one span (layer, start,
end, span id, parent span id, root span id) into an in-memory list.
The root span is the workload's ``run_cosim`` / ``run_cosim_batch``
call; every span under it carries the root's id.  A layer's self time
is its spans' duration minus the time covered by their direct child
spans, so the self times of all layers plus the root's own self time
(``sim.glue``, the co-sim loop glue) add up to the traced wall time.

Uninstalling restores every wrapped attribute to the original object.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

_T = "repro.circuits.transient"
_FAULT_METHODS = (
    "active_kinds", "apply_circuit_faults", "scale_powers",
    "corrupt_sensors", "observation_allowed", "extra_latency",
    "distort_actuation", "halted_sms", "frequency_scales", "report",
)

#: (layer, owner as "module" or "module:Class", attribute).  A layer
#: name is the prefix of its per-layer metrics (``gpu.step`` ->
#: ``gpu.step_us`` / ``gpu.step_calls``).
WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.glue", "repro.sim.cosim", "run_cosim"),
    ("sim.glue", "repro.sim.cosim", "run_cosim_batch"),
    ("gpu.step", "repro.gpu.batch:GPUBatch", "step_into"),
    ("gpu.step", "repro.gpu.gpu:GPU", "step"),
    ("gpu.actuate", "repro.gpu.gpu:GPU", "set_issue_widths"),
    ("gpu.actuate", "repro.gpu.gpu:GPU", "set_fake_rates"),
    ("gpu.actuate", "repro.gpu.gpu:GPU", "set_frequency_scales"),
    ("circuits.solve", f"{_T}:BatchTransientSolver", "step_n"),
    ("circuits.solve", f"{_T}:TransientSolver", "step_n"),
    ("circuits.solve", f"{_T}:TransientSolver", "step"),
    ("circuits.guard", f"{_T}:SolverGuard", "step_cycle"),
    ("circuits.guard", f"{_T}:BatchSolverGuard", "step_cycle"),
    ("circuits.refactor", f"{_T}:TransientSolver", "refactor"),
    ("circuits.readout", f"{_T}:BatchTransientSolver", "vsource_currents"),
    ("circuits.readout", f"{_T}:TransientSolver", "vsource_current"),
    ("core.observe", "repro.core.controller:ControllerBank", "observe"),
    ("core.observe", "repro.core.controller:VoltageSmoothingController",
     "observe"),
    ("core.commands", "repro.core.controller:VoltageSmoothingController",
     "commands_for"),
    *(("faults.inject", "repro.faults.injector:FaultInjector", name)
      for name in _FAULT_METHODS),
    ("telemetry.flight", "repro.telemetry.flight:FlightRecorder", "observe"),
    ("telemetry.flight", "repro.telemetry.flight:FlightRecorder",
     "finalize"),
    ("setup.lane", "repro.gpu.gpu:GPU", "__init__"),
    ("setup.lane", "repro.sim.cosim", "build_stacked_pdn"),
    ("setup.lane", f"{_T}:TransientSolver", "__init__"),
    ("setup.lane", f"{_T}:TransientSolver", "initialize_dc"),
    ("setup.lane", f"{_T}:BatchTransientSolver", "__init__"),
    ("setup.lane", "repro.gpu.batch:GPUBatch", "__init__"),
    ("setup.lane", "repro.core.controller:ControllerBank", "__init__"),
    ("setup.lane", "repro.core.controller:VoltageSmoothingController",
     "__init__"),
    ("setup.lane", "repro.faults.injector:FaultInjector", "__init__"),
)

#: Every layer, in report order (``sim.glue`` is the root residual).
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in WRAPS))


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Span recorder over the wrapped layer boundaries.

    ``spans`` holds one ``(code, start, end, span_id, parent_id,
    root_id)`` tuple per finished call, where ``code`` indexes
    :data:`WRAPS`; ``parent_id`` is ``None`` for root spans.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._saved: List[tuple] = []
        self._stack: List = [None]  # open span ids; [None] when idle
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    def _wrap(self, fn, code: int):
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            root = stack[1] if parent is not None else sid
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((code, start, end, sid, parent, root))

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every :data:`WRAPS` entry (raises if one is missing)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.spans.clear()
        for code, (_, owner_name, attr) in enumerate(WRAPS):
            owner = _resolve(owner_name)
            original = vars(owner).get(attr)
            if original is None:
                self.uninstall()
                raise AttributeError(
                    f"{owner_name} no longer defines {attr}; update "
                    "perfbench/layers.py WRAPS"
                )
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, code))

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def span_name(code: int) -> str:
    _, owner, attr = WRAPS[code]
    return f"{owner.replace(':', '.').rpartition('.')[2]}.{attr}"


def summarize(spans: List[tuple]) -> Dict[str, object]:
    """Per-layer self seconds and call counts of one traced run.

    ``calls`` counts a span only when its parent belongs to another
    layer, so a layer method that calls another wrapped method of the
    same layer (``TransientSolver.step_n`` deferring to ``step``) counts
    once.  Returns ``{"wall_s", "roots", "self_s": {layer: s},
    "calls": {layer: n}}``; ``self_s`` always sums to ``wall_s``.
    """
    child_s: Dict[int, float] = defaultdict(float)
    layer_of: Dict[int, str] = {}
    for code, start, end, sid, parent, _ in spans:
        layer_of[sid] = WRAPS[code][0]
        if parent is not None:
            child_s[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    wall = 0.0
    roots = 0
    for code, start, end, sid, parent, _ in spans:
        layer = layer_of[sid]
        self_s[layer] += (end - start) - child_s[sid]
        if parent is None:
            wall += end - start
            roots += 1
        if parent is None or layer_of[parent] != layer:
            calls[layer] += 1
    return {"wall_s": wall, "roots": roots, "self_s": self_s, "calls": calls}


def write_chrome_trace(spans: List[tuple], path, metadata=None) -> Path:
    """Write ``spans`` as Chrome trace-event JSON (Perfetto, chrome://tracing).

    One complete (``"ph": "X"``) event per span, timestamps in µs from
    the first span's start; ``cat`` is the layer and ``args`` carries
    the span, parent and root ids.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    t0 = min((s[1] for s in spans), default=0.0)
    events = [
        {
            "name": span_name(code),
            "cat": WRAPS[code][0],
            "ph": "X",
            "ts": round((start - t0) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {"span": sid, "parent": parent, "root": root},
        }
        for code, start, end, sid, parent, root in sorted(
            spans, key=lambda s: (s[1], -s[2])
        )
    ]
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, separators=(",", ":"))
    return path
