"""The droop flight recorder.

The telemetry channels of PR 2 are stride-decimated: for million-cycle
runs the exact cycles around a guardband violation are usually thinned
away before anyone looks.  This module keeps a small always-on ring
buffer of *full-resolution* per-cycle state — per-SM voltages, the
controller decision in force (the commanded actuation), the active
fault kinds, and the controller's safe-state flag — and dumps a bounded
window around every interesting edge:

* a **guardband-violation onset** — the minimum SM voltage crossing
  from at-or-above ``guardband_v`` to below it;
* a **safe-state edge** — the controller entering or leaving its
  safe state (the observable boundary of the fault machinery's
  ``safe_state`` verdict).

Cost discipline (the live plane must stay honest about "always-on"):
:meth:`FlightRecorder.observe_block` records a block of cycles with one
ring copy (the co-sim loop stages :data:`BLOCK_CYCLES` cycles per call;
:meth:`FlightRecorder.observe` is the one-cycle form); all detection is
deferred to a vectorized scan once per ``scan_interval`` cycles, and a
quiet block costs one reduction.  ``benchmarks/test_perf_observability.py``
gates the whole thing at <= 2% of the hot co-sim loop.

Windows that attract further triggers while still open are *coalesced*
(the trigger list grows, the window extends) up to a hard length cap,
so every onset is guaranteed to land inside some dump's window — the
acceptance bar is 100% onset coverage for the canned fault scenarios.

Dumps serialize to ``flight/NNN.json`` via :meth:`FlightRecorder.write`
and render through ``repro observe``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

FLIGHT_DIR = "flight"

ONSET = "guardband_onset"
SAFE_ENTER = "safe_state_enter"
SAFE_EXIT = "safe_state_exit"
NUMERICAL_DIVERGENCE = "numerical_divergence"

#: Rows one :meth:`FlightRecorder.observe_block` ring pass takes (and
#: scans) at once; the batched co-sim stages this many cycles per call.
BLOCK_CYCLES = 128


class FlightDump:
    """One materialized window of full-resolution state."""

    __slots__ = (
        "index", "start_cycle", "end_cycle", "triggers",
        "voltages", "meta", "cycle_offset",
    )

    def __init__(self, index: int, start_cycle: int, cycle_offset: int) -> None:
        self.index = index
        self.start_cycle = start_cycle  # observed-cycle numbering
        self.end_cycle = start_cycle  # exclusive; grows as rows append
        self.cycle_offset = cycle_offset  # observed -> recorded cycles
        self.triggers: List[Dict[str, object]] = []
        self.voltages: List[np.ndarray] = []  # blocks, concatenated late
        self.meta: List[Tuple[object, object, bool]] = []

    @property
    def last_trigger_cycle(self) -> int:
        return int(self.triggers[-1]["cycle"]) if self.triggers else 0

    def num_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    def to_dict(self) -> Dict[str, object]:
        """JSON-able full-resolution window (recorded-cycle numbering)."""
        volts = (
            np.concatenate(self.voltages)
            if self.voltages
            else np.empty((0, 0))
        )
        n = self.num_cycles()
        volts = volts[:n]
        meta = self.meta[:n]
        off = self.cycle_offset
        # Consecutive cycles usually hold the same commands: dedup by
        # value (the bytes of the three command arrays) into an
        # actuation table + per-cycle ids, so the table depends only on
        # the commands, not on which decision objects carried them.
        actuations: List[Dict[str, object]] = []
        actuation_ids: List[Optional[int]] = []
        seen: Dict[tuple, int] = {}
        for decision, _, _ in meta:
            if decision is None:
                actuation_ids.append(None)
                continue
            arrays = (
                np.asarray(decision.issue_widths),
                np.asarray(decision.fake_rates),
                np.asarray(decision.dcc_powers_w),
            )
            key = tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)
            idx = seen.get(key)
            if idx is None:
                idx = len(actuations)
                seen[key] = idx
                actuations.append({
                    "issue_widths": arrays[0].tolist(),
                    "fake_rates": arrays[1].tolist(),
                    "dcc_powers_w": arrays[2].tolist(),
                })
            actuation_ids.append(idx)
        return {
            "index": self.index,
            "start_cycle": self.start_cycle + off,
            "end_cycle": self.end_cycle + off,
            "triggers": [
                {**t, "cycle": int(t["cycle"]) + off} for t in self.triggers
            ],
            "cycles": list(range(self.start_cycle + off, self.end_cycle + off)),
            "voltages": volts.tolist(),
            "min_voltage_v": volts.min(axis=1).tolist() if n else [],
            "safe_state": [bool(s) for _, _, s in meta],
            "active_faults": [
                list(kinds) if kinds else [] for _, kinds, _ in meta
            ],
            "actuation_id": actuation_ids,
            "actuations": actuations,
        }


class FlightRecorder:
    """Always-on ring buffer + edge-triggered window dumper.

    ``observe`` must be called once per simulated cycle (warmup
    included); ``cycle_offset`` maps observed cycles to the recorded
    numbering (pass ``-warmup_cycles`` so dump cycle labels match the
    fault/guardband convention).  Triggers fire only at recorded cycle
    >= 0 — warmup settling transients produce context, not dumps.
    """

    def __init__(
        self,
        num_sms: int,
        guardband_v: float,
        pre_cycles: int = 64,
        post_cycles: int = 64,
        scan_interval: int = 32,
        max_dumps: int = 32,
        max_window_cycles: Optional[int] = None,
        cycle_offset: int = 0,
    ) -> None:
        if pre_cycles < 0 or post_cycles < 0:
            raise ValueError("pre/post window cycles cannot be negative")
        if scan_interval < 1:
            raise ValueError("scan_interval must be >= 1")
        self.num_sms = int(num_sms)
        self.guardband_v = float(guardband_v)
        self.pre_cycles = int(pre_cycles)
        self.post_cycles = int(post_cycles)
        self.scan_interval = int(scan_interval)
        self.max_dumps = int(max_dumps)
        self.max_window_cycles = int(
            max_window_cycles
            if max_window_cycles is not None
            else (pre_cycles + post_cycles + 8 * scan_interval)
        )
        self.cycle_offset = int(cycle_offset)
        # Ring capacity: a trigger inside the current scan block needs
        # pre_cycles of history behind it, plus the unscanned rows (under
        # one scan interval, plus one observe_block pass).
        self._W = self.pre_cycles + 2 * self.scan_interval + BLOCK_CYCLES
        self._volts = np.empty((self._W, self.num_sms))
        self._meta: List[Optional[Tuple[object, object, bool]]] = (
            [None] * self._W
        )
        self._n = 0  # observed cycles
        self._scanned = 0  # cycles processed by the scanner
        self._prev_below = False
        self._prev_safe = False
        self.dumps: List[FlightDump] = []
        self._pending: List[FlightDump] = []
        self.onsets = 0
        self.safe_edges = 0
        self.dumps_suppressed = 0

    # -- hot path ------------------------------------------------------
    def observe(self, voltages, decision=None, fault_kinds=None,
                safe: bool = False) -> None:
        """Record one cycle of state (:meth:`observe_block` of one row)."""
        self.observe_block(
            np.asarray(voltages)[None], [(decision, fault_kinds, safe)]
        )

    def observe_block(
        self, voltages: np.ndarray, meta: Sequence[tuple]
    ) -> None:
        """Record ``len(meta)`` cycles: O(rows) copies, no detection.

        ``voltages`` holds one ``(num_sms,)`` row per cycle and ``meta``
        one ``(decision, fault_kinds, safe)`` tuple.  Each ring pass
        takes up to :data:`BLOCK_CYCLES` rows and scans once a scan
        interval has filled; dumps do not depend on where scans fall,
        so any split of the same cycles into blocks yields the same
        dumps.
        """
        done, total = 0, len(meta)
        while done < total:
            take = min(total - done, BLOCK_CYCLES)
            n = self._n
            lo = n % self._W
            first = min(take, self._W - lo)
            self._volts[lo : lo + first] = voltages[done : done + first]
            self._meta[lo : lo + first] = meta[done : done + first]
            if first < take:  # wrap
                rest = slice(done + first, done + take)
                self._volts[: take - first] = voltages[rest]
                self._meta[: take - first] = meta[rest]
            self._n = n + take
            done += take
            if self._n - self._scanned >= self.scan_interval:
                self._scan()

    # -- deferred detection --------------------------------------------
    def _rows(self, start: int, end: int) -> np.ndarray:
        """Ring rows for observed cycles [start, end) (may wrap)."""
        lo = start % self._W
        hi = lo + (end - start)
        if hi <= self._W:
            return self._volts[lo:hi]
        return np.concatenate([self._volts[lo:], self._volts[: hi - self._W]])

    def _meta_rows(self, start: int, end: int) -> list:
        """Ring meta tuples for observed cycles [start, end)."""
        lo = start % self._W
        hi = lo + (end - start)
        if hi <= self._W:
            return self._meta[lo:hi]
        return self._meta[lo:] + self._meta[: hi - self._W]

    def _scan(self) -> None:
        start, end = self._scanned, self._n
        if end <= start:
            return
        rows = self._rows(start, end)
        safe_flags = [m[2] for m in self._meta_rows(start, end)]
        # A quiet block (nothing below the guardband, no safe state, and
        # neither at the previous block's end) has no edges.
        if not (
            self._prev_below or self._prev_safe or any(safe_flags)
            or rows.min() < self.guardband_v
        ):
            self._scanned = end
            self._extend_pending(end)
            return
        mins = rows.min(axis=1)
        below = mins < self.guardband_v
        safe = np.array(safe_flags, dtype=bool)

        # Edges vs the previous scanned cycle (block-boundary carry).
        prev_below = np.empty_like(below)
        prev_below[0] = self._prev_below
        prev_below[1:] = below[:-1]
        prev_safe = np.empty_like(safe)
        prev_safe[0] = self._prev_safe
        prev_safe[1:] = safe[:-1]

        triggers: List[Tuple[int, str, float]] = []
        first_recorded = max(0, -self.cycle_offset - start)
        onset_pos = np.flatnonzero(below & ~prev_below)
        for pos in onset_pos:
            if pos < first_recorded:
                continue  # warmup settling, context only
            self.onsets += 1
            triggers.append((start + int(pos), ONSET, float(mins[pos])))
        edge_pos = np.flatnonzero(safe != prev_safe)
        for pos in edge_pos:
            if pos < first_recorded:
                continue
            self.safe_edges += 1
            kind = SAFE_ENTER if safe[pos] else SAFE_EXIT
            triggers.append((start + int(pos), kind, float(mins[pos])))
        triggers.sort(key=lambda t: t[0])

        self._prev_below = bool(below[-1])
        self._prev_safe = bool(safe[-1])
        self._scanned = end

        for cycle, kind, min_v in triggers:
            self._trigger(cycle, kind, min_v)
        self._extend_pending(end)

    def _trigger(self, cycle: int, kind: str, min_v: float) -> None:
        record = {"cycle": cycle, "kind": kind, "min_voltage_v": min_v}
        if self._pending:
            dump = self._pending[-1]
            window_end = dump.last_trigger_cycle + self.post_cycles
            grown = cycle + self.post_cycles - dump.start_cycle + 1
            if cycle <= window_end and grown <= self.max_window_cycles:
                dump.triggers.append(record)
                return
        if len(self.dumps) + len(self._pending) >= self.max_dumps:
            self.dumps_suppressed += 1
            return
        start = max(0, cycle - self.pre_cycles)
        dump = FlightDump(
            index=len(self.dumps) + len(self._pending),
            start_cycle=start,
            cycle_offset=self.cycle_offset,
        )
        dump.triggers.append(record)
        # Backfill history from the ring (guaranteed present: the ring
        # holds pre_cycles + the unscanned block), clamped to the close
        # point so a short post window never over-collects.
        close_at = min(
            cycle + self.post_cycles + 1, start + self.max_window_cycles
        )
        take_to = min(self._scanned, close_at)
        dump.voltages.append(self._rows(start, take_to).copy())
        dump.meta.extend(self._meta_rows(start, take_to))
        dump.end_cycle = take_to
        self._pending.append(dump)

    def _extend_pending(self, now: int) -> None:
        """Append newly scanned rows to open windows; close filled ones."""
        still_open: List[FlightDump] = []
        for dump in self._pending:
            close_at = min(
                dump.last_trigger_cycle + self.post_cycles + 1,
                dump.start_cycle + self.max_window_cycles,
            )
            take_to = min(now, close_at)
            if take_to > dump.end_cycle:
                dump.voltages.append(
                    self._rows(dump.end_cycle, take_to).copy()
                )
                dump.meta.extend(self._meta_rows(dump.end_cycle, take_to))
                dump.end_cycle = take_to
            if now >= close_at:
                self.dumps.append(dump)
            else:
                still_open.append(dump)
        self._pending = still_open

    def force_dump(self, kind: str,
                   min_voltage_v: float = float("nan")) -> None:
        """Force a window ending at the last observed cycle.

        For terminal events that are not voltage or safe-state edges —
        e.g. a solver :data:`NUMERICAL_DIVERGENCE` verdict — so the
        full-resolution history behind the failure is captured even
        though no guardband edge fired.  Coalesces into an open window
        when one covers the tail; otherwise opens a new dump (subject
        to the usual ``max_dumps`` suppression accounting).
        """
        self._scan()
        if self._n == 0:
            return
        self._trigger(self._n - 1, kind, float(min_voltage_v))
        self._extend_pending(self._n)

    def finalize(self) -> None:
        """Scan the tail and close still-open windows (truncated post)."""
        self._scan()
        for dump in self._pending:
            self.dumps.append(dump)
        self._pending = []

    # -- reporting -----------------------------------------------------
    @property
    def cycles_observed(self) -> int:
        return self._n

    def summary(self) -> Dict[str, object]:
        return {
            "guardband_v": self.guardband_v,
            "cycles_observed": self._n,
            "onsets": self.onsets,
            "safe_state_edges": self.safe_edges,
            "dumps": len(self.dumps) + len(self._pending),
            "dumps_suppressed": self.dumps_suppressed,
            "pre_cycles": self.pre_cycles,
            "post_cycles": self.post_cycles,
            "windows": [
                {
                    "file": f"{d.index:03d}.json",
                    "start_cycle": d.start_cycle + self.cycle_offset,
                    "end_cycle": d.end_cycle + self.cycle_offset,
                    "num_triggers": len(d.triggers),
                    "kinds": sorted({t["kind"] for t in d.triggers}),
                }
                for d in self.dumps + self._pending
            ],
        }

    def write(self, directory) -> List[Path]:
        """Write every dump as ``<directory>/NNN.json``; returns paths."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for dump in self.dumps + self._pending:
            path = directory / f"{dump.index:03d}.json"
            with open(path, "w") as handle:
                json.dump(dump.to_dict(), handle)
                handle.write("\n")
            paths.append(path)
        return paths


def read_flight_dir(directory) -> List[Dict[str, object]]:
    """Load every ``NNN.json`` under a run's ``flight/`` directory."""
    directory = Path(directory)
    if directory.name != FLIGHT_DIR:
        directory = directory / FLIGHT_DIR
    if not directory.is_dir():
        return []
    dumps = []
    for path in sorted(directory.glob("*.json")):
        try:
            with open(path) as handle:
                dumps.append(json.load(handle))
        except (OSError, json.JSONDecodeError):
            continue
    return dumps


def render_flight(dumps: Sequence[Dict[str, object]],
                  guardband_v: Optional[float] = None) -> str:
    """Human-readable flight-recorder summary (``repro observe``)."""
    if not dumps:
        return "flight recorder: no dumps (no guardband or safe-state edges)"
    lines = [f"flight recorder: {len(dumps)} dump(s)"]
    for dump in dumps:
        mins = dump.get("min_voltage_v") or []
        floor = min(mins) if mins else float("nan")
        kinds: Dict[str, int] = {}
        for trig in dump.get("triggers") or []:
            kinds[str(trig.get("kind"))] = kinds.get(str(trig.get("kind")), 0) + 1
        kind_bits = ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items()))
        lines.append(
            f"  [{dump.get('index', '?'):>3}] cycles "
            f"{dump.get('start_cycle', '?')}..{dump.get('end_cycle', '?')} "
            f"({len(mins)} cycles, floor {floor:.4f} V): {kind_bits}"
        )
    if guardband_v is not None:
        lines.append(f"  guardband {guardband_v:.3f} V")
    return "\n".join(lines)
