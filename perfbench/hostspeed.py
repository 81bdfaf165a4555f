"""Host-speed probe: the benchmark's unit of host time.

The benchmark host is shared, and its effective speed drifts by up to 2x
over minutes, more than any run length averages away. So a fixed CPU
job (method calls and small NumPy ufuncs, the co-sim's own mix) runs
before every timed repetition. The job runs in a separate interpreter
that imports nothing from the repository: a change to the simulator
cannot speed it up or slow it down, only the host can.

One run's times are scaled by ``REFERENCE_S`` over the run's median
probe time, which turns host seconds into *reference seconds*.  One
factor per run, not per repetition: a single probe is noisier than the
repetition it sits beside, while the drift it corrects is slow.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Probe time that defines one reference second: roughly the probe on
#: the 2-core Xeon benchmark host at its median speed.
REFERENCE_S = 0.08

_PROBE = r"""
import sys, time
import numpy as np

a = np.linspace(0.0, 1.0, 128).reshape(8, 16)
b = np.empty_like(a)


class Cell:
    def __init__(self):
        self.x = 1.0

    def step(self, y):
        return self.x + y * 0.5


cell = Cell()
for _ in sys.stdin:
    start = time.perf_counter()
    acc = 0.0
    for _ in range(100000):
        acc = cell.step(acc)
    for _ in range(20000):
        np.multiply(a, 1.0001, out=b)
        np.subtract(b, a, out=b)
        b.sum()
    print(time.perf_counter() - start, flush=True)
"""


class HostProbe:
    """The probe interpreter; close it (or use ``with``) to stop it."""

    def __init__(self) -> None:
        self.samples: list = []  # seconds of every probe job run so far
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _PROBE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self) -> float:
        """Run one probe job now; returns (and records) its seconds."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed probe exited")
        self.samples.append(float(line))
        return self.samples[-1]

    def timed(self, fn):
        """Probe, then run ``fn()``; returns ``(result, host seconds)``."""
        self.seconds()
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    def scale(self) -> float:
        """Reference seconds per host second over the probes so far."""
        return REFERENCE_S / statistics.median(self.samples)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
