"""Machine-speed probe: a fixed reference computation timed between ops.

On a shared virtual machine the same work can run 15-30% slower for tens of
seconds at a time, and process CPU time grows with wall time, so neither
clock tells a slower program from a slower machine.  The probe times a fixed
computation that never touches qlattice (plain Python arithmetic and small
complex numpy products and Hermitian eigendecompositions, the kinds of work
the library spends its time on) after every PROBE_EVERY_S of op time.  The
ops between two probes are scaled by NOMINAL_S / (mean of the two probe
times), which gives their time at the machine speed where the probe takes
NOMINAL_S.  The probe runs between ops, never inside one.
"""

from __future__ import annotations

import time

import numpy as np

# probe time on a quiet 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS
# with one thread); only the scale of the reported times depends on it
NOMINAL_S = 0.007
PROBE_EVERY_S = 0.2


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._h = self._a + self._a.conj().T
        self.samples: list[float] = []
        self._pending: list = []
        self._pending_s = 0.0
        self._last = self._measure()

    def _measure(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(30000):
            s += i * i
        for _ in range(150):
            np.linalg.norm(self._a @ self._a.conj().T)
            np.linalg.eigh(self._h)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self) -> float:
        """Probe now; the scale for work done since the previous probe."""
        now = self._measure()
        f = NOMINAL_S / ((self._last + now) / 2.0)
        self._last = now
        return f

    def add(self, rec) -> None:
        """Queue an op record; scale the queue once it holds enough op time."""
        self._pending.append(rec)
        self._pending_s += rec.seconds
        if self._pending_s >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if self._pending:
            f = self.factor()
            for rec in self._pending:
                rec.scaled = rec.seconds * f
            self._pending = []
            self._pending_s = 0.0
