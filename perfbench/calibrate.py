"""Reference kernels that measure how fast this machine runs at the moment.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, whatever the benchmark does.  The client times a fixed reference
kernel before the first op and after every op, and scales each op's wall
time by REFERENCE_S / (mean kernel time around it): an op is reported in
seconds at the speed the host had when REFERENCE_S was taken.  One kernel
sample is shorter than the periods over which the host throttles a busy
core, so a single sample is noisy; the mean is taken over the WINDOW
samples before and the WINDOW samples after the op, about half a second of
kernel time.  Each set-up probe times the set-up kernel just before and just
after its timed set-up, in its own process, and is scaled by the mean of
those two.  A change to
qdrabi moves the op but never the kernel, which lives here and imports
nothing from the package.

Each kernel mixes the kinds of work its ops do:

* setup, fig_runs: a pure-Python fixed-step RK4 over twelve real
  amplitudes, shaped like the integrator that dominates fig_runs, in the
  calling process;
* coarse_sweep: the same RK4 in each of two worker processes at once, as
  the sweep's two pool workers run, timed until both have finished;
* leakage_check: a short RK4 plus the dense linear algebra of a full-mode
  oracle (Hermitian eigendecomposition, phase matrix, basis change) on a
  fixed seeded matrix, with the same BLAS threads as the ops.

This module imports only builtin modules at load time (numpy and
multiprocessing when a kernel needs them), so the set-up probe can load it
without taking any of qdrabi's imports out of the time it measures.

REFERENCE_S is each kernel's median time on a 2-core Xeon under steady load
(Python 3.11, OpenBLAS 0.3.31 with 2 threads); the scaled values are
comparable between runs on one host, not across hosts.
"""

from __future__ import annotations

import gc
import math
import time

REFERENCE_S = {"setup": 0.055, "fig_runs": 0.060, "coarse_sweep": 0.095, "leakage_check": 0.080}

_RK4_STEPS = {"setup": 3000, "fig_runs": 3000, "coarse_sweep": 3000, "leakage_check": 500}
_LANES = {"coarse_sweep": 2}
WINDOW = 4
_ORACLE_DIM = 338
_ORACLE_SAMPLES = 1001


def _derivs(t, y, ga, gb, gk, da, db):
    a1, a2, b1, b2, c1, c2, d1, d2, e1, e2, f1, f2 = y
    ca = math.cos(da * t)
    sa = math.sin(da * t)
    cb = math.cos(db * t)
    sb = math.sin(db * t)
    return (
        gk * b2, -gk * b1, gk * a2, -gk * a1,
        gb * cb * d2 - gb * sb * d1 + gk * e2,
        -gb * cb * d1 - gb * sb * d2 - gk * e1,
        ga * ca * f2 + ga * sa * f1 + gb * cb * c2 + gb * sb * c1,
        -ga * ca * f1 + ga * sa * f2 - gb * cb * c1 + gb * sb * c2,
        gk * c2, -gk * c1,
        -ga * sa * d1 + ga * ca * d2,
        -ga * ca * d1 - ga * sa * d2,
    )


def _rk4(steps: int) -> float:
    coeffs = (0.7, 0.5, 1.3, 0.9, 0.1)
    y = (0.0,) * 6 + (1.0, 0.0) + (0.0,) * 4
    h = 1e-3
    h2 = 0.5 * h
    h6 = h / 6.0
    for i in range(steps):
        t = i * h
        k1 = _derivs(t, y, *coeffs)
        k2 = _derivs(t + h2, tuple(v + h2 * k for v, k in zip(y, k1)), *coeffs)
        k3 = _derivs(t + h2, tuple(v + h2 * k for v, k in zip(y, k2)), *coeffs)
        k4 = _derivs(t + h, tuple(v + h * k for v, k in zip(y, k3)), *coeffs)
        y = tuple(v + h6 * (p + 2.0 * q + 2.0 * r + s)
                  for v, p, q, r, s in zip(y, k1, k2, k3, k4))
    return sum(v * v for v in y)


def _timed_rk4(steps: int) -> float:
    # the kernel makes no cycles; without the collector its time does not
    # depend on how many objects the ops left on the heap
    gc.disable()
    try:
        started = time.perf_counter()
        _rk4(steps)
        return time.perf_counter() - started
    finally:
        gc.enable()


def _lane(conn, steps: int) -> None:
    """Worker process: run the RK4 kernel each time the parent asks, until it sends None."""
    while conn.recv() is not None:
        conn.send(_timed_rk4(steps))


class Kernel:
    """One reference kernel; `sample()` runs it once and returns its wall time.

    A kernel with lanes owns worker processes; `close()` stops them and waits
    for them to end.
    """

    def __init__(self, name: str):
        self.reference_s = REFERENCE_S[name]
        self.steps = _RK4_STEPS[name]
        self.matrix = None
        if name == "leakage_check":
            import numpy as np

            self._np = np
            rng = np.random.default_rng(0)
            a = rng.standard_normal((_ORACLE_DIM, _ORACLE_DIM))
            b = rng.standard_normal((_ORACLE_DIM, _ORACLE_DIM))
            self.matrix = (a + a.T) + 1j * (b - b.T)
            self.psi0 = np.zeros(_ORACLE_DIM, dtype=complex)
            self.psi0[0] = 1.0
            self.times = np.linspace(0.0, 25.0, _ORACLE_SAMPLES)
        self.lanes = []
        for _ in range(_LANES.get(name, 0)):
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_lane, args=(child, self.steps), daemon=True)
            proc.start()
            child.close()
            self.lanes.append((proc, parent))

    def _oracle(self) -> float:
        np = self._np
        energies, vectors = np.linalg.eigh(self.matrix)
        coeffs = vectors.conj().T @ self.psi0
        phases = np.exp(-1j * np.outer(self.times, energies))
        psi_t = (phases * coeffs) @ vectors.T
        return float(np.abs(psi_t[-1, 0]))

    def sample(self) -> float:
        if not self.lanes:
            if self.matrix is None:
                return _timed_rk4(self.steps)
            started = time.perf_counter()
            _timed_rk4(self.steps)
            self._oracle()
            return time.perf_counter() - started
        started = time.perf_counter()
        for _, conn in self.lanes:
            conn.send(True)
        for _, conn in self.lanes:
            conn.recv()
        return time.perf_counter() - started

    def scale(self, samples: list[float]) -> float:
        """Factor that turns a wall time next to these kernel samples into reference seconds."""
        return self.reference_s * len(samples) / sum(samples)

    def close(self) -> None:
        for _, conn in self.lanes:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        for proc, _ in self.lanes:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.lanes = []
