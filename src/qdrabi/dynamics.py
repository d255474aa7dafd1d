"""Six-amplitude transition-manifold dynamics.

The interaction Hamiltonian connects six basis states around |2, m, n>
(dot excited, m fundamental-mode photons, n second-harmonic photons).
Writing the slowly varying amplitudes as

    C[2,m+2,n] = a1 + i*a2      C[2,m,n+1] = b1 + i*b2
    C[1,m,n+1] = c1 + i*c2      C[2,m,n]   = d1 + i*d2
    C[1,m+2,n] = e1 + i*e2      C[1,m+1,n] = f1 + i*f2

gives a linear 12-dimensional real system.  The (a, b) pair couples only
through the two-mode nonlinearity and is fully decoupled from (c, d, e, f).
Exciton-photon couplings are dressed by exp(-lam/2) and carry oscillating
phases at the two detunings; the nonlinear coupling is phase-free (the
second harmonic is exactly twice the fundamental) and undressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationDivergedError
from .model import Detunings

__all__ = [
    "ManifoldIndex",
    "ManifoldAmplitudes",
    "TimeGrid",
    "DynamicsSpec",
    "TimeSeries",
    "AMPLITUDE_COLUMNS",
    "rhs",
    "integrate",
    "excited_population",
    "jc_baseline",
    "nl_block_baseline",
]

AMPLITUDE_COLUMNS = ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2", "e1", "e2", "f1", "f2")

_SLOT_OFFSET = {"a": 0, "b": 2, "c": 4, "d": 6, "e": 8, "f": 10}


@dataclass(frozen=True)
class ManifoldIndex:
    """Photon numbers (m, n) of the reference state |2, m, n>."""

    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError(f"photon numbers must be >= 0, got m={self.m}, n={self.n}")

    def root_factor(self) -> float:
        """Combinatorial factor sqrt((n+1)(m+1)(m+2)) on the nonlinear coupling."""
        return math.sqrt((self.n + 1) * (self.m + 1) * (self.m + 2))


@dataclass(frozen=True)
class ManifoldAmplitudes:
    """The six manifold amplitudes stored as 12 reals."""

    a1: float = 0.0
    a2: float = 0.0
    b1: float = 0.0
    b2: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    d1: float = 0.0
    d2: float = 0.0
    e1: float = 0.0
    e2: float = 0.0
    f1: float = 0.0
    f2: float = 0.0

    @classmethod
    def unit(cls, slot: str = "d") -> "ManifoldAmplitudes":
        """Unit amplitude in one slot (a..f); 'd' is the excited dot with no photons added."""
        if slot not in _SLOT_OFFSET:
            raise ValueError(f"slot must be one of {sorted(_SLOT_OFFSET)}, got {slot!r}")
        values = [0.0] * 12
        values[_SLOT_OFFSET[slot]] = 1.0
        return cls(*values)

    @classmethod
    def from_array(cls, arr) -> "ManifoldAmplitudes":
        values = [float(x) for x in arr]
        if len(values) != 12:
            raise ValueError(f"expected 12 components, got {len(values)}")
        return cls(*values)

    def as_tuple(self) -> tuple[float, ...]:
        return (self.a1, self.a2, self.b1, self.b2, self.c1, self.c2,
                self.d1, self.d2, self.e1, self.e2, self.f1, self.f2)

    def as_array(self) -> np.ndarray:
        return np.array(self.as_tuple())

    def norm(self) -> float:
        """Total probability: sum of squared moduli of all six amplitudes."""
        return sum(x * x for x in self.as_tuple())


@dataclass(frozen=True)
class TimeGrid:
    """Fixed-step integration window with an output stride.

    Samples are emitted every `sample_every` steps (step 0 included); the
    final step is always emitted.  `step` may be negative for backward
    integration provided t_end lies on that side of t_start.
    """

    t_start: float = 0.0
    t_end: float = 25.0
    step: float = 1e-3
    sample_every: int = 10

    def __post_init__(self):
        if self.step == 0.0 or not math.isfinite(self.step):
            raise ValueError(f"step must be finite and nonzero, got {self.step!r}")
        if (self.t_end - self.t_start) / self.step <= 0.0:
            raise ValueError(
                f"time window [{self.t_start}, {self.t_end}] is inconsistent "
                f"with step {self.step}"
            )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")

    def n_steps(self) -> int:
        return max(1, int(round((self.t_end - self.t_start) / self.step)))


@dataclass(frozen=True)
class DynamicsSpec:
    """Everything the integrator needs for one trajectory.

    Couplings g_a_eff and g_b_eff are already dressed by exp(-lam/2); the
    nonlinear coupling is undressed by construction.
    """

    index: ManifoldIndex
    g_a_eff: float
    g_b_eff: float
    g_nl: float
    detunings: Detunings
    y0: ManifoldAmplitudes
    grid: TimeGrid

    def __post_init__(self):
        if not self.y0.norm() > 0.0:
            raise ValueError("initial state must have positive norm")

    def with_grid(self, **changes) -> "DynamicsSpec":
        return replace(self, grid=replace(self.grid, **changes))

    def coefficients(self) -> tuple[float, float, float, float, float]:
        """(ga, gb, gk, da, db) with photon-number factors folded in."""
        m, n = self.index.m, self.index.n
        ga = self.g_a_eff * math.sqrt(m + 1)
        gb = self.g_b_eff * math.sqrt(n + 1)
        gk = self.g_nl * self.index.root_factor()
        return ga, gb, gk, self.detunings.delta_a, self.detunings.delta_b


def _derivs(t, y, ga, gb, gk, da, db):
    """Right-hand sides of the 12 real amplitude equations.

    ga, gb carry the dressing and the sqrt(m+1) / sqrt(n+1) photon factors;
    gk is the nonlinear coupling times sqrt((n+1)(m+1)(m+2)).
    """
    a1, a2, b1, b2, c1, c2, d1, d2, e1, e2, f1, f2 = y
    ca = math.cos(da * t)
    sa = math.sin(da * t)
    cb = math.cos(db * t)
    sb = math.sin(db * t)
    return (
        gk * b2,
        -gk * b1,
        gk * a2,
        -gk * a1,
        gb * cb * d2 - gb * sb * d1 + gk * e2,
        -gb * cb * d1 - gb * sb * d2 - gk * e1,
        ga * ca * f2 + ga * sa * f1 + gb * cb * c2 + gb * sb * c1,
        -ga * ca * f1 + ga * sa * f2 - gb * cb * c1 + gb * sb * c2,
        gk * c2,
        -gk * c1,
        -ga * sa * d1 + ga * ca * d2,
        -ga * ca * d1 - ga * sa * d2,
    )


def rhs(t: float, y: ManifoldAmplitudes, spec: DynamicsSpec) -> ManifoldAmplitudes:
    """Time derivative of the manifold amplitudes at time t."""
    ga, gb, gk, da, db = spec.coefficients()
    return ManifoldAmplitudes(*_derivs(t, y.as_tuple(), ga, gb, gk, da, db))


def excited_population(y) -> float:
    """Probability of the dot being excited with the reference photon numbers: d1^2 + d2^2."""
    if isinstance(y, ManifoldAmplitudes):
        return y.d1 * y.d1 + y.d2 * y.d2
    return y[6] * y[6] + y[7] * y[7]


@dataclass
class TimeSeries:
    """Sampled trajectory: times, 12 real amplitudes, excited population, norm."""

    t: np.ndarray
    amplitudes: np.ndarray
    p2: np.ndarray
    norm: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def max_norm_drift(self) -> float:
        return float(np.abs(self.norm - self.norm[0]).max())


def integrate(spec: DynamicsSpec) -> TimeSeries:
    """Propagate the amplitude equations with the classical fixed-step RK4 scheme.

    Deterministic: identical specs give bit-identical samples.  Raises
    IntegrationDivergedError (carrying the last finite sample time) if the
    state leaves the finite range, which only happens when the step is far
    too large for the coupling scale.
    """
    ga, gb, gk, da, db = spec.coefficients()
    grid = spec.grid
    h = grid.step
    t0 = grid.t_start
    n_steps = grid.n_steps()
    stride = grid.sample_every

    y = spec.y0.as_tuple()
    ts = [t0]
    ys = [y]
    h2 = 0.5 * h
    h6 = h / 6.0
    for i in range(n_steps):
        t = t0 + i * h
        k1 = _derivs(t, y, ga, gb, gk, da, db)
        k2 = _derivs(t + h2, tuple(v + h2 * k for v, k in zip(y, k1)), ga, gb, gk, da, db)
        k3 = _derivs(t + h2, tuple(v + h2 * k for v, k in zip(y, k2)), ga, gb, gk, da, db)
        k4 = _derivs(t + h, tuple(v + h * k for v, k in zip(y, k3)), ga, gb, gk, da, db)
        y = tuple(
            v + h6 * (p + 2.0 * q + 2.0 * r + s)
            for v, p, q, r, s in zip(y, k1, k2, k3, k4)
        )
        if (i + 1) % stride == 0 or i + 1 == n_steps:
            norm = sum(v * v for v in y)
            if not norm < math.inf:
                raise IntegrationDivergedError(
                    f"state became nonfinite between t={ts[-1]!r} and t={t0 + (i + 1) * h!r}",
                    t_last=ts[-1],
                )
            ts.append(t0 + (i + 1) * h)
            ys.append(y)

    amplitudes = np.array(ys)
    t_arr = np.array(ts)
    p2 = amplitudes[:, 6] ** 2 + amplitudes[:, 7] ** 2
    norms = (amplitudes ** 2).sum(axis=1)
    return TimeSeries(t=t_arr, amplitudes=amplitudes, p2=p2, norm=norms)


def jc_baseline(t, g: float, lam: float = 0.0, delta: float = 0.0, m: int = 0):
    """Closed-form excited population of the detuned two-state (dot + one mode) limit.

    With G = g*exp(-lam/2)*sqrt(m+1) and generalized frequency
    Omega = sqrt(delta^2 + 4 G^2):  P2(t) = 1 - (4 G^2 / Omega^2) sin^2(Omega t / 2).
    Accepts scalar or array t.
    """
    if g < 0.0:
        raise ValueError(f"coupling must be >= 0, got {g!r}")
    from .model import dressed_coupling

    geff = dressed_coupling(g, lam) * math.sqrt(m + 1)
    omega_sq = delta * delta + 4.0 * geff * geff
    if omega_sq == 0.0:
        return np.ones_like(np.asarray(t, dtype=float))
    omega = math.sqrt(omega_sq)
    depth = 4.0 * geff * geff / omega_sq
    return 1.0 - depth * np.sin(0.5 * omega * np.asarray(t, dtype=float)) ** 2


def nl_block_baseline(t, g_nl: float, m: int = 0, n: int = 0):
    """Closed-form population of the isolated nonlinear two-state block.

    For unit initial amplitude in C[2,m,n+1], the population returns as
    cos^2(Omega_nl t) with Omega_nl = g_nl*sqrt((n+1)(m+1)(m+2)).
    """
    if g_nl < 0.0:
        raise ValueError(f"coupling must be >= 0, got {g_nl!r}")
    omega = g_nl * ManifoldIndex(m, n).root_factor()
    return np.cos(omega * np.asarray(t, dtype=float)) ** 2
