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

Those phases make the generator covariant under time shifts, so the
classical RK4 scheme is one constant 12x12 step matrix in a co-moving
frame.  `integrate` builds that matrix from the equations once, raises it
to the output stride in increment form (the power minus the identity, which
keeps the O(h) step's digits), advances a block of up to 64 samples per
product from the block's first state and rotates the samples back.  It is
the same RK4 solution as stepping one step at a time, to rounding, and
stays bit-reproducible.
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

# samples advanced per matrix product in `integrate`
_BLOCK_SAMPLES = 64


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

    def n_samples(self) -> int:
        """Samples kept: step 0, every `sample_every`-th step, and the final step."""
        strides, rest = divmod(self.n_steps(), self.sample_every)
        return strides + 1 + (rest > 0)

    def t_final(self) -> float:
        """Time of the last sample; differs from t_end when the step does not divide the window."""
        return self.t_start + self.n_steps() * self.step


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


def _rk4_increment(h, coeffs) -> np.ndarray:
    """One RK4 step from t = 0 minus the identity, as a 12x12 matrix.

    `_derivs` is applied to all 12 unit vectors at once (the rows of the
    identity unpack into the 12 components), so the matrix carries the same
    coefficients as the equations.  The increment is formed directly, never
    as P - I, because P lies within O(h) of the identity.
    """
    def f(t, y):
        return np.array(_derivs(t, y, *coeffs))

    h2 = 0.5 * h
    y = np.eye(12)
    k1 = f(0.0, y)
    k2 = f(h2, y + h2 * k1)
    k3 = f(h2, y + h2 * k2)
    k4 = f(h, y + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _compose(a, b) -> np.ndarray:
    """(I + a)(I + b) - I, kept in increment form."""
    return a + b + a @ b


def _power(a, n: int) -> np.ndarray:
    """(I + a)^n - I by binary powering in increment form."""
    result = np.zeros_like(a)
    while True:
        if n & 1:
            result = _compose(result, a)
        n >>= 1
        if not n:
            return result
        a = _compose(a, a)


def _phase_rates(ga, gb, da, db) -> np.ndarray:
    """Rotation rate of each slot a..f in the co-moving frame.

    The generator obeys A(t) = R(t) A(0) R(t)^T, with R(t) turning each
    (re, im) pair by rate*t.  An uncoupled channel carries no phase, so its
    detuning is dropped and its slots stay exactly unrotated.
    """
    da = da if ga != 0.0 else 0.0
    db = db if gb != 0.0 else 0.0
    return np.array([0.0, 0.0, -db, 0.0, -db, -da])


def _rotate(pairs, angles):
    """Turn each (re, im) pair of `pairs` (..., 6, 2) by `angles` (..., 6)."""
    cos, sin = np.cos(angles), np.sin(angles)
    re, im = pairs[..., 0], pairs[..., 1]
    return np.stack((cos * re - sin * im, sin * re + cos * im), axis=-1)


def integrate(spec: DynamicsSpec) -> TimeSeries:
    """Propagate the amplitude equations with the classical fixed-step RK4 scheme.

    The RK4 step from t_k is R(t_k) P R(t_k)^T for one constant 12x12 step
    matrix P, so in the co-moving frame z = R(t)^T y every step is the same
    matrix Q = R(h)^T P.  Q is raised to the output stride once, in
    increment form (J = Q^s - I); the powers (I + J)^i - I, i = 1..64, are
    stacked so that one product advances a block of 64 samples from the
    block's first state.  The samples are then rotated back to the lab
    frame.  This is the same RK4 solution as stepping one step at a time,
    to rounding.

    Deterministic: identical specs give bit-identical samples.  Raises
    IntegrationDivergedError (carrying the last finite sample time) if the
    state leaves the finite range, which only happens when the step is far
    too large for the coupling scale, or if a detuning phase over one step
    overflows.
    """
    coeffs = spec.coefficients()
    ga, gb, _, da, db = coeffs
    grid = spec.grid
    h = grid.step
    t0 = grid.t_start
    n_steps = grid.n_steps()
    stride = grid.sample_every
    rates = _phase_rates(ga, gb, da, db)
    if not math.isfinite(max(abs(da), abs(db)) * h):
        # the step's detuning phases overflow; no finite state follows
        raise IntegrationDivergedError(
            f"detuning phase over one step of {h!r} is not finite", t_last=float(t0))

    with np.errstate(over="ignore", invalid="ignore"):
        # R(h)^T - I, with cos - 1 written as -2 sin^2(theta/2) to keep its digits
        theta = rates * h
        back = np.zeros((12, 12))
        re = np.arange(0, 12, 2)
        back[re, re] = back[re + 1, re + 1] = -2.0 * np.sin(0.5 * theta) ** 2
        back[re, re + 1] = np.sin(theta)
        back[re + 1, re] = -np.sin(theta)
        step = _compose(back, _rk4_increment(h, coeffs))

        n_full, rest = divmod(n_steps, stride)
        ks = np.arange(n_full + 1) * stride
        if rest:
            ks = np.append(ks, n_steps)
        z = np.empty((len(ks), 12))
        z[0] = cur = _rotate(spec.y0.as_array().reshape(6, 2), -rates * t0).ravel()
        # (I + jump)^i - I for i = 1..block, stacked, so a block of samples
        # is one product with the state at the block's start
        jump = _power(step, stride)
        powers = [jump]
        for _ in range(1, min(_BLOCK_SAMPLES, n_full)):
            powers.append(_compose(powers[-1], jump))
        stacked = np.concatenate(powers)
        for j in range(0, n_full, len(powers)):
            m = min(len(powers), n_full - j)
            z[j + 1:j + 1 + m] = cur + (stacked[:12 * m] @ cur).reshape(m, 12)
            cur = z[j + m]
        if rest:
            z[-1] = cur + _power(step, rest) @ cur

        t_arr = t0 + ks * h
        t_arr[0] = t0  # t0 + 0*h would turn a t_start of -0.0 into 0.0
        amplitudes = _rotate(z.reshape(-1, 6, 2), np.outer(t_arr, rates)).reshape(-1, 12)
        norms = (amplitudes ** 2).sum(axis=1)

    bad = np.flatnonzero(~(norms[1:] < math.inf))
    if bad.size:
        last, first = t_arr[bad[0]], t_arr[bad[0] + 1]
        raise IntegrationDivergedError(
            f"state became nonfinite between t={float(last)!r} and t={float(first)!r}",
            t_last=float(last),
        )
    p2 = amplitudes[:, 6] ** 2 + amplitudes[:, 7] ** 2
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
