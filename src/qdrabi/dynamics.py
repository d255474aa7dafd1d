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
keeps the O(h) step's digits), fills the samples by doubling (one product
advances every sample found so far, then the power is squared) and rotates
the samples back.  It is the same RK4 solution as stepping one step at a
time, to rounding, and stays bit-reproducible.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationDivergedError
from .model import ModelParams, dressed_coupling

__all__ = [
    "ManifoldIndex",
    "ManifoldAmplitudes",
    "TimeGrid",
    "DynamicsSpec",
    "TimeSeries",
    "SLOTS",
    "AMPLITUDE_COLUMNS",
    "rhs",
    "integrate",
    "jc_baseline",
    "nl_block_baseline",
]

# the six manifold amplitudes in storage order; slot k is the (re, im) pair at 2k, 2k+1
SLOTS = ("a", "b", "c", "d", "e", "f")
# the 12 reals in storage order, a1, a2, b1, .., f2: 1 the real part, 2 the imaginary
AMPLITUDE_COLUMNS = tuple(f"{slot}{part}" for slot in SLOTS for part in "12")

# Bound on rho^n_steps, the growth of the fastest mode of the co-moving RK4
# step over the whole window (rho its spectral radius): a step past the
# stability limit grows it exponentially in n_steps (fig3 at step 0.94 over
# t in [0, 10]: 1.31).  Below the limit rho is 1 to within eigvals' rounding,
# a few ulps, which is below 1e-7 of growth even over 1e7 steps.
_MAX_GROWTH = 1.01


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


class ManifoldAmplitudes(namedtuple("ManifoldAmplitudes", AMPLITUDE_COLUMNS,
                                    defaults=(0.0,) * 12)):
    """The six manifold amplitudes stored as 12 reals, in AMPLITUDE_COLUMNS order."""

    __slots__ = ()

    @classmethod
    def unit(cls, slot: str = "d") -> "ManifoldAmplitudes":
        """Unit amplitude in one slot (a..f); 'd' is the excited dot with no photons added."""
        if slot not in SLOTS:
            raise ValueError(f"slot must be one of {list(SLOTS)}, got {slot!r}")
        return cls(**{f"{slot}1": 1.0})

    def as_tuple(self) -> tuple[float, ...]:
        return tuple(self)


@dataclass(frozen=True)
class TimeGrid:
    """Fixed-step integration window with an output stride.

    Samples are emitted every `sample_every` steps (step 0 included); the
    final step is always emitted.  `step` may be negative for backward
    integration provided t_end lies on that side of t_start.  The window
    rounds to at least one step: one of at most half a step is rejected.
    """

    t_start: float
    t_end: float
    step: float
    sample_every: int

    def __post_init__(self):
        if self.step == 0.0 or not math.isfinite(self.step):
            raise ValueError(f"step must be finite and nonzero, got {self.step!r}")
        if (self.t_end - self.t_start) / self.step <= 0.5:  # round() gives no step
            raise ValueError(
                f"window [{self.t_start:g}, {self.t_end:g}] is at most half the step "
                f"{self.step:g}, so it takes no step"
            )
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")

    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.step))

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

    y0 is any 12 reals in AMPLITUDE_COLUMNS order: a ManifoldAmplitudes, a
    tuple or a (12,) array.
    """

    params: ModelParams
    index: ManifoldIndex
    y0: ManifoldAmplitudes
    grid: TimeGrid

    def __post_init__(self):
        if not sum(x * x for x in self.y0) > 0.0:
            raise ValueError("initial state must have positive norm")

    def coefficients(self) -> tuple[float, float, float, float, float]:
        """(ga, gb, gk, da, db) with photon-number factors folded in.

        ga and gb are dressed by exp(-lam/2); the nonlinear gk is undressed by
        construction.  da and db are the detunings as the params give them.
        """
        p = self.params
        ga = p.dressed_g_a() * math.sqrt(self.index.m + 1)
        gb = p.dressed_g_b() * math.sqrt(self.index.n + 1)
        gk = p.g_nl * self.index.root_factor()
        return ga, gb, gk, p.delta_a, p.delta_b


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


def rhs(t: float, y, spec: DynamicsSpec) -> np.ndarray:
    """Time derivative at time t of the 12 reals y, as a (12,) array."""
    return np.array(_derivs(t, y, *spec.coefficients()))


@dataclass
class TimeSeries:
    """Sampled trajectory: times, 12 real amplitudes and norm."""

    t: np.ndarray
    amplitudes: np.ndarray
    norm: np.ndarray

    @property
    def p2(self) -> np.ndarray:
        """Excited population |C[2,m,n]|^2 = d1^2 + d2^2 at each sample."""
        return self.amplitudes[:, 6] ** 2 + self.amplitudes[:, 7] ** 2

    def __len__(self) -> int:
        return len(self.t)

    def max_norm_drift(self) -> float:
        return float(np.abs(self.norm - self.norm[0]).max())


def _rk4_increment(h, spec: DynamicsSpec) -> np.ndarray:
    """One RK4 step from t = 0 minus the identity, as a 12x12 matrix.

    `rhs` is applied to all 12 unit vectors at once (the rows of the
    identity unpack into the 12 components), so the matrix carries the same
    coefficients as the equations.  The increment is formed directly, never
    as P - I, because P lies within O(h) of the identity.
    """
    h2 = 0.5 * h
    y = np.eye(12)
    k1 = rhs(0.0, y, spec)
    k2 = rhs(h2, y + h2 * k1, spec)
    k3 = rhs(h2, y + h2 * k2, spec)
    k4 = rhs(h, y + h * k3, spec)
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


def _rotate(z, t, rates) -> np.ndarray:
    """Turn each (re, im) pair of the 12 reals z (..., 12) by t*rate, the rate of its slot.

    t is a scalar or one time per row of z.  Every slot takes cos and sin of
    its own angle, so a slot at rate +-0 turns by exactly +-0: cos 1 and sin
    the signed zero, which keeps the signs of its zeros.
    """
    angle = np.asarray(t, dtype=float)[..., None] * rates
    cos, sin = np.cos(angle), np.sin(angle)
    re, im = z[..., 0::2], z[..., 1::2]
    out = np.empty(angle.shape[:-1] + (12,))
    out[..., 0::2] = cos * re - sin * im
    out[..., 1::2] = sin * re + cos * im
    return out


def integrate(spec: DynamicsSpec) -> TimeSeries:
    """Propagate the amplitude equations with the classical fixed-step RK4 scheme.

    The RK4 step from t_k is R(t_k) P R(t_k)^T for one constant 12x12 step
    matrix P, so in the co-moving frame z = R(t)^T y every step is the same
    matrix Q = R(h)^T P.  Q is raised to the output stride once, in
    increment form (J = Q^s - I), and the samples are filled by doubling:
    with L samples known, one product with (I + J)^L - I gives the next L,
    and squaring it in increment form gives the power for the next round,
    so n samples take about log2(n) products.  An off-stride final sample
    is the last full one advanced by its own power of Q.  The samples are
    then rotated back to the lab frame.  This is the same RK4 solution as
    stepping one step at a time, to rounding.

    Deterministic: identical specs give bit-identical samples.  Raises
    IntegrationDivergedError before any step if a detuning phase over one
    step overflows, or if the step is past the RK4 stability limit: the
    spectral radius rho of Q gives rho^n_steps above `_MAX_GROWTH` (both
    carrying t_start).  After the steps it raises if the state leaves the
    finite range (carrying the last finite sample time), or if the norm
    grows past twice its initial value (carrying the last sample inside
    that bound): Q is not normal, so a bounded rho^n_steps does not by
    itself bound the growth of every state.
    """
    ga, gb, _, da, db = spec.coefficients()
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
        step = _compose(back, _rk4_increment(h, spec))
        if np.isfinite(step).all():  # else the state turns nonfinite, checked below
            rho = float(np.abs(np.linalg.eigvals(np.eye(12) + step)).max())
            growth = np.float64(rho) ** n_steps  # inf, not OverflowError, past the range
            if growth > _MAX_GROWTH:
                raise IntegrationDivergedError(
                    f"step {h!r} is past the RK4 stability limit: the step matrix's spectral "
                    f"radius {rho!r} grows a mode {growth:.3g}-fold over {n_steps} steps, "
                    f"more than the bound {_MAX_GROWTH!r}",
                    t_last=float(t0))

        # every stride-th step before the last, then the last
        ks = np.append(np.arange(0, n_steps, stride), n_steps)
        n_full, rest = divmod(n_steps, stride)
        z = np.empty((len(ks), 12))
        # reshape rejects other than 12 reals
        z[0] = _rotate(np.array(spec.y0, dtype=float).reshape(12), -t0, rates)
        # doubling: with samples 0..lo-1 filled and jump = Q^(lo*stride) - I,
        # one product advances them to samples lo..2lo-1; then jump is squared
        jump = _power(step, stride)
        lo = 1
        while lo <= n_full:
            hi = min(2 * lo, n_full + 1)
            np.matmul(z[:hi - lo], jump.T, out=z[lo:hi])
            z[lo:hi] += z[:hi - lo]
            jump = _compose(jump, jump)
            lo = hi
        if rest:
            z[-1] = z[n_full] + _power(step, rest) @ z[n_full]

        t_arr = t0 + ks * h
        t_arr[0] = t0  # t0 + 0*h would turn a t_start of -0.0 into 0.0
        amplitudes = _rotate(z, t_arr, rates)
        norms = (amplitudes ** 2).sum(axis=1)

    bad = np.flatnonzero(~(norms[1:] < math.inf))
    if bad.size:
        last, first = t_arr[bad[0]], t_arr[bad[0] + 1]
        raise IntegrationDivergedError(
            f"state became nonfinite between t={float(last)!r} and t={float(first)!r}",
            t_last=float(last),
        )
    # inside RK4's stability region this energy-conserving system keeps its
    # norm to within the method's error, so a doubled norm means the step is
    # past the limit
    grown = np.flatnonzero(norms > 2.0 * norms[0])
    if grown.size:
        last, first = t_arr[grown[0] - 1], t_arr[grown[0]]
        raise IntegrationDivergedError(
            f"state norm more than doubled by t={float(first)!r}: step {h!r} is past "
            f"the RK4 stability limit",
            t_last=float(last),
        )
    return TimeSeries(t=t_arr, amplitudes=amplitudes, norm=norms)


def jc_baseline(t, g: float, lam: float = 0.0, delta: float = 0.0, m: int = 0):
    """Closed-form excited population of the detuned two-state (dot + one mode) limit.

    With G = g*exp(-lam/2)*sqrt(m+1) and generalized frequency
    Omega = sqrt(delta^2 + 4 G^2):  P2(t) = 1 - (4 G^2 / Omega^2) sin^2(Omega t / 2).
    Accepts scalar or array t.
    """
    if g < 0.0:
        raise ValueError(f"coupling must be >= 0, got {g!r}")
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
