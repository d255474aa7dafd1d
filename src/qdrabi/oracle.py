"""Brute-force validator on a truncated Fock basis.

Builds the transformed Hamiltonian on |s, m, n> product states (dot level,
fundamental photons, second-harmonic photons), propagates exactly by
spectral decomposition, and rotates into the interaction picture so the
result is directly comparable to the six-amplitude integrator; that
rotation takes its free phases exp(+i E0 t) one per sample and manifold
state, as the formula reads.  Every matrix element is real, so the
Hamiltonian is real symmetric and the eigensolver is the real one; only the
six manifold components of the evolved state are ever formed.

The phases exp(-iEt) are not evaluated sample by sample.  The samples of a
trajectory lie on a uniform lattice, so `propagate` splits each sample time
into a block anchor plus an in-block offset and multiplies two small tables
of exponentials, about sqrt(samples) rows each; one matrix product then
gives the six components at every sample.  A sample off the lattice (an
off-stride final sample, irregular times, a phase that overflows) is
evaluated directly, so any times give the same result as the per-sample
exponentials, to rounding.

Most eigenmodes of a full-mode matrix barely reach the manifold: a shell k
quanta above it couples to it only through k steps.  In full mode
`propagate` skips a mode whose weight on every component is at most eps/dim
of that component's largest weight, so each component loses at most eps
times its largest term, below the rounding of its own sum; at the cutoffs
(16, 16) about two thirds of the modes go.  A non-finite weight keeps every
mode, and so does restricted mode, whose six states are the whole basis.

Both modes assemble the matrix from the same ladder-operator elements on an
explicit list of basis states.  Restricted mode works on the six manifold
states alone, reproducing the truncation behind the amplitude equations
exactly, and takes no cutoffs.  Full mode takes every state the cutoffs
allow, so the probability that leaks out of the manifold measures the
truncation error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import ManifoldAmplitudes, ManifoldIndex, TimeSeries
from .errors import ConfigError, GridMismatchError
from .model import ModelParams

__all__ = [
    "BasisState",
    "FockOperatorMatrix",
    "OracleResult",
    "MAX_FULL_CUTOFF",
    "basis_states",
    "basis_index",
    "manifold_states",
    "resolve_cutoffs",
    "build_hamiltonian",
    "propagate",
    "to_interaction_picture",
    "run_oracle",
    "compare",
]

MAX_FULL_CUTOFF = 16

# largest phase error, in radians, a lattice sample may carry before it is
# propagated on its own
_LATTICE_PHASE_TOL = 1e-13


class BasisState(NamedTuple):
    """Product state |s, m, n>: dot level (1 or 2) and the two photon numbers."""

    s: int
    m: int
    n: int


def basis_states(n_a: int, n_b: int) -> list[BasisState]:
    """Total ordered enumeration: s-major, then m, then n."""
    return list(map(BasisState._make, itertools.product((1, 2), range(n_a + 1), range(n_b + 1))))


def basis_index(s: int, m: int, n: int, n_a: int, n_b: int) -> int:
    """Position of |s, m, n> in the basis_states ordering."""
    return (s - 1) * (n_a + 1) * (n_b + 1) + m * (n_b + 1) + n


def manifold_states(index: ManifoldIndex) -> tuple[BasisState, ...]:
    """The six states around |2, m, n>, ordered to match the amplitude layout a..f."""
    m, n = index.m, index.n
    return (
        BasisState(2, m + 2, n),
        BasisState(2, m, n + 1),
        BasisState(1, m, n + 1),
        BasisState(2, m, n),
        BasisState(1, m + 2, n),
        BasisState(1, m + 1, n),
    )


def resolve_cutoffs(index: ManifoldIndex, n_a: int | None = None,
                    n_b: int | None = None) -> tuple[int, int]:
    """The full-mode photon cutoffs (n_a, n_b) around `index`, checked.

    The cutoffs must leave two quanta of headroom beyond the manifold in each
    mode (n_a >= m+4, n_b >= n+3) and are capped at MAX_FULL_CUTOFF.  A None
    cutoff takes the smallest value the headroom allows.  Raises ConfigError
    for cutoffs that break a rule.
    """
    need_a, need_b = index.m + 4, index.n + 3
    n_a = need_a if n_a is None else n_a
    n_b = need_b if n_b is None else n_b
    if n_a < need_a or n_b < need_b:
        raise ConfigError(
            f"full mode needs two quanta of headroom beyond the manifold: "
            f"cutoffs ({n_a}, {n_b}) < ({need_a}, {need_b})"
        )
    if n_a > MAX_FULL_CUTOFF or n_b > MAX_FULL_CUTOFF:
        raise ConfigError(
            f"full-mode cutoffs are capped at {MAX_FULL_CUTOFF}, got ({n_a}, {n_b})"
        )
    return n_a, n_b


@dataclass(frozen=True)
class FockOperatorMatrix:
    """Dense real symmetric Hamiltonian and the basis states that index its rows.

    `manifold` holds the rows of the six manifold_states(index), in
    amplitude order a..f.
    """

    matrix: np.ndarray
    states: list[BasisState]
    manifold: np.ndarray


def _quanta(states) -> np.ndarray:
    """The (s, m, n) of each basis state, as the three rows of an int array."""
    flat = itertools.chain.from_iterable(states)
    return np.fromiter(flat, dtype=np.int64, count=3 * len(states)).reshape(-1, 3).T


def _free_energies(params: ModelParams, s, m, n) -> np.ndarray:
    """Diagonal of the uncoupled Hamiltonian; the shifted exciton level sits on s=2 only."""
    return params.omega_a * m + params.omega_b * n + params.omega_ex * (s - 1)


def _row_table(s, m, n):
    """A lookup from (s, m, n) arrays to the rows of those states, -1 where absent.

    The table spans the states' photon numbers plus the steps the ladder
    terms take beyond them (m + 2, n - 1 and n + 1), so no lookup wraps.
    """
    m0, n0 = m.min(), n.min()
    table = np.full((2, m.max() - m0 + 3, n.max() - n0 + 3), -1)
    table[s - 1, m - m0, n - n0 + 1] = np.arange(len(s))
    return lambda s, m, n: table[s - 1, m - m0, n - n0 + 1]


def build_hamiltonian(
    params: ModelParams,
    n_a: int | None = None,
    n_b: int | None = None,
    mode: str = "full",
    index: ManifoldIndex = ManifoldIndex(),
) -> FockOperatorMatrix:
    """Assemble the transformed Hamiltonian with the phonon operator at its mean exp(-lam/2).

    Full mode works on basis_states(n_a, n_b), with the cutoffs checked by
    resolve_cutoffs, so None takes the smallest valid one.  Restricted mode
    ignores the cutoffs and works on the six manifold_states(index) in
    amplitude order, so its matrix is the 6x6 manifold block of the full one.
    Free energies, dressed couplings and ladder square roots are all real, so
    the matrix is float64 and exactly symmetric by construction.  An element
    that overflows is inf (and an inf energy times no quanta nan), silently.
    """
    six = manifold_states(index)
    if mode == "full":
        states = basis_states(*resolve_cutoffs(index, n_a, n_b))
    elif mode == "restricted":
        states = list(six)
    else:
        raise ConfigError(f"oracle mode must be 'restricted' or 'full', got {mode!r}")

    s, m, n = _quanta(states)
    rows = _row_table(s, m, n)
    ga, gb, g_nl = params.dressed_g_a(), params.dressed_g_b(), params.g_nl
    # the photon product as an exact integer, as math.sqrt takes it; object
    # ints where int64 would wrap (restricted mode far up the ladder)
    wide = int(n.max()) * (int(m.max()) + 1) * (int(m.max()) + 2) >= 2**63
    nm = n.astype(object) if wide else n
    upper = np.flatnonzero(s == 2)
    mu, nu = m[upper], n[upper]
    with np.errstate(over="ignore", invalid="ignore"):
        ham = np.diag(_free_energies(params, s, m, n))
        # (rows, partner rows with more photons, element), one per ladder term:
        # sigma+ a + h.c.      |2,m,n> <-> |1,m+1,n>,   element sqrt(m+1)
        # sigma+ b + h.c.      |2,m,n> <-> |1,m,n+1>,   element sqrt(n+1)
        # b (a^dag)^2 + h.c.   |s,m,n> <-> |s,m+2,n-1>, element sqrt(n(m+1)(m+2))
        terms = (
            (upper, rows(1, mu + 1, nu), ga * np.sqrt(mu + 1)),
            (upper, rows(1, mu, nu + 1), gb * np.sqrt(nu + 1)),
            (np.arange(len(s)), rows(s, m + 2, n - 1),
             g_nl * np.sqrt((nm * (m + 1) * (m + 2)).astype(float))),
        )
        for i, j, value in terms:
            found = j >= 0
            i, j = i[found], j[found]
            ham[i, j] = ham[j, i] = value[found]

    return FockOperatorMatrix(matrix=ham, states=states, manifold=rows(*_quanta(six)))


def _sample_lattice(times, scale: float):
    """Spacing of the uniform lattice through the samples, and the mask of samples on it.

    The lattice starts at the first sample.  Its spacing comes from the
    endpoints of the lattice samples: the last sample, or the one before it
    when the last is off-stride, whichever puts more samples on the lattice.
    Sample k is on the lattice when t0 + k*spacing lies within
    _LATTICE_PHASE_TOL / scale of it and its largest phase, scale*|t|, is finite.
    """
    n = len(times)
    k = np.arange(n)
    finite = np.abs(times) * scale < math.inf

    def on_lattice(spacing):
        return finite & (np.abs(times[0] + k * spacing - times) * scale <= _LATTICE_PHASE_TOL)

    spacings = [(times[last] - times[0]) / last for last in (n - 1, n - 2) if last >= 1]
    return max(((s, on_lattice(s)) for s in spacings or [0.0]), key=lambda pair: pair[1].sum())


def propagate(ham, psi0, times, components) -> np.ndarray:
    """Evolve psi0 under a time-independent Hermitian matrix, one row per time.

    Spectral decomposition is done once; each time is a phase rotation in the
    eigenbasis, so the evolution is unitary to eigensolver accuracy and the
    norm of psi0 is preserved.  A real symmetric matrix takes the real
    eigensolver.  Only the basis components listed in `components` are
    formed, in that order; passing every index gives the full state, and
    passing none gives an (n, 0) array.

    When the components are fewer than the basis states (the manifold inside
    a full-mode basis), only the eigenmodes that reach them are propagated.
    The weights are each eigen-coefficient times the mode's component rows;
    a mode is skipped when, on every component, its |weight| is at most
    eps/dim of that component's largest |weight|.  The dim terms of a
    component then lose at most eps times its largest term, which is below
    the rounding of their sum.  A non-finite weight keeps every mode, so a
    nan in psi0 still gives non-finite components; a psi0 that keeps no mode
    (all zeros) gives zeros.  Components that span the basis (restricted
    mode's six states) reach every mode, and all are kept.  Everything below
    runs on the K kept modes, the lattice's phase scale included.

    The phases are factorised over the uniform sample lattice: with block
    length B ~ sqrt(n), sample k = j*B + i sits at t0 + j*B*spacing +
    i*spacing, so exp(-iEt) is the product of a row of a B x K table of
    in-block offsets and a row of a ceil(n/B) x K table of block anchors.
    About 2*sqrt(n)*K exponentials replace n*K.  The anchors are folded
    into the weights (a K x ceil(n/B)*len(components) temporary), so one
    matrix product gives every sample.  A sample off the lattice (irregular
    times, an off-stride final sample, a phase that is not finite) gets its own
    exponentials instead, so it comes out as the per-sample formula gives
    it, non-finite where that is.  A matrix with an entry that is not
    finite (an energy that overflowed) has no eigenbasis, so every
    component comes out nan.
    """
    matrix = np.asarray(ham)
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    if not np.isfinite(matrix).all():
        return np.full((len(times), len(components)), np.nan, dtype=complex)
    try:
        energies, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(matrix).max()) if matrix.size else 0.0
        raise RuntimeError(
            f"eigendecomposition failed for a {matrix.shape[0]}x{matrix.shape[1]} "
            f"matrix with max |entry| {scale:.3e}: {exc}"
        ) from exc
    nz = np.flatnonzero(psi0)  # only psi0's nonzero entries: a real `vectors` stays real
    coeffs = vectors[nz].conj().T @ psi0[nz]
    weights = coeffs[:, None] * vectors[components].T  # dim x c: coefficient times component row
    n, c = len(times), weights.shape[1]
    if c < len(energies):  # components spanning the basis reach every mode
        magnitude = np.abs(weights)
        if np.isfinite(magnitude).all():  # nan compares false, so it would drop every mode
            cut = magnitude.max(axis=0, initial=0.0) * (np.finfo(float).eps / len(energies))
            kept = (magnitude > cut).any(axis=1)
            energies, weights = energies[kept], weights[kept]

    if n == 0:
        return np.empty((0, c), dtype=complex)
    scale = float(np.abs(energies).max(initial=0.0))
    spacing, on_lattice = _sample_lattice(times, scale)
    block = math.isqrt(n - 1) + 1
    offsets = np.exp(-1j * np.outer(np.arange(block) * spacing, energies))
    anchors = np.exp(-1j * np.outer(times[0] + np.arange(0, n, block) * spacing, energies))
    blocks = len(anchors)
    # anchors folded into the weights, modes x (blocks * c): one product for every sample
    folded = (anchors.T[:, :, None] * weights[:, None, :]).reshape(len(energies), blocks * c)
    out = (offsets @ folded).reshape(block, blocks, c).transpose(1, 0, 2)
    out = out.reshape(blocks * block, c)[:n]
    off = np.flatnonzero(~on_lattice)
    for first in range(0, off.size, block):
        chunk = off[first:first + block]
        out[chunk] = np.exp(-1j * np.outer(times[chunk], energies)) @ weights
    return out


def to_interaction_picture(psi_t, times, params: ModelParams, states) -> np.ndarray:
    """Slowly varying amplitudes: column k gains exp(+i E0 t), E0 the free energy of states[k].

    One exponential per sample and column, as the formula reads.
    """
    e0 = _free_energies(params, *_quanta(states))
    return np.exp(1j * np.outer(times, e0)) * psi_t


@dataclass
class OracleResult(TimeSeries):
    """Manifold-projected oracle trajectory, its leakage, and the Hamiltonian used."""

    leakage: np.ndarray
    hamiltonian: FockOperatorMatrix

    def max_leakage(self) -> float:
        """Largest leakage over the samples; nan when there are none."""
        return float(self.leakage.max()) if self.leakage.size else math.nan


def run_oracle(
    params: ModelParams,
    times,
    index: ManifoldIndex = ManifoldIndex(),
    y0=None,
    mode: str = "restricted",
    cutoffs: tuple[int, int] | None = None,
) -> OracleResult:
    """Propagate the truncated-basis Hamiltonian and project onto the manifold.

    y0 holds the interaction-picture amplitudes at the first sample time t0
    as 12 reals in AMPLITUDE_COLUMNS order, as the integrator takes them
    (None is the excited dot, unit("d")), so the state at t0 carries the
    free phases exp(-i E0 t0) and is propagated over times - t0.  Only the
    six manifold components are propagated.  The norm is that of the
    initial state, which the evolution keeps, and the leakage is the norm
    minus the probability inside the manifold.
    """
    if y0 is None:
        y0 = ManifoldAmplitudes.unit("d")
    ham = build_hamiltonian(params, *(cutoffs or (None, None)), mode=mode, index=index)
    times = np.asarray(times, dtype=float)
    t0 = times[0] if len(times) else 0.0

    six = manifold_states(index)
    slots = ham.manifold
    psi0 = np.zeros(len(ham.states), dtype=complex)
    # the (re, im) pairs read as complex; reshape rejects other than 12 reals
    psi0[slots] = np.array(y0, dtype=float).view(complex).reshape(6)

    # phases that overflow give nan amplitudes, which the caller reports as a
    # non-finite result; numpy's warnings about them would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        if t0 != 0.0:  # at t0 = 0 psi0 is y0 itself, signs of zero included
            psi0[slots] *= np.exp(-1j * _free_energies(params, *_quanta(six)) * t0)
        psi_t = propagate(ham.matrix, psi0, times - t0, slots)
        # unitary evolution keeps the norm of psi0; the eigenvector matrix is
        # unitary, so it equals the sum of |eigen-coefficient|^2 as well
        norm = np.full(len(psi_t), float(np.vdot(psi0, psi0).real))
        inside = (np.abs(psi_t) ** 2).sum(axis=1)
        amps_c = to_interaction_picture(psi_t, times, params, six)

    # each complex amplitude read as its (re, im) pair of columns
    return OracleResult(t=times, amplitudes=amps_c.view(float), norm=norm, leakage=norm - inside,
                        hamiltonian=ham)


def compare(oracle: OracleResult, ode: TimeSeries) -> float:
    """Largest componentwise amplitude difference; demands identical time grids.

    nan when there are no samples to compare.
    """
    if len(oracle.t) != len(ode.t) or not np.array_equal(oracle.t, ode.t):
        raise GridMismatchError(
            f"time grids differ ({len(oracle.t)} vs {len(ode.t)} samples)"
        )
    difference = np.abs(oracle.amplitudes - ode.amplitudes)
    return float(difference.max()) if difference.size else math.nan
