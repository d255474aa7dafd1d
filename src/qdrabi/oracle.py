"""Brute-force validator on a truncated Fock basis.

Builds the transformed Hamiltonian on |s, m, n> product states (dot level,
fundamental photons, second-harmonic photons), propagates exactly by
spectral decomposition, and rotates into the interaction picture so the
result is directly comparable to the six-amplitude integrator.  Every
matrix element is real, so the Hamiltonian is real symmetric and the
eigensolver is the real one; only the six manifold components of the
evolved state are ever formed.

Both modes assemble the matrix from the same ladder-operator elements on an
explicit list of basis states.  Restricted mode works on the six manifold
states alone, reproducing the truncation behind the amplitude equations
exactly; its cutoffs are only validated.  Full mode takes every state the
cutoffs allow, so the probability that leaks out of the manifold measures
the truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "default_cutoffs",
    "check_cutoffs",
    "build_hamiltonian",
    "propagate",
    "to_interaction_picture",
    "run_oracle",
    "compare",
]

MAX_FULL_CUTOFF = 16


@dataclass(frozen=True)
class BasisState:
    """Product state |s, m, n>: dot level (1 or 2) and the two photon numbers."""

    s: int
    m: int
    n: int

    def __post_init__(self):
        if self.s not in (1, 2):
            raise ValueError(f"dot level must be 1 or 2, got {self.s}")
        if self.m < 0 or self.n < 0:
            raise ValueError(f"photon numbers must be >= 0, got m={self.m}, n={self.n}")


def basis_states(n_a: int, n_b: int) -> list[BasisState]:
    """Total ordered enumeration: s-major, then m, then n."""
    return [
        BasisState(s, m, n)
        for s in (1, 2)
        for m in range(n_a + 1)
        for n in range(n_b + 1)
    ]


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


def default_cutoffs(index: ManifoldIndex, mode: str) -> tuple[int, int]:
    """Smallest cutoffs valid for the mode: tight for restricted, +2 margin for full."""
    if mode == "restricted":
        return index.m + 2, index.n + 1
    return index.m + 4, index.n + 3


def check_cutoffs(n_a: int, n_b: int, mode: str, index: ManifoldIndex) -> None:
    """Raise ConfigError unless the photon cutoffs suit the mode around `index`.

    Cutoffs must contain the manifold (n_a >= m+2, n_b >= n+1); full mode
    additionally demands two quanta of headroom in each mode and caps the
    cutoffs at MAX_FULL_CUTOFF.
    """
    need_a, need_b = index.m + 2, index.n + 1
    if n_a < need_a or n_b < need_b:
        raise ConfigError(
            f"cutoffs ({n_a}, {n_b}) cannot contain the (m={index.m}, n={index.n}) "
            f"manifold; need at least ({need_a}, {need_b})"
        )
    if mode == "full":
        if n_a < need_a + 2 or n_b < need_b + 2:
            raise ConfigError(
                f"full mode needs two quanta of headroom beyond the manifold: "
                f"cutoffs ({n_a}, {n_b}) < ({need_a + 2}, {need_b + 2})"
            )
        if n_a > MAX_FULL_CUTOFF or n_b > MAX_FULL_CUTOFF:
            raise ConfigError(
                f"full-mode cutoffs are capped at {MAX_FULL_CUTOFF}, got ({n_a}, {n_b})"
            )


@dataclass(frozen=True)
class FockOperatorMatrix:
    """Dense real symmetric Hamiltonian and the basis states that index its rows."""

    matrix: np.ndarray
    states: list[BasisState]


def _free_energies(params: ModelParams, states) -> np.ndarray:
    """Diagonal of the uncoupled Hamiltonian; the shifted exciton level sits on s=2 only."""
    level = params.omega_ex - params.shift
    return np.array([params.omega_a * st.m + params.omega_b * st.n + level * (st.s - 1)
                     for st in states])


def build_hamiltonian(
    params: ModelParams,
    n_a: int,
    n_b: int,
    mode: str = "full",
    index: ManifoldIndex = ManifoldIndex(),
) -> FockOperatorMatrix:
    """Assemble the transformed Hamiltonian with the phonon operator at its mean exp(-lam/2).

    The cutoffs must pass check_cutoffs.  Full mode works on
    basis_states(n_a, n_b), restricted mode on the six manifold_states(index)
    in amplitude order, so its matrix is the 6x6 manifold block of the full
    one.  Free energies, dressed couplings and ladder square roots are all
    real, so the matrix is float64 and exactly symmetric by construction.
    """
    if mode not in ("restricted", "full"):
        raise ConfigError(f"oracle mode must be 'restricted' or 'full', got {mode!r}")
    check_cutoffs(n_a, n_b, mode, index)
    if mode == "full":
        states = basis_states(n_a, n_b)
    else:
        states = list(manifold_states(index))

    position = {(st.s, st.m, st.n): i for i, st in enumerate(states)}
    ham = np.diag(_free_energies(params, states))
    ga, gb, g_nl = params.dressed_g_a(), params.dressed_g_b(), params.g_nl
    for (s, m, n), i in position.items():
        # partners with more photons, one per ladder term:
        # sigma+ a + h.c.      |2,m,n> <-> |1,m+1,n>,   element sqrt(m+1)
        # sigma+ b + h.c.      |2,m,n> <-> |1,m,n+1>,   element sqrt(n+1)
        # b (a^dag)^2 + h.c.   |s,m,n> <-> |s,m+2,n-1>, element sqrt(n(m+1)(m+2))
        partners = [((1, m + 1, n), ga * math.sqrt(m + 1)),
                    ((1, m, n + 1), gb * math.sqrt(n + 1))] if s == 2 else []
        if n > 0:
            partners.append(((s, m + 2, n - 1), g_nl * math.sqrt(n * (m + 1) * (m + 2))))
        for partner, value in partners:
            j = position.get(partner)
            if j is not None:
                ham[i, j] = ham[j, i] = value

    return FockOperatorMatrix(matrix=ham, states=states)


def propagate(ham, psi0, times, components=None) -> np.ndarray:
    """Evolve psi0 under a time-independent Hermitian matrix, one row per time.

    Spectral decomposition is done once; each time is a phase rotation in the
    eigenbasis, so the evolution is unitary to eigensolver accuracy and the
    norm of psi0 is preserved.  A real symmetric matrix takes the real
    eigensolver.  Only the basis components listed in `components` are
    formed, in that order; None forms all of them.
    """
    matrix = np.asarray(ham)
    psi0 = np.asarray(psi0, dtype=complex)
    times = np.asarray(times, dtype=float)
    try:
        energies, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        scale = float(np.abs(matrix).max()) if matrix.size else 0.0
        raise RuntimeError(
            f"eigendecomposition failed for a {matrix.shape[0]}x{matrix.shape[1]} "
            f"matrix with max |entry| {scale:.3e}: {exc}"
        ) from exc
    coeffs = vectors.conj().T @ psi0
    phases = np.exp(-1j * np.outer(times, energies))
    rows = vectors if components is None else vectors[components]
    return (phases * coeffs) @ rows.T


def to_interaction_picture(psi_t, times, params: ModelParams, states) -> np.ndarray:
    """Slowly varying amplitudes: column k gains exp(+i E0 t), E0 the free energy of states[k]."""
    e0 = _free_energies(params, states)
    times = np.asarray(times, dtype=float)
    return np.exp(1j * np.outer(times, e0)) * psi_t


@dataclass
class OracleResult:
    """Manifold-projected oracle trajectory, its leakage, and the Hamiltonian used."""

    t: np.ndarray
    amplitudes: np.ndarray
    p2: np.ndarray
    norm: np.ndarray
    leakage: np.ndarray
    hamiltonian: FockOperatorMatrix

    def max_leakage(self) -> float:
        return float(self.leakage.max())


def run_oracle(
    params: ModelParams,
    times,
    index: ManifoldIndex = ManifoldIndex(),
    y0: ManifoldAmplitudes | None = None,
    mode: str = "restricted",
    cutoffs: tuple[int, int] | None = None,
) -> OracleResult:
    """Propagate the truncated-basis Hamiltonian and project onto the manifold.

    Only the six manifold components are propagated.  The norm is that of
    the initial state, which the evolution keeps, and the leakage is the
    norm minus the probability inside the manifold.
    """
    if y0 is None:
        y0 = ManifoldAmplitudes.unit("d")
    n_a, n_b = cutoffs if cutoffs is not None else default_cutoffs(index, mode)
    ham = build_hamiltonian(params, n_a, n_b, mode=mode, index=index)

    six = manifold_states(index)
    slots = [ham.states.index(st) for st in six]
    psi0 = np.zeros(len(ham.states), dtype=complex)
    y0_flat = y0.as_tuple()
    for k, slot in enumerate(slots):
        psi0[slot] = complex(y0_flat[2 * k], y0_flat[2 * k + 1])

    # phases that overflow give nan amplitudes, which the caller reports as a
    # non-finite result; numpy's warnings about them would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        psi_t = propagate(ham.matrix, psi0, times, slots)
        # unitary evolution keeps the norm of psi0; the eigenvector matrix is
        # unitary, so it equals the sum of |eigen-coefficient|^2 as well
        norm = np.full(len(psi_t), float(np.vdot(psi0, psi0).real))
        inside = (np.abs(psi_t) ** 2).sum(axis=1)
        amps_c = to_interaction_picture(psi_t, times, params, six)

    amplitudes = np.empty((len(amps_c), 12))
    amplitudes[:, 0::2] = amps_c.real
    amplitudes[:, 1::2] = amps_c.imag
    p2 = amplitudes[:, 6] ** 2 + amplitudes[:, 7] ** 2
    return OracleResult(t=np.asarray(times, dtype=float), amplitudes=amplitudes, p2=p2,
                        norm=norm, leakage=norm - inside, hamiltonian=ham)


def compare(oracle: OracleResult, ode: TimeSeries) -> float:
    """Largest componentwise amplitude difference; demands identical time grids."""
    if len(oracle.t) != len(ode.t) or not np.array_equal(oracle.t, ode.t):
        raise GridMismatchError(
            f"time grids differ ({len(oracle.t)} vs {len(ode.t)} samples)"
        )
    return float(np.abs(oracle.amplitudes - ode.amplitudes).max())
