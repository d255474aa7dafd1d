"""Physical parameters and closed-form phonon/material relations.

All dynamical quantities (mode frequencies, couplings, detunings) are
dimensionless multiples of one reference rate, conventionally the
exciton-fundamental coupling g_a.  Only `gnl_from_material` touches SI
units; it documents its own conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidSpectrumError

__all__ = [
    "ModelParams",
    "MaterialConstants",
    "polaron_shift",
    "huang_rhys",
    "dressed_coupling",
    "detunings",
    "gnl_from_material",
]

# SI constants (CODATA 2022): the vacuum permittivity in F/m, and the reduced
# Planck constant in J s from the exact Planck constant of the 2019 SI
EPSILON_0 = 8.8541878188e-12
HBAR = 6.62607015e-34 / (2 * math.pi)


def _checked(modes) -> list[tuple[float, float]]:
    """(coupling, frequency) pairs as floats, each checked before any term is summed.

    Raises InvalidSpectrumError for a coupling that is not finite or a
    frequency that is not finite and > 0.
    """
    pairs = [(float(c), float(w)) for c, w in modes]
    for coupling, frequency in pairs:
        if not math.isfinite(coupling):
            raise InvalidSpectrumError(f"phonon coupling must be finite, got {coupling!r}")
        if not (math.isfinite(frequency) and frequency > 0.0):
            raise InvalidSpectrumError(f"phonon frequency must be > 0, got {frequency!r}")
    return pairs


def polaron_shift(modes) -> float:
    """Phonon renormalization of the exciton frequency: sum of M_q^2 / w_q over (M_q, w_q)."""
    return sum((c * c / w for c, w in _checked(modes)), 0.0)


def huang_rhys(modes) -> float:
    """Dimensionless exciton-phonon coupling strength: sum of (M_q / w_q)^2 over (M_q, w_q).

    A term past the float range gives inf, as it does in polaron_shift.
    """
    try:
        return sum(((c / w) ** 2 for c, w in _checked(modes)), 0.0)
    except OverflowError:  # float ** raises where float * gives inf
        return math.inf


def dressed_coupling(g: float, lam: float) -> float:
    """Coupling dressed by the zero-temperature phonon displacement mean, g * exp(-lam/2)."""
    if lam < 0.0:
        raise ValueError(f"Huang-Rhys factor must be >= 0, got {lam!r}")
    return g * math.exp(-0.5 * lam)


def detunings(omega_ex: float, omega_a: float, shift: float = 0.0) -> tuple[float, float]:
    """(delta_a, delta_b): the shifted exciton's detunings from the fundamental and its harmonic.

    delta_a = omega_ex - omega_a - shift and delta_b = omega_ex - 2*omega_a - shift;
    their difference equals omega_a to machine precision.
    """
    return omega_ex - omega_a - shift, omega_ex - 2.0 * omega_a - shift


@dataclass(frozen=True)
class ModelParams:
    """The couplings and detunings of the coupled dot-cavity system, as the captions give them.

    delta_a and delta_b are the shifted exciton's detunings from the
    fundamental and its harmonic.  The frequencies follow from them:
    omega_a = delta_a - delta_b, omega_b = 2*omega_a (doubly resonant
    cavity) and the shifted exciton omega_ex = 2*delta_a - delta_b.  They
    may be negative: the detunings place no sign constraint on them.
    """

    g_a: float
    g_b: float
    g_nl: float
    delta_a: float
    delta_b: float
    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError(f"Huang-Rhys factor must be >= 0, got {self.lam!r}")

    @property
    def omega_a(self) -> float:
        return self.delta_a - self.delta_b

    @property
    def omega_b(self) -> float:
        return 2.0 * self.omega_a

    @property
    def omega_ex(self) -> float:
        return 2.0 * self.delta_a - self.delta_b

    def dressed_g_a(self) -> float:
        return dressed_coupling(self.g_a, self.lam)

    def dressed_g_b(self) -> float:
        return dressed_coupling(self.g_b, self.lam)


@dataclass(frozen=True)
class MaterialConstants:
    """SI-unit inputs for the second-order-susceptibility coupling.

    chi2 in m/V, eps_r dimensionless, vol_r in m^3.  vol_r is the effective
    overlap volume defined by the normalized mode profile (1/sqrt(vol_r)
    equals the cubed-profile integral over the nonlinear region); it is an
    input here, never computed.
    """

    chi2: float
    eps_r: float
    vol_r: float

    def __post_init__(self):
        if not self.eps_r > 0.0:
            raise ValueError(f"relative permittivity must be > 0, got {self.eps_r!r}")
        if not self.vol_r > 0.0:
            raise ValueError(f"overlap volume must be > 0, got {self.vol_r!r}")


def gnl_from_material(mat: MaterialConstants, omega_a: float) -> float:
    """Two-mode nonlinear coupling rate from material constants.

    Evaluates eps0 * (hbar*omega_a / (eps0*eps_r))^(3/2) * chi2 / sqrt(vol_r),
    divided by hbar, with eps0 the vacuum permittivity.  With SI inputs
    (omega_a in rad/s) the result is in rad/s; the dynamics modules expect it
    rescaled by the caller's reference rate.  Linear in chi2, scales as
    omega_a^(3/2) and vol_r^(-1/2).
    """
    if not omega_a > 0.0:
        raise ValueError(f"mode frequency must be > 0, got {omega_a!r}")
    photon_energy_term = (HBAR * omega_a / (EPSILON_0 * mat.eps_r)) ** 1.5
    return EPSILON_0 * photon_energy_term * mat.chi2 / math.sqrt(mat.vol_r) / HBAR
