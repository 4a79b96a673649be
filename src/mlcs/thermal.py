"""Thermal expectation machinery over the deformed number basis: partition
functions for linear and near-linear quadratic spectra, the Husimi Q
representation of the Gibbs state, and its diagonal P representation.

Spectra are given directly by their coefficients:

    LinearSpectrum(slope)      E_n = slope * n
    QuadraticSpectrum(a, b)    E_n = a * n + b * n**2

with constructors recovering both from the ladder structure values in the
regimes where those degenerate to straight or quadratic growth.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coherent import CSLabel, cs_build
from .errors import ConvergenceError, DomainError
from .kcore import MLParams, _require_positive
from .measure import meijer_g_weight
from .mlfunc import SeriesResult, _ml_sum

__all__ = [
    "LinearSpectrum",
    "QuadraticSpectrum",
    "ThermalConfig",
    "partition_linear",
    "partition_quadratic",
    "partition_quadratic_direct",
    "ansatz_error_curve",
    "husimi_q",
    "husimi_q_fock",
    "p_function",
]


@dataclass(frozen=True)
class LinearSpectrum:
    """Equally spaced levels E_n = slope * n."""

    slope: float

    def __post_init__(self):
        _require_positive(self.slope, "slope")

    def energy(self, n: int) -> float:
        return self.slope * n

    @classmethod
    def from_params(cls, params: MLParams) -> "LinearSpectrum":
        """Slope beta/gamma, the level spacing the ladder structure gives when
        its n-dependence cancels (alpha and k formally zero)."""
        return cls(params.beta / params.gamma)


@dataclass(frozen=True)
class QuadraticSpectrum:
    """Levels E_n = a_lin * n + b_quad * n**2."""

    a_lin: float
    b_quad: float

    def __post_init__(self):
        for name in ("a_lin", "b_quad"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"{name} must be finite, got {v!r}")

    def energy(self, n: int) -> float:
        return self.a_lin * n + self.b_quad * n * n

    @classmethod
    def from_params(cls, params: MLParams) -> "QuadraticSpectrum":
        """Conventional near-linear split at formally vanishing k:
        a = (beta/gamma)(1 - alpha), b = (beta/gamma) alpha (needs alpha < 1
        for a positive linear part)."""
        scale = params.beta / params.gamma
        return cls(scale * (1.0 - params.alpha), scale * params.alpha)


@dataclass(frozen=True)
class ThermalConfig:
    """Inverse temperature, spectrum, and the resummation depth J."""

    beta_b: float
    spectrum: LinearSpectrum | QuadraticSpectrum
    ansatz_terms: int = 8

    def __post_init__(self):
        _require_positive(self.beta_b, "beta_b")
        if not isinstance(self.spectrum, (LinearSpectrum, QuadraticSpectrum)):
            raise DomainError("spectrum must be a LinearSpectrum or QuadraticSpectrum")
        if not (isinstance(self.ansatz_terms, int) and self.ansatz_terms >= 0):
            raise DomainError(f"ansatz_terms must be an integer >= 0, got {self.ansatz_terms!r}")


def partition_linear(cfg: ThermalConfig) -> float:
    """Geometric-series partition function 1 / (1 - exp(-beta_b * slope));
    OverflowError where it exceeds float64 (beta_b * slope below ~1e-308)."""
    if not isinstance(cfg.spectrum, LinearSpectrum):
        raise DomainError("partition_linear needs a LinearSpectrum")
    gap = -math.expm1(-cfg.beta_b * cfg.spectrum.slope)
    if gap <= 1.0 / sys.float_info.max:
        raise OverflowError("partition function exceeds float64 range at beta_b * slope"
                            f" = {cfg.beta_b * cfg.spectrum.slope!r}")
    return 1.0 / gap


def _bose_power_sum(m: int, y: float) -> float:
    """S_m(y) = sum_{n>=0} n**m exp(-n y), summed until terms stop mattering."""
    if y <= 0.0:
        raise DomainError(f"need y > 0, got {y}")
    total = 1.0 if m == 0 else 0.0
    n = 1
    peak = m / y
    while True:
        term = math.exp(m * math.log(n) - n * y) if m else math.exp(-n * y)
        total += term
        if n > peak and term <= 1e-18 * total:
            return total
        n += 1
        if n > 10_000_000:
            raise ConvergenceError(f"power sum S_{m}({y}) did not settle")


def partition_quadratic_direct(cfg: ThermalConfig) -> float:
    """Direct Boltzmann sum over the quadratic spectrum (the oracle route)."""
    if not isinstance(cfg.spectrum, QuadraticSpectrum):
        raise DomainError("needs a QuadraticSpectrum")
    sp = cfg.spectrum
    if sp.b_quad < 0.0 or (sp.b_quad == 0.0 and sp.a_lin <= 0.0):
        raise DomainError("spectrum must grow; direct sum diverges")
    total = 0.0
    for n in range(10_000_000):
        term = math.exp(-cfg.beta_b * sp.energy(n))
        total += term
        if n > 0 and term <= 1e-18 * total:
            return total
    raise ConvergenceError("direct Boltzmann sum did not settle")


def partition_quadratic(cfg: ThermalConfig, rel_tol: float = 1e-5) -> SeriesResult:
    """Resummation ansatz for the quadratic spectrum:

        Z ~= sum_{j=0..J} (-beta_b * b)**j / j! * S_{2j}(beta_b * a)

    The expansion is asymptotic in beta_b * b, not convergent: tail_bound
    reports the relative deviation from the direct-sum oracle and converged
    states whether that deviation met rel_tol.
    """
    if not isinstance(cfg.spectrum, QuadraticSpectrum):
        raise DomainError("needs a QuadraticSpectrum")
    sp = cfg.spectrum
    if sp.a_lin <= 0.0:
        raise DomainError("linear coefficient must be positive")
    if sp.b_quad < 0.0:
        raise DomainError("quadratic coefficient must be >= 0")
    total = _ansatz_sums(cfg, cfg.ansatz_terms)[-1]
    oracle = partition_quadratic_direct(cfg)
    deviation = abs(total - oracle) / abs(oracle)
    return SeriesResult(total, cfg.ansatz_terms + 1, deviation, deviation <= rel_tol)


def ansatz_error_curve(cfg: ThermalConfig, j_max: int) -> list[float]:
    """Relative error of the ansatz against the direct sum for J = 0..j_max;
    the asymptotic character shows as a minimum followed by growth."""
    if j_max < 0:
        raise DomainError(f"j_max must be >= 0, got {j_max!r}")
    oracle = partition_quadratic_direct(cfg)
    return [abs(total - oracle) / abs(oracle) for total in _ansatz_sums(cfg, j_max)]


def _ansatz_sums(cfg: ThermalConfig, j_max: int) -> list[float]:
    """Partial sums of the resummation ansatz for J = 0..j_max."""
    sp = cfg.spectrum
    y = cfg.beta_b * sp.a_lin
    coeff = 1.0
    total = 0.0
    sums = []
    for j in range(j_max + 1):
        if j > 0:
            coeff *= -cfg.beta_b * sp.b_quad / j
        total += coeff * _bose_power_sum(2 * j, y)
        sums.append(total)
    return sums


def _require_linear(cfg: ThermalConfig) -> float:
    if not isinstance(cfg.spectrum, LinearSpectrum):
        raise DomainError("thermal phase-space functions need a LinearSpectrum")
    return cfg.spectrum.slope


def husimi_q(z: CSLabel, params: MLParams, cfg: ThermalConfig) -> float:
    """Husimi function of the Gibbs state at phase-space point z:

        Q(|z|^2) = (1/Z) E(exp(-beta_b * slope) |z|^2) / E(|z|^2)

    The two sums are divided in their power-of-two scaled form, so Q stays
    finite where E(|z|^2) itself leaves float64.
    """
    slope = _require_linear(cfg)
    x = z.modulus ** 2
    zpart = partition_linear(cfg)
    num, num_exp, _, _, num_ok = _ml_sum(params, math.exp(-cfg.beta_b * slope) * x)
    den, den_exp, _, _, den_ok = _ml_sum(params, x)
    if not (num_ok and den_ok):
        raise ConvergenceError("Husimi series did not converge")
    return math.ldexp(num / den, num_exp - den_exp) / zpart


def husimi_q_fock(z: CSLabel, params: MLParams, cfg: ThermalConfig) -> float:
    """Cross-check route: (1/Z) sum_n exp(-beta_b E_n) p_n over the photon
    distribution of z."""
    slope = _require_linear(cfg)
    state = cs_build(z, params)
    boltzmann = np.exp(-cfg.beta_b * slope * np.arange(state.coeffs.size))
    return float(np.dot(boltzmann, np.abs(state.coeffs) ** 2)) / partition_linear(cfg)


def p_function(z: CSLabel, params: MLParams, cfg: ThermalConfig) -> float:
    """Diagonal (P) weight of the Gibbs state:

        P(|z|^2) = (1/Z) exp(beta_b * slope)
                   * G((k/alpha) exp(beta_b * slope) |z|^2) / G((k/alpha) |z|^2)

    Both kernels come from one call on the pair of arguments.  Underflow of
    the denominator kernel is reported as a DomainError rather than returned
    as inf.
    """
    slope = _require_linear(cfg)
    x = z.modulus ** 2
    boost = math.exp(cfg.beta_b * slope)
    den, num = meijer_g_weight(params, np.array([x, boost * x])).tolist()
    if den == 0.0 or not math.isfinite(den):
        raise DomainError(
            f"kernel denominator is {den} at |z|^2 = {x}; P is not evaluable there"
        )
    return boost * num / den / partition_linear(cfg)
