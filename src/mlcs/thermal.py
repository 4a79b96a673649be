"""Thermal expectation machinery over the deformed number basis: partition
functions for linear and near-linear quadratic spectra, the Husimi Q
representation of the Gibbs state, and its diagonal P representation.

Spectra are given directly by their coefficients:

    LinearSpectrum(slope)      E_n = slope * n
    QuadraticSpectrum(a, b)    E_n = a * n + b * n**2

with constructors recovering both from the ladder structure values in the
regimes where those degenerate to straight or quadratic growth.

The quadratic spectrum's two partition routes are numpy passes over blocks
of n.  The resummation forms every Bose power sum S_m(y) = sum_n n**m e**-ny
it needs in (orders, block) arrays exp(m log n - n y), up to _ROWS orders per
pass; the direct route sums exp(-beta_b E_n).  A sum stops at the end of the first block whose last
term is past the peak (m/y, or the minimum of E_n) and at most 1e-18 of the
sum, within a budget of 10,000,000 terms.  A sum whose budget the bound in
_require_budget shows to be too small raises ConvergenceError before any
summing; one that leaves float64 raises OverflowError naming it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coherent import CSLabel, _fock_probs
from .errors import ConvergenceError, DomainError
from .kcore import MLParams, _require_count, _require_finite, _require_positive
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
            _require_finite(getattr(self, name), name)

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
        _require_count(self.ansatz_terms, "ansatz_terms", 0)


_BLOCK = 128  # terms per array pass of the partition sums
_ROWS = 64  # power-sum orders per pass, so a pass holds at most _ROWS * _BLOCK terms
_BUDGET = 10_000_000  # terms before a partition sum gives up
_SETTLE = 1e-18  # a sum stops once its last term is at most this share of it


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


def _require_budget(peak: float, slope: float, curvature: float, message: str) -> None:
    """ConvergenceError, before any summing, for terms e**-f(n) that cannot
    settle within the budget.  A sum of at most _BUDGET + 1 terms is at most
    that many times its peak term, so the stopping test needs f to rise by
    ln(1e18) - ln(_BUDGET + 1) (about 25) above its peak value, and past the
    peak f rises by at most slope * d + curvature * d**2 over d steps."""
    rise = -math.log(_SETTLE) - math.log(_BUDGET + 1)
    rate = slope + math.sqrt(slope * slope + 4.0 * curvature * rise)
    if rate == 0.0 or peak + 2.0 * rise / rate > _BUDGET:
        raise ConvergenceError(message)


def _bose_power_sums(orders, y: float) -> np.ndarray:
    """S_m(y) = sum_{n>=0} n**m exp(-n y) for every m in orders, summed over
    blocks of n, _ROWS orders at a time, until, for each order of the pass,
    the last term is past the peak m/y and at most 1e-18 of its sum."""
    if y <= 0.0:
        raise DomainError(f"need y > 0, got {y}")
    m = np.asarray(orders, dtype=float)
    return np.concatenate([_power_sum_rows(m[i:i + _ROWS], y) for i in range(0, m.size, _ROWS)])


def _settled_sum(terms, first: int, peak: float, total, unsettled: str, overflow):
    """total plus the sums along the last axis of terms(n) over n = first,
    first + 1, ... in blocks of _BLOCK, within _BUDGET terms, up to the first
    block past peak whose last terms are each at most _SETTLE of their sums.
    OverflowError(overflow(bad)) once the sums marked by bad are not finite."""
    stop = first + _BUDGET
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(first, stop, _BLOCK):
            n = np.arange(start, min(start + _BLOCK, stop), dtype=float)
            block = terms(n)
            total = total + block.sum(axis=-1)
            if not np.isfinite(total).all():
                raise OverflowError(overflow(~np.isfinite(total)))
            if n[-1] > peak and (block[..., -1] <= _SETTLE * total).all():
                return total
    raise ConvergenceError(unsettled)


def _power_sum_rows(m: np.ndarray, y: float) -> np.ndarray:
    peak = m.max() / y
    unsettled = f"power sum S_{m.max():.0f}({y}) did not settle"
    _require_budget(peak, y, 0.0, unsettled)
    return _settled_sum(lambda n: np.exp(np.multiply.outer(m, np.log(n)) - n * y), 1, peak,
                        (m == 0.0).astype(float), unsettled,
                        lambda bad: f"power sum S_{m[bad][0]:.0f}({y}) exceeds float64 range")


def partition_quadratic_direct(cfg: ThermalConfig) -> float:
    """Direct Boltzmann sum over the quadratic spectrum (the oracle route),
    over blocks of n until the last term is at most 1e-18 of the sum."""
    if not isinstance(cfg.spectrum, QuadraticSpectrum):
        raise DomainError("needs a QuadraticSpectrum")
    sp = cfg.spectrum
    if sp.b_quad < 0.0 or (sp.b_quad == 0.0 and sp.a_lin <= 0.0):
        raise DomainError("spectrum must grow; direct sum diverges")
    beta = cfg.beta_b
    peak = max(0.0, -sp.a_lin / (2.0 * sp.b_quad)) if sp.b_quad > 0.0 else 0.0
    unsettled = "direct Boltzmann sum did not settle"
    _require_budget(peak, beta * max(sp.a_lin, 0.0), beta * sp.b_quad, unsettled)
    # the terms rise up to the peak, so no earlier block can pass the settle test
    return float(_settled_sum(lambda n: np.exp(-beta * (sp.a_lin * n + sp.b_quad * n * n)), 0, peak,
                              0.0, unsettled, lambda _: "direct Boltzmann sum exceeds float64 range"))


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
    _require_positive(rel_tol, "rel_tol")
    total = _ansatz_sums(cfg, cfg.ansatz_terms)[-1]
    oracle = partition_quadratic_direct(cfg)
    deviation = abs(total - oracle) / abs(oracle)
    return SeriesResult(total, cfg.ansatz_terms + 1, deviation, deviation <= rel_tol)


def ansatz_error_curve(cfg: ThermalConfig, j_max: int) -> list[float]:
    """Relative error of the ansatz against the direct sum for J = 0..j_max;
    the asymptotic character shows as a minimum followed by growth."""
    _require_count(j_max, "j_max", 0)
    oracle = partition_quadratic_direct(cfg)
    return [abs(total - oracle) / abs(oracle) for total in _ansatz_sums(cfg, j_max)]


def _ansatz_sums(cfg: ThermalConfig, j_max: int) -> list[float]:
    """Partial sums of the resummation ansatz for J = 0..j_max."""
    sp = cfg.spectrum
    powers = _bose_power_sums(range(0, 2 * j_max + 1, 2), cfg.beta_b * sp.a_lin)
    ratios = -cfg.beta_b * sp.b_quad / np.arange(1, j_max + 1)
    coeffs = np.cumprod(np.concatenate(([1.0], ratios)))
    return np.cumsum(coeffs * powers).tolist()


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
    p, _ = _fock_probs(params, z.modulus ** 2)
    boltzmann = np.exp(-cfg.beta_b * slope * np.arange(p.size))
    return float(np.dot(boltzmann, p)) / partition_linear(cfg)


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
