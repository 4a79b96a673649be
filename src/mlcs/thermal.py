"""Thermal expectation machinery over the deformed number basis: partition
functions for linear and near-linear quadratic spectra, the Husimi Q
representation of the Gibbs state, and its diagonal P representation.

Spectra are given directly by their coefficients:

    LinearSpectrum(slope)      E_n = slope * n
    QuadraticSpectrum(a, b)    E_n = a * n + b * n**2

with constructors recovering both from the ladder structure values in the
regimes where those degenerate to straight or quadratic growth.

The quadratic spectrum's two partition routes share no summation.  The
resummation takes each Bose power sum S_m(y) = sum_n n**m e**-ny in closed form,
Eulerian numbers times powers of e**-y (past order 170, its terms near n = m/y);
the direct route sums exp(-beta_b E_n) in blocks of n until a block past the
minimum of E_n ends in a term at most 1e-18 of the sum, within 10,000,000 terms
(ConvergenceError up front where too few).  OverflowError names a sum beyond float64.
"""

from __future__ import annotations

import functools
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


_BLOCK = 128  # terms per array pass of the direct Boltzmann sum
_BUDGET = 10_000_000  # terms before the direct sum gives up
_SETTLE = 1e-18  # the direct sum stops once its last term is at most this share of it
_EXACT = 170  # the highest order whose Eulerian numbers, at most 170!, are all float64


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


def _require_budget(peak: float, slope: float, curvature: float) -> None:
    """ConvergenceError, before any summing, for terms e**-f(n) that cannot
    settle within the budget.  A sum of at most _BUDGET + 1 terms is at most
    that many times its peak term, so the stopping test needs f to rise by
    ln(1e18) - ln(_BUDGET + 1) (about 25) above its peak value, and past the
    peak f rises by at most slope * d + curvature * d**2 over d steps."""
    rise = -math.log(_SETTLE) - math.log(_BUDGET + 1)
    rate = slope + math.sqrt(slope * slope + 4.0 * curvature * rise)
    if rate == 0.0 or peak + 2.0 * rise / rate > _BUDGET:
        raise ConvergenceError("direct Boltzmann sum did not settle")


@functools.cache
def _eulerian_table(top: int) -> np.ndarray:
    """Read-only numerators of S_m, m <= top, as rows to dot with (q**j): 1 at
    (0, 0) and A(m, k), each rounded once to float64 from the exact recurrence
    A(m + 1, k) = (k + 1) A(m, k) + (m + 1 - k) A(m, k - 1), at (m, k + 1)."""
    table, row = np.eye(top + 1), [1]  # row 0, and A(m, m - 1) = 1 on the diagonal
    for m in range(1, top + 1):
        table[m, 1:m + 1] = [float(a) for a in row]
        row = [(k + 1) * a + (m + 1 - k) * b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    table.flags.writeable = False
    return table


def _bose_power_sums(orders, y: float) -> np.ndarray:
    """S_m(y) = sum_{n>=0} n**m e**(-n y), m in orders: S_0 = 1 / (1 - q) and the Eulerian
    form of Li_{-m}(q), S_m = sum_{k<m} A(m, k) q**(k+1) / (1 - q)**(m+1) with q = e**-y,
    1 - q = -expm1(-y) (DLMF 25.12, 26.14), whose rounding the power m + 1 carries to about
    (m + 1) eps of S_m (2e-14 at m = 170, y = 1.01).  Past _EXACT, 64 orders at a time, the terms
    n = 1 .. 2m/y + 40: those past 2m/y are below e**-52 of the peak at m/y and fall at least
    e**(-y/2) a step, and m/y < 173, as S_m >= floor(m/y)**m e**-m >= (173/e)**171 otherwise."""
    if y <= 0.0:
        raise DomainError(f"need y > 0, got {y}")
    m = np.asarray(orders, dtype=int)
    top, low = int(m.max()), np.minimum(m, _EXACT)
    table = _eulerian_table(min(_EXACT, 1 << min(top, _EXACT).bit_length()))  # J = 8: 33 rows, not 171
    with np.errstate(over="ignore"):
        sums = (table @ math.exp(-y) ** np.arange(len(table)))[low] * (-math.expm1(-y)) ** (-1.0 - low)
        if top > _EXACT:  # S_m grows with m >= 1: past one overflow, every order overflows
            deep = np.unique(m[m > _EXACT])
            found = np.full(deep.size, np.inf)
            for i in range(0, deep.size, 64):
                rows = deep[i:i + 64]
                n = np.arange(1.0, 2.0 * min(rows.max(), 173.0 * y) / y + 41.0)  # at most 386 terms
                f = np.multiply.outer(rows, np.log(n)) - n * y
                total = np.exp(peak := f.max(axis=1)) * np.exp(f - peak[:, None]).sum(axis=1)
                found[i:i + 64] = np.where(rows < 173.0 * y, total, np.inf)
                if found[i:i + 64].max() == np.inf:
                    break
            sums[m > _EXACT] = found[np.searchsorted(deep, m[m > _EXACT])]
    if sums.max() == np.inf:
        raise OverflowError(f"power sum S_{m[sums == np.inf].min()}({y}) exceeds float64 range")
    return sums


def _settled_sum(terms, peak: float) -> float:
    """Sum of terms(n) over n = 0, 1, ... in blocks of _BLOCK, within _BUDGET terms,
    up to the first block past peak whose last term is at most _SETTLE of the sum."""
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, _BUDGET, _BLOCK):
            block = terms(n := np.arange(start, min(start + _BLOCK, _BUDGET), dtype=float))
            total += float(block.sum())
            if not math.isfinite(total):
                raise OverflowError("direct Boltzmann sum exceeds float64 range")
            if n[-1] > peak and block[-1] <= _SETTLE * total:
                return total
    raise ConvergenceError("direct Boltzmann sum did not settle")


def partition_quadratic_direct(cfg: ThermalConfig) -> float:
    """Direct Boltzmann sum over the quadratic spectrum, the oracle route (see _settled_sum)."""
    if not isinstance(cfg.spectrum, QuadraticSpectrum):
        raise DomainError("needs a QuadraticSpectrum")
    sp, beta = cfg.spectrum, cfg.beta_b
    if sp.b_quad < 0.0 or (sp.b_quad == 0.0 and sp.a_lin <= 0.0):
        raise DomainError("spectrum must grow; direct sum diverges")
    peak = max(0.0, -sp.a_lin / (2.0 * sp.b_quad)) if sp.b_quad > 0.0 else 0.0
    _require_budget(peak, beta * max(sp.a_lin, 0.0), beta * sp.b_quad)
    # the terms rise up to the peak, so no earlier block can pass the settle test
    return _settled_sum(lambda n: np.exp(-beta * (sp.a_lin * n + sp.b_quad * n * n)), peak)


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
    """Partial sums of the ansatz for J = 0..j_max, (-beta_b b)**j / j! one factor at a time."""
    sp = cfg.spectrum
    powers = _bose_power_sums(np.arange(0, 2 * j_max + 1, 2), cfg.beta_b * sp.a_lin)
    powers[1:] *= np.cumprod(-cfg.beta_b * sp.b_quad / np.arange(1.0, j_max + 1))
    return np.cumsum(powers).tolist()


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
