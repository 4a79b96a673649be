"""Continuous-spectrum limit: the nu-function (an integral analogue of the
exponential), its four-parameter generalization, and the continuum versions
of the measure, partition function, Husimi Q and diagonal P weights.

The point functions integrate over the energy variable E on [0, inf) with
integrands of the shape exp(E log x - log Gamma(E+1) + gamma-ratio terms):
sharply peaked once x is large, so every evaluation first locates the peak E*
(a digamma root), factors out the peak magnitude, and integrates the rescaled
integrand on [0, E* + 40 + 10 sqrt(E*)].  Two schemes are available,
adaptive QUADPACK and the fixed composite Gauss-Legendre rule of the
quadrature module; the tests hold them to each other.

The two identity suites (measure moments and Boltzmann diagonals) integrate
in x instead, on the half-line double-exponential rule of the quadrature
module.  Their integrands carry h(x) / nu(x), which is exactly e^{-x} by the
definition of the measure, so no nu value enters them: they check the moment
algebra and the P-weight convention, not the nu quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize, special

from .coherent import CSLabel
from .errors import ConvergenceError, DomainError
from .kcore import MLParams, _require_nonnegative, _require_positive
from .quadrature import _MAX_NODES, RELATIVE_ABS_TOL, gauss_legendre_panels, half_line_quad

__all__ = [
    "EnergyDensityState",
    "nu_function",
    "log_nu",
    "tilde_ml",
    "continuum_measure_weight",
    "continuum_partition",
    "continuum_husimi",
    "continuum_p_function",
    "continuum_diagonal",
    "verify_continuum_moments",
]

_SCHEMES = ("adaptive", "fixed")


def _solve_peak(slope_fn, hi_guess: float) -> float:
    """Root of a decreasing function on [0, inf); returns 0 when already
    negative at the origin."""
    if slope_fn(0.0) <= 0.0:
        return 0.0
    hi = max(4.0, hi_guess)
    while slope_fn(hi) > 0.0:
        hi *= 2.0
        if hi > 1e15:
            raise ConvergenceError("integrand peak not bracketed below 1e15")
    return float(optimize.brentq(slope_fn, 0.0, hi, xtol=1e-9, rtol=1e-12))


def _peaked_integral(log_f, peak: float, scheme: str) -> float:
    """log of int_0^U exp(log_f(E)) dE with U = peak + 40 + 10 sqrt(peak),
    computed with the peak value factored out."""
    if scheme not in _SCHEMES:
        raise DomainError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    upper = peak + 40.0 + 10.0 * math.sqrt(peak)
    scale = float(log_f(peak))

    if scheme == "adaptive":
        def g(e):
            return math.exp(float(log_f(e)) - scale)

        limit = _MAX_NODES // 21
        pts = [peak] if peak > 0.0 else None
        value, err = integrate.quad(
            g, 0.0, upper, epsabs=1e-14, epsrel=1e-12, limit=limit, points=pts
        )
        if not math.isfinite(value) or value <= 0.0:
            raise ConvergenceError(f"peaked integral failed: value={value}, err={err}")
        return scale + math.log(value)

    order = 24
    panels = max(12, int(math.ceil(upper / 3.0)))
    panels = min(panels, _MAX_NODES // order)
    total = gauss_legendre_panels(lambda e: np.exp(log_f(e) - scale), 0.0, upper, panels, order)
    if total <= 0.0:
        raise ConvergenceError("fixed-rule peaked integral came out nonpositive")
    return scale + math.log(total)


def log_nu(x: float, scheme: str = "adaptive") -> float:
    """log of nu(x); -inf at x = 0.  Usable far beyond where nu itself
    overflows (nu grows like e^x)."""
    x = _require_nonnegative(x, "x")
    if x == 0.0:
        return -math.inf
    lx = math.log(x)

    def slope(e):
        return lx - float(special.digamma(e + 1.0))

    peak = _solve_peak(slope, 2.0 * math.exp(min(lx, 34.0)))

    def log_f(e):
        return e * lx - special.gammaln(e + 1.0)

    return _peaked_integral(log_f, peak, scheme)


def nu_function(x: float, scheme: str = "adaptive") -> float:
    """nu(x) = int_0^inf x**E / Gamma(E+1) dE, the integral analogue of e^x.

    Vanishes (slowly, like 1/|log x|) as x -> 0 and tracks e^x for large x;
    for x past ~700 the value overflows float64, use log_nu instead.
    """
    x = _require_nonnegative(x, "x")
    if x == 0.0:
        return 0.0
    return math.exp(log_nu(x, scheme))


def _log_nu_gamma2(x: float) -> float:
    """log of int_0^inf x**E / Gamma(E+1)**2 dE (literal-normalization kernel)."""
    if x == 0.0:
        return -math.inf
    lx = math.log(x)

    def slope(e):
        return lx - 2.0 * float(special.digamma(e + 1.0))

    peak = _solve_peak(slope, 2.0 * math.exp(min(0.5 * lx, 34.0)))

    def log_f(e):
        return e * lx - 2.0 * special.gammaln(e + 1.0)

    return _peaked_integral(log_f, peak, "adaptive")


def tilde_ml(params: MLParams, x: float, scheme: str = "adaptive") -> float:
    """Four-parameter integral analogue of the series function:

        int_0^inf [Gamma(beta/alpha) / (Gamma(gamma/k) Gamma(beta))]
                  * ((k/alpha) x)**E
                  * Gamma(gamma/k + E) / (Gamma(beta/alpha + E) Gamma(E+1)) dE

    Unit parameters collapse it to nu_function.
    """
    x = _require_nonnegative(x, "x")
    if x == 0.0:
        return 0.0
    a = params.gamma_over_k
    b = params.beta_over_alpha
    lw = math.log(params.k / params.alpha) + math.log(x)

    def slope(e):
        return lw + float(
            special.digamma(a + e) - special.digamma(b + e) - special.digamma(e + 1.0)
        )

    peak = _solve_peak(slope, 2.0 * math.exp(min(lw, 34.0)))

    def log_f(e):
        return (
            e * lw
            + special.gammaln(a + e)
            - special.gammaln(b + e)
            - special.gammaln(e + 1.0)
        )

    log_pref = math.lgamma(b) - math.lgamma(a) - math.lgamma(params.beta)
    return math.exp(log_pref + _peaked_integral(log_f, peak, scheme))


def continuum_measure_weight(x: float, scheme: str = "adaptive") -> float:
    """Radial measure weight h(x) = exp(-x) * nu(x) of the continuum family."""
    x = _require_nonnegative(x, "x")
    if x == 0.0:
        return 0.0
    return math.exp(log_nu(x, scheme) - x)


def continuum_partition(beta_b: float) -> float:
    """Partition function of the continuous spectrum, exactly 1/beta_b."""
    beta_b = _require_positive(beta_b, "beta_b")
    return 1.0 / beta_b


def continuum_husimi(z: CSLabel, beta_b: float, scheme: str = "adaptive") -> float:
    """Husimi weight of the continuum Gibbs state:

        Q(|z|^2) = beta_b * nu(exp(-beta_b) |z|^2) / nu(|z|^2)

    evaluated through log-space nu so the ratio survives arguments where the
    values themselves over- or underflow.  |z| = 0 returns the x -> 0 limit
    beta_b (both nu values collapse at the same logarithmic rate).
    """
    beta_b = _require_positive(beta_b, "beta_b")
    x = z.modulus ** 2
    if x == 0.0:
        return beta_b
    num = log_nu(x * math.exp(-beta_b), scheme)
    den = log_nu(x, scheme)
    return beta_b * math.exp(num - den)


def continuum_p_function(z: CSLabel, beta_b: float, literal_sign: bool = False) -> float:
    """Diagonal (P) weight of the continuum Gibbs state.

    Default is the decaying convention

        P(|z|^2) = beta_b * exp(beta_b) * exp(-(exp(beta_b) - 1) |z|^2),

    the one consistent with the discrete-spectrum P at unit parameters and
    with a harmonic-oscillator-like thermal state.  literal_sign=True instead
    evaluates beta_b * exp(+(exp(beta_b) - 1) |z|^2), the growing variant
    (kept only for comparison; it cannot reproduce Boltzmann diagonals).
    """
    return float(_p_weight(z.modulus ** 2, _require_positive(beta_b, "beta_b"), literal_sign))


def _p_weight(x, beta_b: float, literal_sign: bool = False):
    """P weight at |z|^2 = x, elementwise over an array x; beta_b already validated."""
    growth = math.expm1(beta_b)  # e^{beta_b} - 1
    if literal_sign:
        return beta_b * np.exp(growth * x)
    return beta_b * math.exp(beta_b) * np.exp(-growth * x)


@dataclass(frozen=True)
class EnergyDensityState:
    """Continuum analogue of a coherent state: amplitude over the energy line.

    Two normalization conventions coexist and both are exposed rather than
    reconciled: the literal amplitude z**E / (sqrt(norm) Gamma(E+1)), whose
    squared modulus does NOT integrate to 1, and the mass density
    |z|**(2E) / (norm * Gamma(E+1)), which integrates to 1 exactly by the
    definition of norm = nu(|z|^2).  Identity checks in this module use the
    mass convention; norm_literal reports how far the literal one sits from
    unity.
    """

    z: CSLabel
    norm: float

    def __post_init__(self):
        _require_positive(self.norm, "norm")

    @classmethod
    def build(cls, z: CSLabel) -> "EnergyDensityState":
        if z.modulus == 0.0:
            raise DomainError("zero label has no normalizable energy density")
        return cls(z, nu_function(z.modulus ** 2))

    def amplitude(self, e: float) -> complex:
        """Literal amplitude c(E) = z**E / (sqrt(norm) Gamma(E+1))."""
        e = _require_nonnegative(e, "E")
        mag = math.exp(
            e * math.log(self.z.modulus ** 2) / 2.0
            - special.gammaln(e + 1.0)
            - 0.5 * math.log(self.norm)
        )
        return mag * complex(math.cos(self.z.phase * e), math.sin(self.z.phase * e))

    def mass_density(self, e: float) -> float:
        """Normalized energy density |z|**(2E) / (norm * Gamma(E+1))."""
        e = _require_nonnegative(e, "E")
        return math.exp(
            e * math.log(self.z.modulus ** 2)
            - special.gammaln(e + 1.0)
            - math.log(self.norm)
        )

    def norm_mass(self) -> float:
        """int mass_density dE; equals 1 by construction (quadrature check)."""
        return math.exp(log_nu(self.z.modulus ** 2) - math.log(self.norm))

    def norm_literal(self) -> float:
        """int |amplitude(E)|^2 dE; generally below 1 (the convention gap)."""
        return math.exp(_log_nu_gamma2(self.z.modulus ** 2) - math.log(self.norm))


def continuum_diagonal(e: float, beta_b: float) -> float:
    """Boltzmann diagonal recovered from the P weight and the measure:

        int_0^inf h(x) / nu(x) * P(x) * x**E / Gamma(E+1) dx
            = int_0^inf exp(-x) P(x) x**E / Gamma(E+1) dx,

    which should equal beta_b exp(-beta_b E) = exp(-beta_b E) / Z.  One
    half-line rule call with scale max(1, E) exp(-beta_b), the peak of the
    integrand, with a relative target (the value can sit far below 1e-100).
    """
    e = _require_nonnegative(e, "E")
    beta_b = _require_positive(beta_b, "beta_b")
    lg = math.lgamma(e + 1.0)

    def f(xs):
        return np.exp(e * np.log(xs) - xs - lg) * _p_weight(xs, beta_b)

    value, _ = half_line_quad(f, max(1.0, e) * math.exp(-beta_b), RELATIVE_ABS_TOL)
    return float(value[0])


def verify_continuum_moments(e_values):
    """Measure-moment identity int h(x)/nu(x) * x**E dx = Gamma(E+1) over a
    grid of E; returns the same report type the discrete measure uses.

    All E share the nodes of one half-line rule call with scale
    max(1, max E) and a relative target.
    """
    from .measure import MomentReport

    e_values = [_require_nonnegative(e, "E") for e in e_values]
    if not e_values:
        raise DomainError("need a nonempty grid of E")
    powers = np.array(e_values)

    def moments(xs):
        return np.exp(np.log(xs)[:, None] * powers - xs[:, None])

    lhs, _ = half_line_quad(moments, max(1.0, max(e_values)), RELATIVE_ABS_TOL)
    rhs = [math.gamma(e + 1.0) for e in e_values]
    return MomentReport(tuple(e_values), tuple(lhs), tuple(rhs))
