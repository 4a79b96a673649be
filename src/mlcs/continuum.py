"""Continuous-spectrum limit: the nu-function (Volterra's integral analogue
of the exponential), its four-parameter generalization, and the continuum
versions of the measure, partition function, Husimi Q and diagonal P weights.

The point functions integrate exp(L(E)) over the energy variable E on
[0, inf), with

    L(E) = E log w + log Gamma(a+E) - log Gamma(b+E) - m log Gamma(E+1),

the gamma ratio only in tilde_ml and m = 2 only in the literal-normalization
kernel.  The integrand is sharply peaked once w is large.  Two schemes:

* "fixed", the default, is one peak window on numpy and math.lgamma.
  - The peak E* comes in closed form from psi(z) ~ log(z - 1/2) (DLMF
    5.11.2): E* = w - 1/2 for nu, sqrt(w) - 1/2 for the Gamma**2 kernel,
    and for tilde_ml the positive root of (E+b-1/2)(E+1/2) = w (E+a-1/2);
    0 when there is none.
  - The window is [max(0, E* - H), E* + H] with H = 40 + 10 sqrt(E*).  Its
    panel edges sit at E* +- s (2**j - 1), where s is the width of the peak,
    sqrt((E* + 1/2) / m), or the decay length 1/|log w| when that is shorter.
    Where the pole of Gamma(a+E) at -a lies within s / 4 of E = 0, the
    points a (4**j - 1) grade the first panels toward it.
  - Each panel carries a 16-point and a 12-point Gauss-Legendre rule on
    math.lgamma values, scaled by the largest log-integrand value at the
    nodes.  The 16-point sum is the value; its distance from the 12-point sum
    is the error estimate.
  - The estimate must meet 1e-12 of the value, or the rounding floor of L
    where that is larger, and the end nodes of the window must be
    negligible.  Otherwise every panel is halved or H doubled, and a node
    budget spent raises ConvergenceError.  No value is returned unchecked.
* "adaptive" is QUADPACK on [0, E* + H] with a breakpoint at E*, on scipy's
  gammaln: the referee the tests hold the window to.  scipy is imported in
  that branch only.

The two identity suites (measure moments and Boltzmann diagonals) integrate
in x instead, on the half-line double-exponential rule of the quadrature
module.  Their integrands carry h(x) / nu(x), which is exactly e^{-x} by the
definition of the measure, so no nu value enters them: they check the moment
algebra and the P-weight convention, not the nu quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coherent import CSLabel
from .errors import ConvergenceError, DomainError
from .kcore import _LOG_MAX, MLParams, _gamma, _require_nonnegative, _require_positive
from .quadrature import _MAX_NODES, gauss_legendre, half_line_quad

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

_SCHEMES = ("fixed", "adaptive")
# Gauss-Legendre orders of the window's value and of its check
_ORDER, _CHECK_ORDER = 16, 12
# panel edges at E* +- s (2**j - 1), j = 1..5
_STEPS = (1.0, 3.0, 7.0, 15.0, 31.0)
_REL_TOL = 1e-12
_EPS = 2.0 ** -52


class _Kernel(NamedTuple):
    """The integrand exp(L(E)) of the module docstring: w = exp(lw), the
    gamma ratio Gamma(a+E) / Gamma(b+E) (absent when a == b) and the power m
    of Gamma(E+1)."""

    lw: float
    power: int = 1
    a: float = 1.0
    b: float = 1.0

    def log_f(self, e, lgamma):
        out = e * self.lw - self.power * lgamma(e + 1.0)
        if self.a != self.b:
            out = out + lgamma(self.a + e) - lgamma(self.b + e)
        return out

    def peak(self) -> float:
        """E* from psi(z) ~ log(z - 1/2), DLMF 5.11.2."""
        if self.power == 2:
            return max(0.0, math.exp(0.5 * self.lw) - 0.5)
        w = math.exp(self.lw)
        # (E + b - 1/2)(E + 1/2) = w (E + a - 1/2) as u**2 + lin u + c = 0 in
        # u = E / s, scaled so that no coefficient overflows at large w
        s = max(1.0, w)
        lin = (self.b - w) / s
        c = (0.5 * (self.b - 0.5) / s - (w / s) * (self.a - 0.5)) / s
        disc = lin * lin - 4.0 * c
        return max(0.0, 0.5 * s * (math.sqrt(disc) - lin)) if disc > 0.0 else 0.0


def _half_width(peak: float) -> float:
    """H of the window [max(0, E* - H), E* + H]."""
    return 40.0 + 10.0 * math.sqrt(peak)


def _lgamma(e: np.ndarray) -> np.ndarray:
    """math.lgamma elementwise over a 1-d array."""
    return np.fromiter(map(math.lgamma, e.tolist()), float, e.size)


@functools.cache
def _rule_pair() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t in [0, 2] of both rules, the 16-point ones first, and the
    (nodes, 2) matrix whose columns are the weights of each rule."""
    x16, w16 = gauss_legendre(_ORDER)
    x12, w12 = gauss_legendre(_CHECK_ORDER)
    weights = np.zeros((_ORDER + _CHECK_ORDER, 2))
    weights[:_ORDER, 0] = w16
    weights[_ORDER:, 1] = w12
    return np.concatenate((x16, x12)) + 1.0, weights


def _panel_edges(lo: float, peak: float, hi: float, width: float, pole: float | None):
    """Panel edges of the window [lo, hi]: the peak, peak +- width (2**j - 1)
    inside it, and pole (4**j - 1) below width when lo = 0 and a pole sits at
    -pole, so that no panel there is wider than three times its distance
    from the pole."""
    edges = {lo, peak, hi}
    for step in _STEPS:
        edges.update((peak - width * step, peak + width * step))
    if pole is not None and lo == 0.0 and 4.0 * pole < width:
        edges.update(pole * (4.0 ** j - 1.0) for j in range(1, int(math.log(width / pole, 4.0)) + 1))
    return np.array(sorted(v for v in edges if lo <= v <= hi))


def _window(kernel: _Kernel) -> float:
    """log of int_0^inf exp(L(E)) dE on the peak window (module docstring)."""
    peak = kernel.peak()
    width = math.sqrt((peak + 0.5) / kernel.power)
    if kernel.lw < -1.0:
        width = min(width, -1.0 / kernel.lw)
    pole = kernel.a if kernel.a != kernel.b else None
    t, weights = _rule_pair()
    half = _half_width(peak)
    halvings = spent = 0
    while True:
        lo, hi = max(0.0, peak - half), peak + half
        edges = _panel_edges(lo, peak, hi, width, pole)
        if edges.size < 2:
            raise ConvergenceError(f"peak window is narrower than the float spacing at E* = {peak:.6e}")
        for _ in range(halvings):
            edges = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
        h = 0.5 * (edges[1:] - edges[:-1])
        e = (np.outer(h, t) + edges[:-1, None]).ravel()
        spent += e.size
        if spent > _MAX_NODES:
            raise ConvergenceError(
                f"peak window spent its {_MAX_NODES} node budget near E* = {peak:.6e}")
        log_f = kernel.log_f(e, _lgamma).reshape(h.size, t.size)
        scale = log_f.max()
        f = np.exp(log_f - scale)
        value, check = h @ (f @ weights)
        if not (math.isfinite(value) and value > 0.0):
            raise ConvergenceError(f"peak window integral is {value} near E* = {peak:.6e}")
        # L is a difference of terms up to about hi |log w| in size, so its
        # rounding bounds the relative accuracy any rule can certify
        target = max(_REL_TOL, 8.0 * _EPS * hi * (abs(kernel.lw) + 1.0)) * value
        # the log-integrand falls by at least 1/H per unit beyond an end node,
        # so its value times H bounds the tail the window leaves out
        ends = f[-1, _ORDER - 1] + (f[0, 0] if lo > 0.0 else 0.0)
        if ends * half > 1e-3 * target:
            half *= 2.0
        elif abs(value - check) > target:
            halvings += 1
        else:
            return float(scale + math.log(value))


def _quadpack(kernel: _Kernel) -> float:
    """log of the same integral by QUADPACK with scipy's gammaln: the referee."""
    from scipy import integrate, special

    peak = kernel.peak()
    upper = peak + _half_width(peak)
    scale = float(kernel.log_f(peak, special.gammaln))

    def g(e):
        return math.exp(float(kernel.log_f(e, special.gammaln)) - scale)

    value, err = integrate.quad(g, 0.0, upper, epsabs=1e-14, epsrel=1e-12,
                                limit=_MAX_NODES // 21, points=[peak] if peak > 0.0 else None)
    if not math.isfinite(value) or value <= 0.0:
        raise ConvergenceError(f"peaked integral failed: value={value}, err={err}")
    return scale + math.log(value)


def _log_integral(kernel: _Kernel, scheme: str) -> float:
    if scheme == "fixed":
        return _window(kernel)
    if scheme == "adaptive":
        return _quadpack(kernel)
    raise DomainError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")


def log_nu(x: float, scheme: str = "fixed") -> float:
    """log of nu(x); -inf at x = 0.  Usable far beyond where nu itself
    overflows (nu grows like e^x)."""
    x = _require_nonnegative(x, "x")
    if x == 0.0:
        return -math.inf
    return _log_integral(_Kernel(math.log(x)), scheme)


def nu_function(x: float, scheme: str = "fixed") -> float:
    """nu(x) = int_0^inf x**E / Gamma(E+1) dE, the integral analogue of e^x.

    Vanishes (slowly, like 1/|log x|) as x -> 0 and tracks e^x for large x;
    for x past ~700 the value overflows float64, use log_nu instead.
    """
    x = _require_nonnegative(x, "x")
    if x == 0.0:
        return 0.0
    return _exp(log_nu(x, scheme), f"nu(x) exceeds float64 range at x = {x!r}; use log_nu")


def _exp(log_value: float, overflow: str) -> float:
    """exp(log_value); OverflowError with the given message beyond float64."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise OverflowError(overflow) from None


def _log_nu_gamma2(x: float) -> float:
    """log of int_0^inf x**E / Gamma(E+1)**2 dE (literal-normalization kernel)."""
    if x == 0.0:
        return -math.inf
    return _window(_Kernel(math.log(x), power=2))


def tilde_ml(params: MLParams, x: float, scheme: str = "fixed") -> float:
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
    log_pref = math.lgamma(b) - math.lgamma(a) - math.lgamma(params.beta)
    return _exp(log_pref + _log_integral(_Kernel(lw, a=a, b=b), scheme),
                f"tilde_ml(x) exceeds float64 range at x = {x!r}")


def continuum_measure_weight(x: float, scheme: str = "fixed") -> float:
    """Radial measure weight h(x) = exp(-x) * nu(x) of the continuum family."""
    x = _require_nonnegative(x, "x")
    if x == 0.0:
        return 0.0
    return math.exp(log_nu(x, scheme) - x)


def continuum_partition(beta_b: float) -> float:
    """Partition function of the continuous spectrum, exactly 1/beta_b."""
    beta_b = _require_positive(beta_b, "beta_b")
    return 1.0 / beta_b


def continuum_husimi(z: CSLabel, beta_b: float, scheme: str = "fixed") -> float:
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
    A weight, or a factor of it, beyond float64 raises OverflowError.
    """
    beta_b = _require_positive(beta_b, "beta_b")
    x = z.modulus ** 2
    # beta_b e^{beta_b} (inf where e^{beta_b} is) alone overflows from
    # beta_b ~ 703 on, the decaying weight only at x = 0
    head = beta_b * math.exp(min(beta_b, _LOG_MAX))
    with np.errstate(over="ignore"):
        if literal_sign:
            value = float(beta_b * np.exp(_growth(x, beta_b)))
        elif math.isfinite(head):
            value = float(head * np.exp(-_growth(x, beta_b)))
        else:
            value = float(np.exp(_log_p_weight(x, beta_b)))
    if not math.isfinite(value):
        raise OverflowError(f"P weight at |z|^2 = {x!r} overflows float64")
    return value


def _growth(x, beta_b: float):
    """(e^{beta_b} - 1) x, as e^{beta_b + log x} where e^{beta_b} is beyond
    float64 (the 1 is then below its rounding); 0 at x = 0."""
    if beta_b < _LOG_MAX:
        return math.expm1(beta_b) * x
    with np.errstate(divide="ignore"):
        return np.exp(beta_b + np.log(x))


def _log_p_weight(x, beta_b: float):
    """log of the decaying P weight, log beta_b + beta_b - (e^{beta_b} - 1) x."""
    return math.log(beta_b) + beta_b - _growth(x, beta_b)


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
            - math.lgamma(e + 1.0)
            - 0.5 * math.log(self.norm)
        )
        return mag * complex(math.cos(self.z.phase * e), math.sin(self.z.phase * e))

    def mass_density(self, e: float) -> float:
        """Normalized energy density |z|**(2E) / (norm * Gamma(E+1))."""
        e = _require_nonnegative(e, "E")
        return math.exp(
            e * math.log(self.z.modulus ** 2)
            - math.lgamma(e + 1.0)
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
    half-line rule call in u = x / c, c = max(1, E) exp(-beta_b) the peak,
    on the integrand over its value at c: values near 1 at nodes near 1, even
    where the integrand is beyond float64 or subnormal.  The log of c times
    that value is added back to the log of the rule's value.
    """
    e = _require_nonnegative(e, "E")
    beta_b = _require_positive(beta_b, "beta_b")
    c = _require_positive(max(1.0, e) * math.exp(-beta_b), "max(1, E) exp(-beta_b)")
    log_p_c = _log_p_weight(c, beta_b)

    def ratio(u):
        return np.exp(e * np.log(u) - c * (u - 1.0) + (_log_p_weight(c * u, beta_b) - log_p_c))

    value, _ = half_line_quad(ratio, 1.0)
    log_f_c = e * math.log(c) - c - math.lgamma(e + 1.0) + log_p_c
    return math.exp(log_f_c + math.log(c) + math.log(value[0]))


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
    # a moment beyond float64 is named before any node is evaluated
    rhs = [_gamma(e + 1.0, "E+1") for e in e_values]
    powers = np.array(e_values)

    def moments(xs):
        return np.exp(np.log(xs)[:, None] * powers - xs[:, None])

    lhs, _ = half_line_quad(moments, max(1.0, max(e_values)))
    return MomentReport(tuple(e_values), tuple(lhs), tuple(rhs))
