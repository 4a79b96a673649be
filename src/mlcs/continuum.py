"""Continuous-spectrum limit: the nu-function (Volterra's integral analogue
of the exponential), its four-parameter generalization, and the continuum
versions of the measure, partition function, Husimi Q and diagonal P weights.

nu sums Ramanujan's Gamma-free integral (Erdelyi et al., Higher
Transcendental Functions III, 18.3), nu(x) = e^x - int_R exp(-x e^u) /
(u**2 + pi**2) du = expm1(x) + K(x), K(x) = int_R (1 - exp(-e^v)) /
((v - log x)**2 + pi**2) dv: every term is positive, so nothing cancels from
x = 5e-324 up.  1 - exp(-e^v) is below 1e-18 under v = -39.5 and within
1e-18 of 1 over v = 3.75, past which K is in closed form; between, 18 panels
of the quadrature module's composite rule carry a 16-point value and a
12-point check, which must meet 1e-12 of K <= nu or ConvergenceError is
raised.  The nodes and 1 - exp(-e^v) times each weight are a table built once.

Every other point function integrates exp(L(E)) over the energy variable E
on [0, inf), with

    L(E) = E log w + log Gamma(a+E) - log Gamma(b+E) - m log Gamma(E+1),

the gamma ratio only in tilde_ml and m = 2 only in the literal-normalization
kernel.  The integrand is sharply peaked once w is large, and one peak window
on numpy alone integrates it:

* The peak E* comes in closed form from psi(z) ~ log(z - 1/2) (DLMF 5.11.2):
  E* = w - 1/2 for nu, sqrt(w) - 1/2 for the Gamma**2 kernel, and for
  tilde_ml the positive root of (E+b-1/2)(E+1/2) = w (E+a-1/2); 0 when there
  is none.
* The window is [max(0, E* - H), E* + H] with H = 40 + 10 sqrt(E*).  Its
  panel edges sit at E* +- s (2**j - 1), where s is the width of the peak,
  sqrt((E* + 1/2) / m), or the decay length 1/|log w| when that is shorter.
  Where the pole of Gamma(a+E) at -a lies within s / 4 of E = 0, the points
  a (4**j - 1) grade the first panels toward it.
* L comes from one numpy log Gamma pass over E+1, a+E and b+E at every
  node: Stirling's series (DLMF 5.11.1) in 1/z**2, the arguments below 8
  first shifted up by 8 with the recurrence (DLMF 5.5.1).
* The same composite rule puts a 16-point and a 12-point sum on each panel,
  of exp(L) over its largest value at the nodes.  The 16-point sum is the
  value; its distance from the 12-point sum is the error estimate.
* The estimate must meet 1e-12 of the value, or the rounding floor of L
  where that is larger, and the end nodes of the window must be negligible.
  Otherwise every panel is halved or H doubled, and a node budget spent
  raises ConvergenceError.  No value is returned unchecked.

The module needs numpy alone.  The tests hold the table and the window to
QUADPACK on the same integrand, a referee that lives with them.

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
from .kcore import _LOG_MAX, _STIRLING, MLParams, _gamma, _require_nonnegative, _require_positive
from .quadrature import _MAX_NODES, _panel_nodes, half_line_quad

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

# Gauss-Legendre orders of the value and of its check, in the window and the nu table
_ORDERS = (16, 12)
# panel edges at E* +- s (2**j - 1), j = 1..5
_STEPS = (1.0, 3.0, 7.0, 15.0, 31.0)
_REL_TOL = 1e-12
_EPS = 2.0 ** -52
# _lgamma's arguments stay below this; (z - 1/2) log z overflows past 2.556e305
_LGAMMA_MAX = 2.5e305
# Panels of Ramanujan's integral K in v: below _V_LO its factor
# 1 - exp(-e**v) is under 1e-18, above _V_HI within 1e-18 of 1
_V_LO, _V_HI, _V_PANELS = -39.5, 3.75, 18


class _Kernel(NamedTuple):
    """The integrand exp(L(E)) of the module docstring: w = exp(lw), the
    gamma ratio Gamma(a+E) / Gamma(b+E) (absent when a == b) and the power m
    of Gamma(E+1)."""

    lw: float
    power: int = 1
    a: float = 1.0
    b: float = 1.0

    def log_f(self, e: np.ndarray) -> np.ndarray:
        """L at a 1-d array of E, from one _lgamma call: numpy's cost per
        call, not per element, is what counts at the window's few hundred nodes."""
        if self.a == self.b:
            return e * self.lw - self.power * _lgamma(e + 1.0)
        lg = _lgamma((e + np.array([[1.0], [self.a], [self.b]])).ravel()).reshape(3, -1)
        return e * self.lw - self.power * lg[0] + lg[1] - lg[2]

    def peak(self) -> float:
        """E* from psi(z) ~ log(z - 1/2), DLMF 5.11.2; ConvergenceError where
        the window's half-width is below the float spacing at E*."""
        if self.power == 2:
            peak = max(0.0, math.exp(0.5 * self.lw) - 0.5)
        else:
            w = math.exp(self.lw)
            # (E + b - 1/2)(E + 1/2) = w (E + a - 1/2) as u**2 + lin u + c = 0
            # in u = E / s, scaled so that no coefficient overflows at large w
            s = max(1.0, w)
            lin = (self.b - w) / s
            c = (0.5 * (self.b - 0.5) / s - (w / s) * (self.a - 0.5)) / s
            disc = lin * lin - 4.0 * c
            if disc <= 0.0:
                return 0.0
            peak = max(0.0, 0.5 * s * (math.sqrt(disc) - lin))
        # past E* ~ 8e33, or where lin**2 overflows (b / max(1, w) past about
        # 1e154), no window resolves E*, and L(E*) may be beyond float64
        if not peak + _half_width(peak) > peak:
            raise ConvergenceError(f"peak window is narrower than the float spacing at E* = {peak:.6e}")
        # the window's nodes reach a + E* + H and b + E* + H.  H doubles only
        # while the end nodes count, and past E* L falls like -E log(E / w),
        # so with E* below 8e33 the nodes stay far inside the bound's margin
        if self.a != self.b and max(self.a, self.b) + peak + _half_width(peak) >= _LGAMMA_MAX:
            raise ConvergenceError(f"log Gamma argument of the window passes {_LGAMMA_MAX:.1e} at E* = {peak:.6e}")
        # the asymptotic form means nothing where a + E or b + E < 1/2: its
        # root there can sit below the integrand's value at E = 0
        if min(self.a, self.b) < 0.5:
            at_peak, at_zero = self.log_f(np.array([peak, 0.0]))
            if at_peak < at_zero:
                return 0.0
        return peak


def _half_width(peak: float) -> float:
    """H of the window [max(0, E* - H), E* + H]."""
    return 40.0 + 10.0 * math.sqrt(peak)


def _lgamma(z: np.ndarray) -> np.ndarray:
    """log Gamma over a 1-d array of 0 < z < _LGAMMA_MAX, which peak enforces:
    Stirling's series, within 1e-16 at z >= 8, after a shift of the elements
    below 8 up by 8 (DLMF 5.5.1).  The product prod_{j<8} (min(z, 8) + j)
    lies in [5040 min(z, 8), 15!/7!] at every element, so it neither
    overflows nor underflows; only the shifted elements subtract its log."""
    low = z < 8.0
    # prod_{j<8} (x + j) = q (q + 6)(q + 10)(q + 12), q = x (x + 7)
    x = np.minimum(z, 8.0)
    q = x + 7.0
    q *= x
    prod = q + 6.0
    prod *= q
    prod *= q + 10.0
    q += 12.0
    prod *= q
    z = z + 8.0 * low
    w = 1.0 / z
    w2 = w * w
    series = _STIRLING[0] * w2
    for c in _STIRLING[1:-1]:
        series += c
        series *= w2
    series += _STIRLING[-1]
    series *= w
    lg = np.log(z)
    lg *= z - 0.5
    lg -= z - 0.5 * math.log(2.0 * math.pi)
    lg += series
    lg -= np.log(prod) * low
    return lg


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
    half = _half_width(peak)
    halvings = spent = 0
    while True:
        lo, hi = max(0.0, peak - half), peak + half
        edges = _panel_edges(lo, peak, hi, width, pole)
        for _ in range(halvings):
            edges = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
        e, h, weights = _panel_nodes(edges, _ORDERS)
        spent += e.size
        if spent > _MAX_NODES:
            raise ConvergenceError(
                f"peak window spent its {_MAX_NODES} node budget near E* = {peak:.6e}")
        log_f = kernel.log_f(e).reshape(h.size, -1)
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
        ends = f[-1, _ORDERS[0] - 1] + (f[0, 0] if lo > 0.0 else 0.0)
        if ends * half > 1e-3 * target:
            half *= 2.0
        elif abs(value - check) > target:
            halvings += 1
        else:
            return float(scale + math.log(value))


@functools.cache
def _ramanujan_table() -> tuple[np.ndarray, np.ndarray]:
    """Nodes v of both rules on the panels of K (module docstring) and the
    (nodes, 2) matrix of the x-free factor (1 - exp(-e**v)) times the
    weight of each rule, built once (read-only arrays)."""
    v, h, weights = _panel_nodes(np.linspace(_V_LO, _V_HI, _V_PANELS + 1), _ORDERS)
    w = (h[:, None, None] * weights).reshape(v.size, 2) * -np.expm1(-np.exp(v))[:, None]
    for a in (v, w):
        a.flags.writeable = False
    return v, w


# "fixed" is the only scheme; the keyword stays because perfbench's continuum workload passes it
def log_nu(x: float, scheme: str = "fixed") -> float:
    """log of nu(x); -inf at x = 0.  Usable far beyond where nu itself
    overflows (nu grows like e^x)."""
    x = _require_nonnegative(x, "x")
    if scheme != "fixed":
        raise DomainError(f'scheme must be "fixed", got {scheme!r}')
    if x == 0.0:
        return -math.inf
    lx = math.log(x)
    v, w = _ramanujan_table()
    d = v - lx
    value, check = (1.0 / (d * d + math.pi ** 2)) @ w
    # past _V_HI the integrand is 1 / ((v - lx)**2 + pi**2) to 1e-18
    k = value + math.atan2(math.pi, _V_HI - lx) / math.pi
    # K <= nu: a check within 1e-12 of K is within 1e-12 of nu
    if abs(value - check) > _REL_TOL * k:
        raise ConvergenceError(f"Ramanujan integral check missed its target at x = {x!r}")
    if x > 1.0:
        return x + math.log1p((k - 1.0) * math.exp(-x))
    return math.log(math.expm1(x) + k)


# "fixed" is the only scheme; the keyword stays because perfbench's continuum workload passes it
def nu_function(x: float, scheme: str = "fixed") -> float:
    """nu(x) = int_0^inf x**E / Gamma(E+1) dE, the integral analogue of e^x.

    Vanishes (slowly, like 1/|log x|) as x -> 0 and tracks e^x for large x;
    for x past ~700 the value overflows float64, use log_nu instead.
    """
    x = _require_nonnegative(x, "x")
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


def tilde_ml(params: MLParams, x: float) -> float:
    """Four-parameter integral analogue of the series function:

        int_0^inf [Gamma(beta/alpha) / (Gamma(gamma/k) Gamma(beta))]
                  * ((k/alpha) x)**E
                  * Gamma(gamma/k + E) / (Gamma(beta/alpha + E) Gamma(E+1)) dE

    Unit parameters collapse it to nu_function.  The prefactor's log
    Gamma(beta/alpha) cancels against log Gamma(beta/alpha + E) in L: 8 eps
    |log prefactor| of relative error, which past 1e-9 (beta/alpha ~ 6e4 at
    unit gamma/k and beta) raises ConvergenceError unless the value overflows.
    """
    x = _require_nonnegative(x, "x")
    if x == 0.0:
        return 0.0
    a = params.gamma_over_k
    b = params.beta_over_alpha
    lw = math.log(params.k / params.alpha) + math.log(x)
    log_pref = math.lgamma(b) - math.lgamma(a) - math.lgamma(params.beta)
    log_value = log_pref + _window(_Kernel(lw, a=a, b=b))
    rounding = 8.0 * _EPS * abs(log_pref)
    if rounding > 1e-9 and log_value - rounding <= _LOG_MAX:
        raise ConvergenceError(f"log prefactor {log_pref:.6e} of tilde_ml rounds beyond 1e-9 at x = {x!r}")
    return _exp(log_value, f"tilde_ml(x) exceeds float64 range at x = {x!r}")


def continuum_measure_weight(x: float) -> float:
    """Radial measure weight h(x) = exp(-x) * nu(x) of the continuum family."""
    x = _require_nonnegative(x, "x")
    return math.exp(log_nu(x) - x)


def continuum_partition(beta_b: float) -> float:
    """Partition function of the continuous spectrum, exactly 1/beta_b."""
    beta_b = _require_positive(beta_b, "beta_b")
    return 1.0 / beta_b


def continuum_husimi(z: CSLabel, beta_b: float) -> float:
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
    num = log_nu(x * math.exp(-beta_b))
    den = log_nu(x)
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
            value = float(np.exp(_log_p_weight(beta_b, _growth(x, beta_b))))
    if not math.isfinite(value):
        raise OverflowError(f"P weight at |z|^2 = {x!r} overflows float64")
    return value


def _growth(x: float, beta_b: float) -> float:
    """(e^{beta_b} - 1) x, as e^{beta_b + log x} where e^{beta_b} is beyond
    float64 (the 1 is then below its rounding); 0 at x = 0, inf past float64."""
    if beta_b < _LOG_MAX:
        return math.expm1(beta_b) * x
    if x == 0.0:
        return 0.0
    log_growth = beta_b + math.log(x)
    return math.exp(log_growth) if log_growth < _LOG_MAX else math.inf


def _log_p_weight(beta_b: float, growth: float) -> float:
    """log of the decaying P weight, log beta_b + beta_b - growth, with growth
    = (e^{beta_b} - 1) x."""
    return math.log(beta_b) + beta_b - growth


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
        """int mass_density dE = nu(|z|**2) / norm.  For a state from build
        both come from the same nu table, so this is 1 up to rounding: an
        identity, not a quadrature check."""
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
    on the integrand over its value at c, u**E exp(-(c + rate) (u - 1)) with
    rate = (e^{beta_b} - 1) c = max(1, E) (1 - e^{-beta_b}): values near 1 at
    nodes near 1, and no x = c u is formed, so c may underflow.  log c and
    the log of the integrand at c are added back to the log of the rule's value.
    """
    e = _require_nonnegative(e, "E")
    beta_b = _require_positive(beta_b, "beta_b")
    log_c = math.log(max(1.0, e)) - beta_b
    c, rate = math.exp(log_c), -max(1.0, e) * math.expm1(-beta_b)

    def ratio(u):
        return np.exp(e * np.log(u) - c * (u - 1.0) - rate * (u - 1.0))

    value, _ = half_line_quad(ratio, 1.0)
    log_f_c = e * log_c - c - math.lgamma(e + 1.0) + _log_p_weight(beta_b, rate)
    return math.exp(log_f_c + log_c + math.log(value[0]))


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

    def moments(xs, live=slice(None)):
        return np.exp(np.log(xs)[:, None] * powers[live] - xs[:, None])

    lhs, _ = half_line_quad(moments, max(1.0, max(e_values)))
    return MomentReport(tuple(e_values), tuple(lhs), tuple(rhs))
