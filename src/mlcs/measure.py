"""Radial measure that makes the eigenstate family resolve the identity.

The weight is

    h(x) = (k/alpha) * Gamma(gamma/k) / Gamma(beta/alpha) * Gamma(beta)
           * E(x) * G((k/alpha) x)

with G a Meijer G^{2,0}_{1,2} kernel

    G(y | a1 ; 0, b2),   a1 = gamma/k - 1,  b2 = beta/alpha - 1,

which collapses to exp(-y) * y**b2 * U(a1, b2 + 1, y) (Tricomi U), taken
from a Laplace integral for y >= 1e-4 and from the connection formula of U
(two short Kummer series) below.  An independent Mellin-Barnes contour
evaluation of the same kernel backs the fast route, and the moment identity

    int_0^inf x**(s-1) G((k/alpha) x) dx
        = (alpha/k)**s * Gamma(s) Gamma(b2 + s) / Gamma(a1 + s)

is the quantitative check that the measure closes the basis: against it the
coefficient-space identity matrix comes out as a Kronecker delta.

Both identity suites integrate with the half-line double-exponential rule of
the quadrature module (nodes x = (alpha/k) exp(t - exp(-t)), error estimate
from one halving of the step).  Every moment s shares the same nodes, and
every diagonal entry n shares the nodes of the Gram matrix, so the kernel,
h(x) and the coherent state are built once per node rather than once per
integrand value of a quadrature nested in a quadrature.  The Gram matrix
goes through h(x) and the state coefficients, not the moment sums, so it
stays an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .coherent import CSLabel, cs_build
from .errors import ConvergenceError, DomainError, RouteMismatchError
from .kcore import MLParams
from .mlfunc import EvalConfig, ml_eval
from .quadrature import QuadratureSpec, gauss_legendre_panels, half_line_quad

__all__ = [
    "QuadratureSpec",
    "MomentReport",
    "meijer_g_weight",
    "meijer_g_weight_mb",
    "measure_weight_h",
    "moment_closed_form",
    "verify_resolution",
    "resolution_identity_matrix",
]


@dataclass(frozen=True)
class MomentReport:
    """Side-by-side quadrature (lhs) and closed-form (rhs) moments."""

    s_values: tuple
    lhs: tuple
    rhs: tuple
    max_rel_err: float = field(init=False)

    def __post_init__(self):
        if not (len(self.s_values) == len(self.lhs) == len(self.rhs)) or not self.s_values:
            raise DomainError("s_values, lhs, rhs must be nonempty and equal length")
        object.__setattr__(self, "s_values", tuple(float(s) for s in self.s_values))
        object.__setattr__(self, "lhs", tuple(float(v) for v in self.lhs))
        object.__setattr__(self, "rhs", tuple(float(v) for v in self.rhs))
        worst = max(
            abs(l - r) / max(abs(r), 1e-300)
            for l, r in zip(self.lhs, self.rhs)
        )
        object.__setattr__(self, "max_rel_err", worst)

    def to_dict(self) -> dict:
        return {
            "s_values": list(self.s_values),
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "max_rel_err": self.max_rel_err,
        }


def _g_params(params: MLParams) -> tuple[float, float]:
    return params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0


# scipy's Tricomi routine is not accurate enough to back a verified kernel:
# it cancels catastrophically near (not at) integer b (off by 3e-2 at
# |b - 6| ~ 1e-15) and carries a ~5e-9 error envelope scattered over the rest
# of the domain.  The Laplace representation
#     U(a, b, y) = y**-a / Gamma(a) * int_0^inf e**-s s**(a-1) (1+s/y)**(b-a-1) ds
# is smooth in b and evaluates to ~1e-12 relative everywhere we need; one
# backward step of the a-recurrence covers -1 < a < 0.


def _log_u_laplace(a: float, b: float, y: float) -> float:
    # log U(a, b, y) for a > 0, integrand rescaled by its interior maximum
    p = b - a - 1.0
    if a >= 1.0:
        h = y - b + 2.0
        disc = h * h + 4.0 * (a - 1.0) * y
        s_star = 0.5 * (-h + math.sqrt(disc)) if disc > 0.0 else 0.0
        peak = 0.0
        if s_star > 0.0:
            peak = -s_star + (a - 1.0) * math.log(s_star) + p * math.log1p(s_star / y)

        def g(s):
            if s <= 0.0:
                return 0.0
            return math.exp(-s + (a - 1.0) * math.log(s) + p * math.log1p(s / y) - peak)

        norm = -math.lgamma(a)
    else:
        # s = u**(1/a) soaks up the s**(a-1) endpoint singularity
        t_star = max(0.0, p - y)
        peak = -t_star + p * math.log1p(t_star / y) if t_star > 0.0 else 0.0
        inv_a = 1.0 / a
        log_cut = math.log(700.0 + abs(peak))

        def g(u):
            if u <= 0.0:
                return math.exp(-peak)
            # screen in logs; u**inv_a itself overflows for the huge u probes
            if inv_a * math.log(u) >= log_cut:
                return 0.0
            t = u ** inv_a
            return math.exp(-t + p * math.log1p(t / y) - peak)

        norm = -math.lgamma(a + 1.0)
    val, _ = integrate.quad(g, 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=300)
    return -a * math.log(y) + norm + peak + math.log(val)


def _tricomi_u(a: float, b: float, y: float) -> float:
    if a == 0.0:
        return 1.0
    if a > 0.0:
        return math.exp(_log_u_laplace(a, b, y))
    u1 = math.exp(_log_u_laplace(a + 1.0, b, y))
    u2 = math.exp(_log_u_laplace(a + 2.0, b, y))
    return (2.0 * a + 2.0 - b + y) * u1 - (a + 1.0) * (a + 2.0 - b) * u2


# Below this kernel argument the Laplace integral loses the integrand to
# underflow (for gamma/k < 1 or beta/alpha < 1 it ends in log(0)), while the
# two Kummer series of the connection formula need only a few terms.
_SMALL_Y = 1e-4
# |b2 - round(b2)| below which the two series are paired term by term.
_NEAR_INTEGER = 0.05
_TAYLOR_N = np.arange(1, 11)
_TAYLOR_W = 1.0 / np.cumprod(_TAYLOR_N)  # 1 / n!


def _kummer_reg(a: float, b: float, y: float) -> float:
    """M(a, b, y) / Gamma(b) for 0 < y < _SMALL_Y and b + k away from 0."""
    term = float(special.rgamma(b))
    total = term
    for k in range(200):
        term *= (a + k) * y / ((k + 1) * (b + k))
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
    raise ConvergenceError(f"Kummer series M({a}, {b}, {y}) did not settle")


def _kummer_poly(p: int, c: float, y: float) -> float:
    """U(-p, c, y), a polynomial (DLMF 13.2.7)."""
    return (-1) ** p * sum(
        math.comb(p, s) * float(special.poch(c + s, p - s)) * (-y) ** s
        for s in range(p + 1)
    )


def _gamma_ratio_m1(x: float, d: float) -> float:
    """(Gamma(x + d) / Gamma(x) - 1) / d for |d| << 1 with no cancellation;
    psi(x) at d = 0.  x + i must stay clear of 0 for the upward shifts."""
    acc = 0.0
    while x < 2.0:
        acc -= math.log1p(d / x) / d if d else 1.0 / x
        x += 1.0
    slope = acc + float(np.dot(special.polygamma(_TAYLOR_N - 1, x),
                               d ** (_TAYLOR_N - 1) * _TAYLOR_W))
    return slope * float(special.exprel(d * slope))


def _g_small_y(a1: float, b2: float, y: float) -> float:
    """Kernel G(y) for 0 < y < _SMALL_Y, a1 != 0, from the connection formula
    (DLMF 13.2.42) in regularized form:

        G = pi / sin(pi b2) * exp(-y) * [ M~(a1-b2, 1-b2, y) / Gamma(a1)
                                          - y**b2 M~(a1, 1+b2, y) / Gamma(a1-b2) ]

    with M~(a, b, y) = M(a, b, y) / Gamma(b).  For b2 = m + eps near an integer
    m >= 0 the term y**(m+j) of the first series and y**(m+eps+j) of the
    second cancel to O(eps); they are paired and divided by eps analytically,
    which gives the logarithmic limit at eps = 0.  If moreover a1 - b2 is a
    nonpositive integer -p, the pairing degenerates and G is the polynomial
    exp(-y) U(-p, 1-b2, y).
    """
    m = round(b2)
    eps = b2 - m
    if m < 0 or abs(eps) >= _NEAR_INTEGER:
        head = (-1) ** m * math.pi / math.sin(math.pi * eps)
        return math.exp(-y) * head * (
            float(special.rgamma(a1)) * _kummer_reg(a1 - b2, 1.0 - b2, y)
            - float(special.rgamma(a1 - b2)) * y ** b2 * _kummer_reg(a1, 1.0 + b2, y)
        )
    # a1 - eps + shift is the one quantity that can sit next to a pole of
    # Gamma; form it once so 1/Gamma(a1 - b2) and Gamma(a1 - eps + j) agree
    shift = 1 if a1 < -0.5 else 0
    base = (a1 + shift) - eps
    r_ab = float(special.rgamma(base))  # becomes 1/Gamma(a1 - b2)
    for i in range(1, m + shift + 1):
        r_ab *= base - i
    if r_ab == 0.0:
        return math.exp(-y) * _kummer_poly(m + shift - round(base), 1.0 - b2, y)
    # first-series terms y**k, k < m: 1/Gamma(1 - b2 + k) cancels the sine
    finite = 0.0
    t = float(special.rgamma(a1))
    for k in range(m):
        finite += (-1) ** k * math.gamma(m - k + eps) * t
        t *= (a1 - b2 + k) * y / (k + 1)
    log_y = math.log(y)
    y_eps = log_y * float(special.exprel(eps * log_y))  # (y**eps - 1) / eps
    c = r_ab * y ** m / math.factorial(m)  # (a1)_j y**(m+j) / (Gamma(a1-b2) j! (m+j)!)
    paired = 0.0
    # pair j over eps is c * [Gamma(x - eps) j! / (Gamma(x) Gamma(1 + j - eps))
    #                         - y**eps (m + j)! / Gamma(1 + m + j + eps)] / eps
    # with x = a1 + j; each gamma ratio is 1 + d * (ratio - 1) / d, so the
    # leading 1s cancel exactly and only the smooth quotients remain
    for j in range(200):
        x = a1 + j
        if abs(eps) > 0.5 * min(abs(x), abs(x + 1.0)):
            # Gamma(x - eps) is near a pole: the pair does not cancel
            ratio = float(special.gamma(base) * special.poch(base, j - shift)
                          * special.rgamma(x))
            ga = (ratio - 1.0) / -eps
        else:
            ga = _gamma_ratio_m1(x, -eps)
        gb = _gamma_ratio_m1(1.0 + j, -eps)
        gc = _gamma_ratio_m1(1.0 + m + j, eps)
        rho = 1.0 / (1.0 + eps * gc)
        term = c * (-ga + (1.0 - eps * ga) * gb / (1.0 - eps * gb) + (gc - y_eps) * rho)
        paired += term
        if j > 0 and abs(term) <= 1e-17 * abs(paired):
            break
        c *= x * y / ((j + 1) * (m + j + 1))
    else:
        raise ConvergenceError(f"paired Kummer series at y={y} did not settle")
    sigma = math.pi * eps / math.sin(math.pi * eps) if eps else 1.0
    return math.exp(-y) * (finite + (-1) ** m * sigma * paired)


def meijer_g_weight(params: MLParams, x: float, check: bool = False,
                    check_tol: float = 1e-6) -> float:
    """Meijer kernel G((k/alpha) x | gamma/k - 1 ; 0, beta/alpha - 1).

    Fast route through Tricomi U; with check=True the Mellin-Barnes contour
    referee runs too and disagreement raises RouteMismatchError carrying both
    values.  x = 0 returns the analytic limit (finite only for
    beta/alpha > 1, or the unit-ratio case), negative x is a domain error.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise DomainError(f"x must be finite, got {x!r}")
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x}")
    a1, b2 = _g_params(params)
    if x == 0.0:
        if b2 > 0.0:
            return math.gamma(b2) * float(special.rgamma(a1))
        if b2 == 0.0:
            return 1.0 if a1 == 0.0 else math.inf
        return math.inf
    y = (params.k / params.alpha) * x
    if y < _SMALL_Y and a1 != 0.0:
        value = _g_small_y(a1, b2, y)
    else:
        value = (y ** b2) * math.exp(-y) * _tricomi_u(a1, b2 + 1.0, y)
    if check:
        referee = meijer_g_weight_mb(params, x)
        scale = max(abs(value), abs(referee))
        # the contour sum carries roundoff proportional to its t = 0 integrand,
        # which dwarfs the kernel itself once exp(-y) is deep; phase error
        # from loggamma/exp grows with contour length, so allow 1e-10 of that
        # head.  Only disagreement above the floor is evidence of a defect.
        c = max(0.0, -b2) + 0.75
        lg_denom = math.inf if a1 + c == 0.0 else math.lgamma(a1 + c)
        floor = 1e-10 * math.exp(
            math.lgamma(c) + math.lgamma(b2 + c) - lg_denom - c * math.log(y)
        ) / math.pi
        if scale > 1e-280 and abs(value - referee) > check_tol * scale + floor:
            raise RouteMismatchError(
                f"Meijer kernel routes disagree at x={x}: {value!r} vs {referee!r}",
                value,
                referee,
            )
    return value


def meijer_g_weight_mb(params: MLParams, x: float, t_max: float = 80.0,
                       panels: int = 40, order: int = 24) -> float:
    """Same kernel by numerical Mellin-Barnes inversion:

        G(y) = (1/pi) Re int_0^T Gamma(s) Gamma(b2+s) / Gamma(a1+s) y**(-s) dt,
        s = c + i t,  c = max(0, -b2) + 3/4

    (the integrand decays like exp(-pi t / 2), so T ~ 80 is far past
    roundoff).  Contour stays right of all poles of both numerator gammas.
    """
    if x <= 0.0:
        raise DomainError(f"contour route needs x > 0, got {x}")
    a1, b2 = _g_params(params)
    y = (params.k / params.alpha) * x
    c = max(0.0, -b2) + 0.75
    log_y = math.log(y)

    def integrand(t):
        s = c + 1j * t
        lg = (
            special.loggamma(s)
            + special.loggamma(b2 + s)
            - special.loggamma(a1 + s)
            - s * log_y
        )
        return np.exp(lg).real

    return gauss_legendre_panels(integrand, 0.0, t_max, panels, order) / math.pi


def measure_weight_h(params: MLParams, x: float, cfg: EvalConfig | None = None) -> float:
    """Full radial weight h(x); identically 1 at unit parameters."""
    if x < 0.0:
        raise DomainError(f"x must be >= 0, got {x}")
    cfg = cfg or EvalConfig()
    series = ml_eval(params, x, cfg)
    if not series.converged:
        raise ConvergenceError(f"series for h({x}) did not converge", partial=series)
    pref = (
        (params.k / params.alpha)
        * math.gamma(params.gamma_over_k)
        / math.gamma(params.beta_over_alpha)
        * math.gamma(params.beta)
    )
    return pref * series.value * meijer_g_weight(params, x)


def moment_closed_form(params: MLParams, s: float) -> float:
    """Right-hand side (alpha/k)**s Gamma(s) Gamma(b2+s) / Gamma(a1+s)."""
    if s <= 0.0:
        raise DomainError(f"s must be positive, got {s}")
    a1, b2 = _g_params(params)
    if b2 + s <= 0.0 or a1 + s <= 0.0:
        raise DomainError(f"moment undefined at s={s} for these parameters")
    log_val = (
        s * math.log(params.alpha / params.k)
        + math.lgamma(s)
        + math.lgamma(b2 + s)
        - math.lgamma(a1 + s)
    )
    return math.exp(log_val)


def verify_resolution(params: MLParams, s_max: int = 8,
                      quad: QuadratureSpec | None = None) -> MomentReport:
    """Moments of the Meijer kernel, quadrature vs closed form, s = 1..s_max.

    All moments share the nodes of one half-line rule, so the kernel is
    evaluated once per node; ConvergenceError if any moment misses the target.
    """
    if not (isinstance(s_max, int) and s_max >= 1):
        raise DomainError(f"s_max must be an integer >= 1, got {s_max!r}")
    powers = np.arange(s_max)

    def moments(xs):
        g = np.array([meijer_g_weight(params, x) for x in xs.tolist()])
        return xs[:, None] ** powers * g[:, None]

    lhs, _ = half_line_quad(moments, params.alpha / params.k, quad)
    s_values = range(1, s_max + 1)
    rhs = [moment_closed_form(params, float(s)) for s in s_values]
    return MomentReport(tuple(s_values), tuple(lhs), tuple(rhs))


def resolution_identity_matrix(params: MLParams, n_max: int = 10,
                               quad: QuadratureSpec | None = None,
                               cfg: EvalConfig | None = None) -> np.ndarray:
    """Gram matrix of the basis against the coherent family and its measure.

    Entry (m, n) is int_0^inf h(x) c_m(sqrt(x)) c_n(sqrt(x)) dx after the
    angular integral has killed m != n (coefficients at zero phase are real);
    off-diagonal entries are written as exact zeros and the diagonal is
    computed by quadrature, so the result should be the identity.  Each node
    of the half-line rule builds h(x) and the coherent state once for every n.
    """
    if not (isinstance(n_max, int) and n_max >= 0):
        raise DomainError(f"n_max must be an integer >= 0, got {n_max!r}")
    cfg = cfg or EvalConfig()

    def weighted_probs(xs):
        out = np.zeros((xs.size, n_max + 1))
        for row, x in zip(out, xs.tolist()):
            coeffs = cs_build(CSLabel(math.sqrt(x)), params, cfg).coeffs[: n_max + 1]
            row[: coeffs.size] = measure_weight_h(params, x, cfg) * np.abs(coeffs) ** 2
        return out

    diag, _ = half_line_quad(weighted_probs, params.alpha / params.k, quad)
    return np.diag(diag)
