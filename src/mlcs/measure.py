"""Radial measure that makes the eigenstate family resolve the identity.

The weight is

    h(x) = (k/alpha) * Gamma(gamma/k) / Gamma(beta/alpha) * Gamma(beta)
           * E(x) * G((k/alpha) x)

with G a Meijer G^{2,0}_{1,2} kernel

    G(y | a1 ; 0, b2),   a1 = gamma/k - 1,  b2 = beta/alpha - 1,

which collapses to exp(-y) * y**b2 * U(a1, b2 + 1, y) (Tricomi U).  The
kernel is an array routine: every y of a call is taken from the Laplace
integral of U on the nodes in s of one half-line rule, with the integrand
chosen by a1 (plain for a1 >= 1/2, the endpoint singularity subtracted for
-1/2 < a1 < 1/2, one recurrence step below; see the comment above
_laplace_family).  Below y = 1e-4, where the subtracted form or the
recurrence would cancel (a1 < 1/2 with b2 < a1, or a1 <= -1/2), the
connection formula of U (two short Kummer series) gives the value instead.
An independent Mellin-Barnes contour evaluation of the same kernel backs the
fast route, and the moment identity

    int_0^inf x**(s-1) G((k/alpha) x) dx
        = (alpha/k)**s * Gamma(s) Gamma(b2 + s) / Gamma(a1 + s)

is the quantitative check that the measure closes the basis: against it the
coefficient-space identity matrix comes out as a Kronecker delta.

Both identity suites integrate with the half-line double-exponential rule of
the quadrature module (nodes x = (alpha/k) exp(t - exp(-t)), error estimate
from one halving of the step).  Every moment s shares the same nodes, and
every diagonal entry n shares the nodes of the Gram matrix, so each level of
the rule makes one kernel call for all its nodes.  h(x) takes E(x) from one
term table of the mlfunc module per call, and for the Gram matrix the state
probabilities p_0 = t_0 / E(x), p_n = p_{n-1} x / e_n share that E(x), which
cancels.  The Gram matrix goes through h(x) and the state probabilities,
not the moment sums, so it stays an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coherent import _structure
from .errors import ConvergenceError, DomainError, RouteMismatchError
from .kcore import MLParams, _gamma, _require_positive
from .mlfunc import _ml_table
from .quadrature import gauss_legendre_panels, half_line_quad

__all__ = [
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
            abs(l - r) / abs(r) if r else (0.0 if l == 0.0 else math.inf)
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
# of the domain.  The kernel comes instead from the Laplace integral
#     G(y) = e**-y / Gamma(a) * int_0^inf e**-s s**(a-1) (y+s)**p ds,
# a = a1, p = b2 - a1, which is smooth in b2.  Every y of a call shares the
# nodes in s of one half-line rule (relative target 1e-12).  The route
# follows a1:
#   a1 >= 1/2          this integrand, scaled per y by its value at its peak
#                      (or at y where it has none), so the rule sees O(1)
#                      values at any y;
#   -1/2 < a1 < 1/2    the endpoint singularity subtracted (DLMF 13.4.4):
#                      G = e**-y [y**p + rgamma(a) int e**-s s**(a-1)
#                      ((y+s)**p - y**p) ds], regular at s = 0 and smooth
#                      through a = 0, where the plain integrand puts its mass
#                      out of the rule's reach.  For p < 0 the two terms
#                      cancel by up to y**-a, which is why the plain form
#                      takes over at a1 = 1/2 (at a1 = 0.99, b2 = -0.9,
#                      y = 1e-4 the subtracted form lost 3e-12);
#   a1 <= -1/2         one backward step of the a-recurrence from a1 + 1 (the
#                      subtracted form) and a1 + 2 (the plain one), both
#                      families on the same nodes;
#   a1 = 0 or p = 0    G = y**p e**-y in closed form.
# Below _SMALL_Y the subtracted form with p < 0 and the recurrence cancel
# without bound; there the connection formula takes over, value by value.


def _laplace_family(a: float, b2: float, y: np.ndarray):
    """Integrand in s of the kernel at first index a > -1/2, a != 0, for
    every y, and the map from its integral to G(y) = y**b2 e**-y U(a, b2+1, y)."""
    from scipy import special

    p = b2 - a
    if a >= 0.5:
        # e**-s s**(a-1) (y+s)**p relative to its value at s_ref: the peak
        # where -s + (a-1) log s + p log(y+s) has one (a root of
        # s**2 + h s - (a-1) y, taken without cancellation), else y
        h = y - b2 + 1.0
        c = (a - 1.0) * y
        r = np.sqrt(np.maximum(h * h + 4.0 * c, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.where(h > 0.0, 2.0 * c / (h + r), 0.5 * (r - h))
        s_ref = root if a > 1.0 else np.maximum(root, y)
        log_ref = -s_ref + (a - 1.0) * np.log(s_ref) + p * np.log(y + s_ref)

        def integrand(s):
            # each term formed as one ratio, so the exponent carries no
            # cancellation of large logarithms
            return np.exp(-(s - s_ref) + (a - 1.0) * np.log(s / s_ref)
                          + p * np.log((y + s) / (y + s_ref)))

        def kernel(total):
            return np.exp(log_ref - y - math.lgamma(a) + np.log(total))
    else:
        # e**-s s**(a-1) ((y+s)**p - y**p) = sign(p) exp(-s + (a-1) log s
        # + p log(y+s) + log|expm1(-p log1p(s/y))|), never overflowing
        sign = math.copysign(1.0, p)

        def integrand(s):
            with np.errstate(divide="ignore"):
                tail = np.log(np.abs(np.expm1(-p * np.log1p(s / y))))
            return sign * np.exp(-s + (a - 1.0) * np.log(s) + p * np.log(y + s) + tail)

        def kernel(total):
            return np.exp(-y) * (y ** p + float(special.rgamma(a)) * total)
    return integrand, kernel


def _laplace_kernel(a1: float, b2: float, y: np.ndarray) -> np.ndarray:
    """G(y) = y**b2 e**-y U(a1, b2 + 1, y) for a 1-d array of y > 0, with one
    half_line_quad call in s for all of them (see the routes above)."""
    if a1 == 0.0 or a1 == b2:
        return y ** (b2 - a1) * np.exp(-y)
    firsts = (a1,) if a1 > -0.5 else (a1 + 1.0, a1 + 2.0)
    families = [_laplace_family(a, b2, y) for a in firsts]
    m = y.size

    def integrands(s):
        s = s[:, None]
        return np.hstack([f(s) for f, _ in families])

    # the bulk of e**-s s**(a-1) (y+s)**p lies below s ~ max(1, a1, b2)
    totals, _ = half_line_quad(integrands, max(1.0, b2, a1))
    g = [kernel(totals[i * m:(i + 1) * m]) for i, (_, kernel) in enumerate(families)]
    if len(g) == 1:
        return g[0]
    b = b2 + 1.0
    return (2.0 * a1 + 2.0 - b + y) * g[0] - (a1 + 1.0) * (a1 + 2.0 - b) * g[1]


# Below this kernel argument the cancelling Laplace routes hand over to the
# connection formula, whose two Kummer series need only a few terms there.
_SMALL_Y = 1e-4
# |b2 - round(b2)| below which the two series are paired term by term.
_NEAR_INTEGER = 0.05
_TAYLOR_N = np.arange(1, 11)
_TAYLOR_W = 1.0 / np.cumprod(_TAYLOR_N)  # 1 / n!


def _kummer_reg(a: float, b: float, y: float) -> float:
    """M(a, b, y) / Gamma(b) for 0 < y < _SMALL_Y and b + k away from 0."""
    from scipy import special

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
    from scipy import special

    return (-1) ** p * sum(
        math.comb(p, s) * float(special.poch(c + s, p - s)) * (-y) ** s
        for s in range(p + 1)
    )


def _gamma_ratio_m1(x: float, d: float) -> float:
    """(Gamma(x + d) / Gamma(x) - 1) / d for |d| << 1 with no cancellation;
    psi(x) at d = 0.  x + i must stay clear of 0 for the upward shifts."""
    from scipy import special

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
    from scipy import special

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


def _x_values(x) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array, and whether it came as a scalar; DomainError
    unless every element is finite and >= 0."""
    if isinstance(x, (int, float)):
        xs, scalar = np.array([float(x)]), True
    elif isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind in "iuf":
        xs, scalar = x.astype(float), False
    else:
        raise DomainError(f"x must be a float or a 1-d real array, got {x!r}")
    if not np.all(np.isfinite(xs)):
        raise DomainError(f"x must be finite, got {x!r}")
    if np.any(xs < 0.0):
        raise DomainError(f"x must be >= 0, got {x!r}")
    return xs, scalar


def meijer_g_weight(params: MLParams, x, check: bool = False,
                    check_tol: float = 1e-6):
    """Meijer kernel G((k/alpha) x | gamma/k - 1 ; 0, beta/alpha - 1).

    x is a float (returns a float) or a 1-d array (returns an array).  Fast
    route through Tricomi U, all values of an array on the nodes of one
    half-line rule, so an array call agrees with per-element calls to
    roundoff but not bit for bit.  With check=True the Mellin-Barnes contour
    referee runs on every element too and disagreement raises
    RouteMismatchError carrying both values.  x = 0 gives the analytic
    limit (finite only for beta/alpha > 1, or the unit-ratio case); a
    negative or non-finite x is a domain error.
    """
    xs, scalar = _x_values(x)
    a1, b2 = _g_params(params)
    y = (params.k / params.alpha) * xs
    g = np.empty_like(y)
    origin = xs == 0.0
    if origin.any():
        from scipy import special

        g[origin] = (math.gamma(b2) * float(special.rgamma(a1)) if b2 > 0.0
                     else 1.0 if b2 == 0.0 and a1 == 0.0 else math.inf)
    # the connection formula, value by value, where the Laplace routes cancel
    cancels = a1 != 0.0 and (a1 <= -0.5 or (a1 < 0.5 and b2 < a1))
    series = ~origin & (y < _SMALL_Y) & cancels
    for i in np.flatnonzero(series):
        g[i] = _g_small_y(a1, b2, float(y[i]))
    rest = ~(origin | series)
    if rest.any():
        g[rest] = _laplace_kernel(a1, b2, y[rest])
    if check:
        # the contour sum carries roundoff proportional to its t = 0
        # integrand, which dwarfs the kernel itself once exp(-y) is deep;
        # phase error from loggamma/exp grows with contour length, so allow
        # 1e-10 of that head.  Only disagreement above the floor is evidence
        # of a defect.
        c = max(0.0, -b2) + 0.75
        lg_denom = math.inf if a1 + c == 0.0 else math.lgamma(a1 + c)
        for xi, yi, value in zip(xs.tolist(), y.tolist(), g.tolist()):
            if xi == 0.0:
                continue
            referee = meijer_g_weight_mb(params, xi)
            scale = max(abs(value), abs(referee))
            floor = 1e-10 * math.exp(
                math.lgamma(c) + math.lgamma(b2 + c) - lg_denom - c * math.log(yi)
            ) / math.pi
            if scale > 1e-280 and abs(value - referee) > check_tol * scale + floor:
                raise RouteMismatchError(
                    f"Meijer kernel routes disagree at x={xi}: {value!r} vs {referee!r}",
                    value,
                    referee,
                )
    return float(g[0]) if scalar else g


def meijer_g_weight_mb(params: MLParams, x: float) -> float:
    """Same kernel by numerical Mellin-Barnes inversion:

        G(y) = (1/pi) Re int_0^T Gamma(s) Gamma(b2+s) / Gamma(a1+s) y**(-s) dt,
        s = c + i t,  c = max(0, -b2) + 3/4

    (the integrand decays like exp(-pi t / 2), so T ~ 80 is far past
    roundoff).  Contour stays right of all poles of both numerator gammas.
    """
    from scipy import special

    x = _require_positive(x, "x")
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

    return gauss_legendre_panels(integrand, 0.0, 80.0, 40, 24) / math.pi


def measure_weight_h(params: MLParams, x):
    """Full radial weight h(x); identically 1 at unit parameters.  x is a
    float or a 1-d array, as for meijer_g_weight."""
    xs, scalar = _x_values(x)
    h = _weight_and_probs(params, xs, 0)[0]
    return float(h[0]) if scalar else h


def _weight_and_probs(params: MLParams, xs: np.ndarray, n_max: int):
    """h at the nodes xs and the state probabilities p_n(x), n <= n_max, of
    each node, both on the E(x) of one term table: p_0 = t_0 / E(x) and
    p_n = p_{n-1} x / e_n, the ladder recursion.  OverflowError where E(x)
    is beyond float64."""
    sums, exps, _ = _ml_table(params, xs)
    with np.errstate(over="ignore"):
        series = np.ldexp(sums, exps)
    if not np.isfinite(series).all():
        x = float(xs[np.argmin(np.isfinite(series))])
        raise OverflowError(f"E at x = {x!r} exceeds float64 range")
    pref = (
        (params.k / params.alpha)
        * _gamma(params.gamma_over_k, "gamma/k")
        / _gamma(params.beta_over_alpha, "beta/alpha")
        * _gamma(params.beta)
    )
    ladder = xs[:, None] / _structure(params, np.arange(1, n_max + 1))
    probs = np.cumprod(np.hstack(((1.0 / _gamma(params.beta)) / series[:, None], ladder)), axis=1)
    return pref * series * meijer_g_weight(params, xs), probs


def moment_closed_form(params: MLParams, s: float) -> float:
    """Right-hand side (alpha/k)**s Gamma(s) Gamma(b2+s) / Gamma(a1+s)."""
    s = _require_positive(s, "s")
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


def verify_resolution(params: MLParams, s_max: int = 8) -> MomentReport:
    """Moments of the Meijer kernel, quadrature vs closed form, s = 1..s_max.

    All moments share the nodes of one half-line rule, so the kernel is
    evaluated once per node, in one call per level of the rule;
    ConvergenceError if any moment misses the target.
    """
    if not (isinstance(s_max, int) and s_max >= 1):
        raise DomainError(f"s_max must be an integer >= 1, got {s_max!r}")
    powers = np.arange(s_max)

    def moments(xs):
        return xs[:, None] ** powers * meijer_g_weight(params, xs)[:, None]

    lhs, _ = half_line_quad(moments, params.alpha / params.k)
    s_values = range(1, s_max + 1)
    rhs = [moment_closed_form(params, float(s)) for s in s_values]
    return MomentReport(tuple(s_values), tuple(lhs), tuple(rhs))


def resolution_identity_matrix(params: MLParams, n_max: int = 10) -> np.ndarray:
    """Gram matrix of the basis against the coherent family and its measure.

    Entry (m, n) is int_0^inf h(x) c_m(sqrt(x)) c_n(sqrt(x)) dx after the
    angular integral has killed m != n (coefficients at zero phase are real);
    off-diagonal entries are written as exact zeros and the diagonal is
    computed by quadrature, so the result should be the identity.  Each
    level of the half-line rule makes one term table for all its nodes,
    whose E(x) gives both h(x) and the probabilities |c_n|^2, n <= n_max.
    """
    if not (isinstance(n_max, int) and n_max >= 0):
        raise DomainError(f"n_max must be an integer >= 0, got {n_max!r}")

    def weighted_probs(xs):
        h, probs = _weight_and_probs(params, xs, n_max)
        return h[:, None] * probs

    diag, _ = half_line_quad(weighted_probs, params.alpha / params.k)
    return np.diag(diag)
