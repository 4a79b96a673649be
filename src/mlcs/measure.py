"""Radial measure that makes the eigenstate family resolve the identity.

The weight is

    h(x) = (k/alpha) * Gamma(gamma/k) / Gamma(beta/alpha) * Gamma(beta)
           * E(x) * G((k/alpha) x)

with G a Meijer G^{2,0}_{1,2} kernel

    G(y | a1 ; 0, b2),   a1 = gamma/k - 1,  b2 = beta/alpha - 1,

which collapses to exp(-y) * y**b2 * U(a1, b2 + 1, y) (Tricomi U).  Where
b2 < 0 the kernel runs at its Kummer transform (DLMF 13.2.40),

    G(y | a1 ; 0, b2) = y**b2 * G(y | a1 - b2 ; 0, -b2),

so every route below sees a second index b2 >= 0, and the power y**b2 is
added to the exponent its value is formed from.  The kernel is an array
routine: every y of a call is taken from the Laplace integral of U, one
half-line rule call in s per Laplace family for all of them, with the
integrand chosen by a1 (plain for a1 >= 1/2, the endpoint singularity
subtracted for -1/2 < a1 < 1/2, one recurrence step below, from two
families; see the comment above _laplace_family).  Below
y = 1e-4, where the subtracted family in use (first index a = a1 for
-1/2 < a1 < 1/2, a = a1 + 1 of the recurrence for a1 <= -1/2) has
p = b2 - a < 0 and cancels by up to y**-a, the connection formula of U (two
short Kummer series) gives the value instead; so it does where the Laplace
integrand's mass reaches the float64 floor, below y = 1e-250 for b2 < 0.05
and 0 != a1 < 2, and for any 0 != a1 and b2 < 1/2 below the smallest normal
float64, where b2 >= 1/2 takes the origin limit.  The indices are those after
Kummer's transformation, so the formula sees 0 <= b2 < 1/2 only.  A y that
underflows to 0 is the origin, whose limit is returned; a value beyond
float64 raises OverflowError.  An independent Mellin-Barnes contour
evaluation of the same kernel backs the fast route, and the moment identity

    int_0^inf x**(s-1) G((k/alpha) x) dx
        = (alpha/k)**s * Gamma(s) Gamma(b2 + s) / Gamma(a1 + s)

is the quantitative check that the measure closes the basis: against it the
coefficient-space identity matrix comes out as a Kronecker delta.

Both identity suites are one routine: the half-line double-exponential rule
of the quadrature module over G((k/alpha) x) times a family of columns,
powers x**(s-1) for the moments and, for the Gram matrix, h(x) |c_n|**2 / G
with E(x) cancelled analytically: h p_n = pref G t_n, pref the constant
factor of h and t_n the n-th term of the series of E, formed as the ladder
(pref / Gamma(beta)) prod_{j<=n} x / e_j, its head (k/alpha) Gamma(gamma/k)
/ Gamma(beta/alpha) taken without Gamma(beta), which leaves float64 first
(beta > 171.6).  The Gram diagonal is therefore
the moment suite in coefficient space (entry n is pref times the
coefficient of x**n in t_n times the moment s = n + 1 of G), not an
independent check of it, and no E(x) is summed for it.  The rule's scale
follows the tallest member, so one call of its first nodes usually covers
every member, with one kernel call for all of them.  h(x) itself adds
log(pref E(x)) to the exponent of the kernel's map, from Gamma(beta) E(x)
summed with first term 1 (by the scalar series of the mlfunc module at a
float x, one term table per call at an array) and the logs of the Gammas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .coherent import _structure
from .errors import ConvergenceError, DomainError, RouteMismatchError
from .kcore import (_STIRLING, MLParams, _gamma, _require_count, _require_nonnegative,
                    _require_positive)
from .mlfunc import _DEFAULT_CONFIG, _LN2, _ml_table, _series
from .quadrature import _first_nodes, _panel_nodes, half_line_quad

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
# a = a1, p = b2 - a1, which is smooth in b2.  After Kummer's transformation
# b2 >= 0 here, and the map from the integral to G takes e**lift, lift =
# log y**b2 of the untransformed b2 < 0, into its exponent.  Each family
# (first index a) takes one half-line rule call in s for every y of a call
# (relative target 1e-12) and returns e**lift G.  The route follows a1:
#   a1 >= 1/2          this integrand, scaled per y by its value at its peak
#                      (or at y where it has none), so the rule sees O(1)
#                      values at any y;
#   -1/2 < a1 < 1/2    the endpoint singularity subtracted (DLMF 13.4.4):
#                      G = e**-y [y**p + 1/Gamma(a) int e**-s s**(a-1)
#                      ((y+s)**p - y**p) ds], regular at s = 0 and smooth
#                      through a = 0, where the plain integrand puts its mass
#                      out of the rule's reach.  For p < 0 (b2 < a1) the two
#                      terms cancel by up to y**-a, which is why the plain
#                      form takes over at a1 = 1/2;
#   a1 <= -1/2         one backward step of the a-recurrence from the values
#                      of the families a1 + 1 (the subtracted form) and
#                      a1 + 2 (the plain one); the step cancels only where
#                      the a1 + 1 family does, at b2 < a1 + 1;
#   a1 = 0 or p = 0    G = y**p e**-y in closed form, from its exponent.
# Below _SMALL_Y the connection formula takes over where these cancel, value
# by value (the region is stated in the module docstring).


@functools.lru_cache(maxsize=64)
def _node_column(a: float, scale: float) -> np.ndarray:
    """(a-1) log s - s, free of y, as a read-only column at the rule's first nodes s."""
    s = _first_nodes(scale)[1][:, None]
    node = (a - 1.0) * np.log(s) - s
    node.flags.writeable = False
    return node


def _laplace_family(a: float, b2: float, y: np.ndarray, lift, scale: float) -> np.ndarray:
    """e**lift G(y), G(y) = y**b2 e**-y U(a, b2+1, y), at first index
    a > -1/2, a != 0, for every y, from one half_line_quad call in s; lift
    is added to the exponent of the map from the integral to G."""
    p = b2 - a
    first = _first_nodes(scale)[1]

    def nodes(s):
        # s as a column and (a-1) log s - s, cached at the rule's first nodes
        if s is first:
            return first[:, None], _node_column(a, scale)
        s = s[:, None]
        return s, (a - 1.0) * np.log(s) - s

    if a >= 0.5:
        # e**-s s**(a-1) (y+s)**p relative to its value at s_ref: the peak
        # where -s + (a-1) log s + p log(y+s) has one (a root of
        # s**2 + h s - (a-1) y, taken without cancellation), else min(y, 1):
        # a reference at a large y would scale the values near s = 0 by
        # about e**y (s/y)**(a-1), beyond float64 from y ~ 700
        h = y - b2 + 1.0
        c = (a - 1.0) * y
        r = np.sqrt(np.maximum(h * h + 4.0 * c, 0.0))
        root = np.divide(2.0 * c, h + r, out=0.5 * (r - h), where=h > 0.0)
        s_ref = root if a > 1.0 else np.maximum(root, np.minimum(y, 1.0))
        # exponent: -s + (a-1) log s once per node, the peak term once per
        # column (the map reuses it, so its rounding cancels), and one log per
        # element of p log((y+s)/(y+s_ref)), a ratio: as two logs it would be
        # a difference of two values near log y
        peak = s_ref - (a - 1.0) * np.log(s_ref)
        y_ref = y + s_ref

        def integrand(s, cols=slice(None)):
            s, node = nodes(s)
            return np.exp(node + peak[cols] + p * np.log((y[cols] + s) / y_ref[cols]))

        total = half_line_quad(integrand, scale)[0]
        return np.exp(lift + p * np.log(y_ref) - peak - y - math.lgamma(a) + np.log(total))
    # e**-s s**(a-1) ((y+s)**p - y**p) = sign(p) exp(-s + (a-1) log s
    # + p log(y+s) + log|expm1(-p log1p(s/y))|), never overflowing, the
    # first two terms once per node; 1/Gamma(a) is finite as 0 < |a| < 1/2
    rgamma = 1.0 / math.gamma(a)
    sign = math.copysign(1.0, p)

    def integrand(s, cols=slice(None)):
        (s, node), yc = nodes(s), y[cols]
        tail = np.log(np.abs(np.expm1(-p * np.log1p(s / yc))))
        return sign * np.exp(node + p * np.log(yc + s) + tail)

    total = half_line_quad(integrand, scale)[0]
    return np.exp(lift - y) * (y ** p + rgamma * total)


def _laplace_kernel(a1: float, b2: float, y: np.ndarray, power: float, lift=0.0) -> np.ndarray:
    """e**lift y**power G(y), G(y) = y**b2 e**-y U(a1, b2 + 1, y), for a 1-d
    array of y > 0, with one half_line_quad call in s per Laplace family for
    all of them (see the routes above); lift (a float or an array like y)
    and power * log y are added to the exponent of G's map."""
    if a1 == 0.0 or a1 == b2:
        return np.exp((b2 - a1 + power) * np.log(y) - y + lift)
    if power:
        lift = lift + power * np.log(y)
    # the bulk of e**-s s**(a-1) (y+s)**p lies below s ~ max(1, a1, b2)
    scale = max(1.0, b2, a1)
    if a1 > -0.5:
        return _laplace_family(a1, b2, y, lift, scale)
    g1, g2 = (_laplace_family(a, b2, y, lift, scale) for a in (a1 + 1.0, a1 + 2.0))
    b = b2 + 1.0
    return (2.0 * a1 + 2.0 - b + y) * g1 - (a1 + 1.0) * (a1 + 2.0 - b) * g2


# Below this kernel argument the cancelling Laplace routes hand over to the
# connection formula, whose paired Kummer series needs only a few terms there.
_SMALL_Y = 1e-4
# Below this one the connection formula takes b2 < _NEAR_ZERO, a1 < 2 as
# well: the integrand's mass, spread like s**(b2-1) from s = y up to 1, then
# reaches within a few decades of the float64 floor, where the rule's nodes
# end, and below s = y the weighted integrand falls only like s**a1.
_FLOOR_Y = 1e-250
_TINY_Y = np.finfo(float).tiny  # below it the Laplace integrand's ratios overflow
# b2 below which a1 < 2 takes the formula from _FLOOR_Y down, that band only.
_NEAR_ZERO = 0.05


def _rgamma(x: float, lift: float = 0.0) -> float:
    """e**lift / Gamma(x), 0 at its poles, from one exponent (inf past float64) where either leaves it."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x < 171.0 and abs(lift) < 700.0:
        return math.exp(lift) / math.gamma(x)
    return (-1.0 if x < 0.0 and math.ceil(-x) % 2 else 1.0) * np.exp(lift - math.lgamma(x))


def _gamma_ratio_m1(x: float, d: float) -> float:
    """(Gamma(x + d) / Gamma(x) - 1) / d with no cancellation, psi(x) at d = 0,
    for |d| < 1/2 with x + i and x + d + i clear of 0 (i = 0, 1, ...): the
    recurrence shifts x to x >= 8, where Stirling's series (DLMF 5.11.1) is
    differenced term by term, c_k x**-j (j = 2k - 1) over d in closed form."""
    slope = 0.0
    while x < 8.0:
        slope -= math.log1p(d / x) / d if d else 1.0 / x
        x += 1.0
    terms = zip(_STIRLING[::-1], range(1, 17, 2))
    if not d:
        return slope + math.log(x) - 0.5 / x - sum(c * j * x ** (-j - 1.0) for c, j in terms)
    step = math.log1p(d / x)  # log((x + d) / x)
    slope += (x - 0.5) * step / d + math.log(x + d) - 1.0 + sum(
        c * x ** -j * math.expm1(-j * step) for c, j in terms) / d
    return math.expm1(d * slope) / d


def _g_small_y(a1: float, b2: float, y: float, lift: float = 0.0) -> float:
    """e**lift G(y) for 0 < y < _SMALL_Y or subnormal, 0 <= b2 < 1/2, a1 != 0, e**lift
    in the 1/Gamma factors of the connection formula (DLMF 13.2.42), regularized:

        G = pi / sin(pi b2) * exp(-y) * [ M~(a1-b2, 1-b2, y) / Gamma(a1)
                                          - y**b2 M~(a1, 1+b2, y) / Gamma(a1-b2) ]

    with M~(a, b, y) = M(a, b, y) / Gamma(b).  The term y**j of the first
    series and y**(b2+j) of the second (they cancel to O(b2) near b2 = 0) are
    paired and divided by b2 analytically on _gamma_ratio_m1, exact in the
    step b2, which gives the logarithmic limit at b2 = 0.  If a1 - b2 is 0
    or -1, the pairing degenerates and G is exp(-y) U(a1 - b2, 1 - b2, y),
    which is exp(-y) or exp(-y) (y - 1 + b2) (DLMF 13.2.7).
    """
    # a1 - b2 + shift is the one quantity that can sit next to a pole of
    # Gamma; form it once so 1/Gamma(a1 - b2) and Gamma(a1 - b2 + j) agree
    shift = 1 if a1 < -0.5 else 0
    base = (a1 + shift) - b2
    # c = (a1)_j y**j / (Gamma(a1-b2) j! j!), from 1/Gamma(a1 - b2) at j = 0:
    # at base next to a pole, else as 1/Gamma(a1) over the ratio the pair
    # takes, whose step is b2 itself, not the rounding of a1 - b2
    if b2 > 0.5 * min(abs(a1), abs(a1 + 1.0)):
        c = _rgamma(base, lift) * (base - 1.0 if shift else 1.0)
    else:
        c = _rgamma(a1, lift) / (1.0 - b2 * _gamma_ratio_m1(a1, -b2))
    if base == 0.0:
        # a1 - b2 = -shift, the polynomial case
        return math.exp(-y) * np.exp(lift) * (y - (1.0 - b2) if shift else 1.0)
    log_y = math.log(y)
    y_eps = math.expm1(b2 * log_y) / b2 if b2 else log_y  # (y**b2 - 1) / b2
    paired = 0.0
    # pair j over b2 is c * [Gamma(x - b2) j! / (Gamma(x) Gamma(1 + j - b2))
    #                        - y**b2 j! / Gamma(1 + j + b2)] / b2
    # with x = a1 + j; each gamma ratio is 1 + d * (ratio - 1) / d, so the
    # leading 1s cancel exactly and only the smooth quotients remain
    for j in range(200):
        x = a1 + j
        gb = _gamma_ratio_m1(1.0 + j, -b2)
        gc = _gamma_ratio_m1(1.0 + j, b2)
        rho = 1.0 / (1.0 + b2 * gc)
        if b2 > 0.5 * min(abs(x), abs(x + 1.0)):
            # Gamma(x - b2) near a pole (base - 1 would round off the distance):
            # its ratio to Gamma(x) is far from 1, so the pair does not cancel
            g = math.gamma(base + (j - shift)) if j >= shift else math.gamma(base) / (base - 1.0)
            term = c * (g * _rgamma(x) / (1.0 - b2 * gb) - y ** b2 * rho) / b2
        else:
            ga = _gamma_ratio_m1(x, -b2)
            term = c * ((gb - ga) / (1.0 - b2 * gb) + (gc - y_eps) * rho)
        paired += term
        if j > 0 and abs(term) <= 1e-17 * abs(paired):
            break
        c *= x * y / ((j + 1) * (j + 1))
    else:
        raise ConvergenceError(f"paired Kummer series at y={y} did not settle")
    sigma = math.pi * b2 / math.sin(math.pi * b2) if b2 else 1.0
    return math.exp(-y) * (sigma * paired)


def _x_values(x) -> tuple[np.ndarray, bool]:
    """x as a 1-d float array, and whether it came as a scalar; DomainError
    unless every element is finite and >= 0, or for a bool (scalar or array)."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return np.array([_require_nonnegative(x, "x")]), True
    if not (isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind in "iuf"):
        raise DomainError(f"x must be a float or a 1-d real array, got {x!r}")
    xs = x.astype(float)
    if np.count_nonzero((xs >= 0.0) & (xs < math.inf)) < xs.size:
        raise DomainError(f"x must be finite and >= 0, got {x!r}")
    return xs, False


def meijer_g_weight(params: MLParams, x, check: bool = False):
    """Meijer kernel G((k/alpha) x | gamma/k - 1 ; 0, beta/alpha - 1).

    x is a float (returns a float) or a 1-d array (returns an array).  Fast
    route through Tricomi U, all values of an array on the nodes of one
    half-line rule per Laplace family, so an array call agrees with
    per-element calls to roundoff but not bit for bit.  With check=True the
    Mellin-Barnes contour referee runs on every element too: a disagreement
    above 1e-9 of the value (plus the referee's roundoff floor) raises
    RouteMismatchError carrying both values, an element it cannot sum
    raises its OverflowError.
    x = 0, or an x whose (k/alpha) x underflows to 0, gives the analytic
    limit: finite for beta/alpha > 1 or gamma/k = beta/alpha, else an
    infinity with the kernel's sign near 0; one whose (k/alpha) x overflows
    gives the limit at infinity, 0.  A value beyond float64 raises
    OverflowError; a negative or non-finite x is a domain error.
    """
    xs, scalar = _x_values(x)
    g = _meijer_g(params, xs)
    if check:
        # the contour sum carries roundoff proportional to its t = 0
        # integrand (phase error from log Gamma/exp grows with contour
        # length), so 1e-10 of that head is allowed on top of 1e-9 of the
        # value: only disagreement above that floor is evidence of a defect.
        # A referee that is not finite raises its OverflowError naming x
        for xi, value in zip(xs.tolist(), g.tolist()):
            if xi == 0.0:
                continue
            referee, head = _mb_contour(params, xi)
            scale = max(abs(value), abs(referee))
            if scale > 1e-280 and abs(value - referee) > 1e-9 * scale + 1e-10 * head:
                raise RouteMismatchError(
                    f"Meijer kernel routes disagree at x={xi}: {value!r} vs {referee!r}",
                    value,
                    referee,
                )
    return float(g[0]) if scalar else g


def _meijer_g(params: MLParams, xs: np.ndarray, lift=0.0) -> np.ndarray:
    """e**lift times the kernel of meijer_g_weight at a validated 1-d array
    xs >= 0, lift a float or an array like xs that the Laplace routes add to
    the exponent of their map, so that the product survives where the kernel
    alone underflows (0 where y overflows); OverflowError where a value is
    beyond float64."""
    a1, b2 = _g_params(params)
    # Kummer's transformation (DLMF 13.2.40), G(y | a1; 0, b2) = y**b2
    # G(y | a1 - b2; 0, -b2), gives every route a second index b >= 0; the
    # Laplace routes add b2 log y to the exponent of their map
    power = min(b2, 0.0)
    a, b = a1 - power, abs(b2)
    origin = ()
    with np.errstate(over="ignore"):
        y = (params.k / params.alpha) * xs
        # the connection formula, value by value, where the subtracted family
        # in use has p < 0 or the Laplace routes cannot reach the mass (b >= 1/2
        # takes the origin limit below _TINY_Y); a = 0 is the closed form G =
        # y**b e**-y at any y.  An x > 0 whose y underflows is the origin too
        if a < 0.5 and b < (a + 1.0 if a <= -0.5 else a):
            edge = y < _SMALL_Y
        elif a != 0.0:
            edge = y < (_FLOOR_Y if b < _NEAR_ZERO and a < 2.0 else _TINY_Y)
        else:
            edge = y == 0.0
        if params.k > params.alpha:  # only then can y overflow, to G's limit 0
            edge = edge | (y == math.inf)
        if not np.count_nonzero(edge):
            g = _laplace_kernel(a, b, y, power, lift)
        else:
            # e**lift at the origin until the values off it have passed the test
            lift = np.broadcast_to(lift, y.shape)
            g = np.exp(lift)
            origin = np.flatnonzero(y == 0.0)
            g[y == math.inf] = 0.0
            series = edge & (y > 0.0) & (y < math.inf)
            if b < 0.5:
                for i in np.flatnonzero(series):
                    g[i] = _g_small_y(a, b, float(y[i]), float(lift[i]))
                g[series] *= y[series] ** power
            elif a != 0.0:  # subnormal y: Gamma(b) / Gamma(a) y**power, one exponent with lift
                g[series] = math.copysign(1.0, a) * np.exp(
                    lift[series] + power * np.log(y[series]) + (math.lgamma(b) - math.lgamma(a)))
            if not edge.all():
                g[~edge] = _laplace_kernel(a, b, y[~edge], power, lift[~edge])
    if np.count_nonzero(np.isfinite(g)) < g.size:
        x = float(xs[np.argmin(np.isfinite(g))])
        raise OverflowError(f"Meijer kernel at x = {x!r} exceeds float64 range")
    if len(origin):
        g[origin] *= _g_origin(a1, b2, float(xs[origin[0]]))
    return g


def _g_origin(a1: float, b2: float, x: float) -> float:
    """G(0), the limit of y**b2 e**-y U(a1, b2 + 1, y) as y -> 0, for the
    kernel at x (an x = 0, or one whose y underflows): 1 where G = e**-y
    (a1 = b2); for b2 <= 0 an infinity with the sign of Gamma(a1 - b2), as
    G ~ y**b2 Gamma(-b2) / Gamma(a1 - b2), or -log y / Gamma(a1) at b2 = 0;
    else Gamma(b2) / Gamma(a1), 0 at the pole a1 = 0 (a1 > -1 has no other),
    from the logs past 171, where the gammas leave float64, and
    OverflowError where the ratio does too."""
    if a1 == b2:
        return 1.0
    if b2 <= 0.0:
        return math.copysign(math.inf, a1 - b2)
    if a1 == 0.0:
        return 0.0
    if max(a1, b2) < 171.0:
        return math.gamma(b2) / math.gamma(a1)
    try:
        return math.copysign(math.exp(math.lgamma(b2) - math.lgamma(a1)), a1)
    except OverflowError:
        raise OverflowError(f"Meijer kernel at x = {x!r} exceeds float64 range "
                            f"(Gamma({b2!r}) / Gamma({a1!r}))") from None


def meijer_g_weight_mb(params: MLParams, x: float) -> float:
    """Same kernel by numerical Mellin-Barnes inversion:

        G(y) = (1/pi) Re int_0^T Gamma(s) Gamma(b2+s) / Gamma(a1+s) y**(-s) dt,
        s = c + i t,  c = max(max(0, -b2) + 3/4, s*),

    s* the positive root of s**2 + (b2 - y) s - a1 y (its vertex where it has
    none), where psi(s) + psi(b2 + s) - psi(a1 + s) ~ log y: the saddle of
    the integrand on the real axis.  There its modulus along the line stays
    near G, so the sum does not cancel G into the roundoff of its t = 0
    value, as a fixed c does once exp(-y) is deep.  The contour stays right
    of all poles of both numerator gammas, and the integrand decays like
    exp(-pi t / 2) past t ~ sqrt(c), after Gamma(b2 + s) has fallen as a
    Gaussian of width sqrt(b2 + c): T = max(80, 9 sqrt(c), 9 sqrt(b2 + c)),
    far past roundoff, on 40 panels per max(80, 9 sqrt(c)) of length.  A y
    that underflows to 0 gives the origin limit; OverflowError where the
    integrand leaves float64 (at a subnormal y even if G does not).
    """
    return _mb_contour(params, _require_positive(x, "x"))[0]


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) + 2 pi i k on rows of columns with one ascending Im z and
    Re z > -1: Stirling's series, within 1e-16 at |z| >= 8, after an upward
    shift by one integer (DLMF 5.5.1) of the prefix of columns below Im z = 8."""
    cut = int(np.searchsorted(z[0].imag, 8.0))
    m = max(0, math.ceil(8.0 - z[:, :cut].real.min(initial=8.0)))
    prod = np.prod(z[:, :cut, None] + np.arange(m), axis=2)
    z = np.hstack((z[:, :cut] + m, z[:, cut:]))
    w = 1.0 / z
    log_z = np.log(np.abs(z)) + 1j * np.angle(z)  # half the time of numpy's complex log
    lg = (z - 0.5) * log_z - z + (0.5 * math.log(2.0 * math.pi)) + w * np.polyval(_STIRLING, w * w)
    lg[:, :cut] -= np.log(prod)
    return lg


def _mb_contour(params: MLParams, x: float) -> tuple[float, float]:
    """meijer_g_weight_mb at a validated x, and the modulus of its integrand
    at t = 0 over pi, the scale of its roundoff (0 at the origin, where the
    limit of meijer_g_weight is returned); OverflowError naming x where the
    sum is not finite.  Only exp of each log Gamma is used: its branch is free."""
    a1, b2 = _g_params(params)
    y = (params.k / params.alpha) * x
    if y == 0.0:
        return _g_origin(a1, b2, x), 0.0
    d = y - b2
    saddle = 0.5 * (d + math.sqrt(max(d * d + 4.0 * a1 * y, 0.0)))
    if not math.isfinite(saddle):  # d * d overflows past y ~ 1.3e154: |d| leaves the root
        saddle = 0.5 * d + 0.5 * abs(d) * math.sqrt(max(1.0 + 4.0 * a1 * (y / d) / d, 0.0))
    c = max(max(0.0, -b2) + 0.75, saddle)
    reach = max(80.0, 9.0 * math.sqrt(c))  # on 40 panels
    top = max(reach, 9.0 * math.sqrt(b2 + c))
    panels = math.ceil(40.0 * top / reach) if top > reach else 40
    t, h, weights = _panel_nodes(np.linspace(0.0, top, panels + 1), (24,))
    # t = 0 leads the ascending nodes, so the head shares their log Gamma
    s = c + 1j * np.append(0.0, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        lg = _log_gamma(s + np.array([[0.0], [b2], [a1]]))
        f = np.exp(lg[0] + lg[1] - lg[2] - s * math.log(y)).real
        value = float(h @ (f[1:].reshape(h.size, -1) @ weights[:, 0]))
    if not math.isfinite(value):
        raise OverflowError(f"Meijer kernel contour at x = {x!r} exceeds float64 range")
    return value / math.pi, abs(float(f[0])) / math.pi


def measure_weight_h(params: MLParams, x):
    """Full radial weight h(x); identically 1 at unit parameters.  x is a float
    or a 1-d array, as for meijer_g_weight.  The kernel's map takes log(pref
    E(x)) into its exponent (see the module docstring), so h is finite
    wherever h itself is, E(x) and the Gammas beyond float64 or not;
    ConvergenceError where the series does not settle within the budget."""
    xs, scalar = _x_values(x)
    if scalar:
        sums, exps, _, _, settled, _ = _series(
            1.0, float(xs[0]), params.gamma, params.k, params.beta, params.alpha, _DEFAULT_CONFIG)
        if not settled:
            raise ConvergenceError(f"series at x={x!r} not converged within the term budget")
    else:
        sums, exps, _ = _ml_table(params, xs)
    # G underflows where E G need not (at (1, 3, 50, 0.5) from x ~ 360, with
    # E ~ 1e157), so the whole factor rides in the exponent of the kernel's map
    head = (math.log(params.k / params.alpha) + math.lgamma(params.gamma_over_k)
            - math.lgamma(params.beta_over_alpha))
    h = _meijer_g(params, xs, np.log(sums) + (exps * _LN2 + head))
    return float(h[0]) if scalar else h


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


def _kernel_integrals(params: MLParams, top: int, columns) -> np.ndarray:
    """int_0^inf G((k/alpha) x) c(x) dx for every column c of columns(xs, g),
    g the kernel at the nodes xs as a column, one kernel call per level of a
    half-line rule.  The tallest column, x**top, peaks with G at
    y* = top + b2 - a1; the scale y*/4 puts the first call's last node
    (53.6 scale) past its tail."""
    a1, b2 = _g_params(params)
    scale = (params.alpha / params.k) * max(1.0, (top + b2 - a1) / 4.0)
    return half_line_quad(lambda xs, live=slice(None): columns(
        xs, _meijer_g(params, xs)[:, None])[:, live], scale)[0]


def verify_resolution(params: MLParams, s_max: int = 8) -> MomentReport:
    """Moments of the Meijer kernel, quadrature vs closed form, s = 1..s_max.

    All moments share the nodes of one half-line rule and its kernel calls;
    ConvergenceError if any moment misses the target.
    """
    powers = np.arange(_require_count(s_max, "s_max", 1))
    lhs = _kernel_integrals(params, s_max - 1, lambda xs, g: xs[:, None] ** powers * g)
    s_values = range(1, s_max + 1)
    rhs = [moment_closed_form(params, float(s)) for s in s_values]
    return MomentReport(tuple(s_values), tuple(lhs), tuple(rhs))


def resolution_identity_matrix(params: MLParams, n_max: int = 10) -> np.ndarray:
    """Gram matrix of the basis against the coherent family and its measure.

    Entry (m, n) is int_0^inf h(x) c_m(sqrt(x)) c_n(sqrt(x)) dx after the
    angular integral has killed m != n (coefficients at zero phase are real);
    off-diagonal entries are written as exact zeros and the diagonal is
    computed by quadrature, so the result should be the identity.  No E(x)
    is formed: the diagonal is the moment routine of verify_resolution in
    coefficient space, not an independent check of the moments, on the
    ladder (pref / Gamma(beta)) G prod_{j<=n} x / e_j, a cumulative product
    that starts from G so that no x**n is formed on its own.  Its head
    pref / Gamma(beta) needs no Gamma(beta), so beta may pass 171.6.
    """
    _require_count(n_max, "n_max", 0)
    head = ((params.k / params.alpha) * _gamma(params.gamma_over_k, "gamma/k")
            / _gamma(params.beta_over_alpha, "beta/alpha"))
    e = _structure(params, np.arange(1, n_max + 1))
    return np.diag(_kernel_integrals(
        params, n_max, lambda xs, g: np.cumprod(np.hstack((head * g, xs[:, None] / e)), axis=1)))
