"""Evaluation of the four-parameter generalized Mittag-Leffler function

    E(z) = sum_{n>=0} k_pochhammer(gamma, n, k) * z**n
                      / (gen_gamma(params, n) * n!)

by direct term recursion, plus a confluent-hypergeometric cross-check route
and the Laplace transform of E in closed form and by quadrature.

Every ML and 1F1 series at one argument is summed by one Kahan-compensated
loop, _series, for the term ratio x (p + n q) / ((r + n s) (n + 1)) given as numbers:
(x, p, q, r, s) = (z, gamma, k, beta, alpha) on the direct route and
((k/alpha) z, gamma/k, 1, beta/alpha, 1) on the 1F1 route.  From order n on
the ratio is bounded by cap / (n + 1), cap = |x| max(|p|/r, q/s); on the
reflected series below, whose p can be large and negative, cap = |x|
max(|p + m q|/(r + m s), q/s) at m = floor(|x| q/s), which holds from m on
and is too large to certify anything before m.  Either yields a rigorous
geometric tail bound once cap / (n + 1) drops below 1, and the sum stops when
the bound falls under rel_tol times the partial sum.  The loop moves exact
powers of two (2**960 at a time) out of its partial sums into a returned
exponent, so a sum that stays below 2**960 is the plain float sum bit for
bit, and E beyond float64 raises OverflowError instead of turning into NaN.
Non-finite z raises DomainError.

Negative arguments are summed through the confluent reflection

    1F1(a; b; w) = exp(w) * 1F1(b - a; b; -w)

because the raw alternating series loses all significance once its largest
term dwarfs the value (|z| * max(gamma/beta, k/alpha) beyond ~35 or so);
after reflection every term past index |b - a| has one sign and the sum
carries full relative precision.  Both evaluation routes reflect, each in
its own parameter grouping, so they remain distinct floating-point paths;
the exponent of the reflected sum is folded into the factor exp(w).

When b - a is large and negative the reflected terms still alternate up to
index |b - a| and can peak far above the sum (b - a = -15.5, |w| = 9.3 peaks
near 1e8 times the value).  Whenever float rounding of that peak could exceed
rel_tol of the sum, the same loop sums the series again in decimal
arithmetic from the exact float inputs, at a precision that covers the peak.

Callers that need E at many nonnegative x at once (the nodes of a rule)
take _ml_table instead: the direct-route terms t_n(x_i) as one array, row i
a cumulative product of the term ratios x_i (gamma + j k) / ((beta + j alpha)
(j + 1)), built 64 columns at a time.  Each row has its own power-of-two
exponent, moved out of its partial sum between blocks, and stops at its own
first index where the _series rule certifies rel_tol, the terms past it
masked to 0, so a row's value does not depend on the other x of its call.
The table returns each row's sum, exponent and tail bound.

The scalar series code needs the standard library only; _ml_table imports
numpy when called, and ml_laplace_quad, the quadrature route, imports the
half-line rule of the quadrature module on first use.  Neither loads scipy.
ml_laplace_quad takes one table per level of the rule and folds exp(-s x)
into the rows' exponents, so a node where E(x) is beyond float64 still
counts.
"""

from __future__ import annotations

import cmath
import decimal
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .kcore import MLParams, _gamma

__all__ = [
    "EvalConfig",
    "SeriesResult",
    "ml_eval",
    "ml_eval_complex",
    "ml_eval_via_1f1",
    "ml_laplace",
    "ml_laplace_quad",
]


@dataclass(frozen=True)
class EvalConfig:
    """Stopping controls for series summation."""

    rel_tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if not (isinstance(self.max_terms, int) and self.max_terms >= 10):
            raise DomainError(f"max_terms must be an integer >= 10, got {self.max_terms!r}")


_DEFAULT_CONFIG = EvalConfig()
_EPS = 2.0 ** -52
# partial sums are kept below 2**_SHIFT by moving that power into an exponent
_SHIFT = 960
_BIG = 2.0 ** _SHIFT
_DOWN = 2.0 ** -_SHIFT
_UNDO = 2.0 ** 50  # 10,000 terms below 2**(_SHIFT + 50) sum below float64 max unscaled
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SeriesResult:
    """Value of a summed series together with truncation diagnostics.

    tail_bound is an upper bound on the magnitude of everything discarded;
    converged means that bound fell below rel_tol * |value| before the term
    budget ran out.
    """

    value: float
    terms_used: int
    tail_bound: float
    converged: bool


def _series(t0, x, p, q, r, s, cap, cfg):
    """Kahan sum of t0 * sum_n prod_{j<n} x (p + j q) / ((r + j s) (j + 1)).

    Every term ratio from index n on is bounded in magnitude by cap / (n + 1);
    the sum stops once the geometric tail bound falls below rel_tol of it.
    Runs on float, complex or Decimal values.  A term past 2**960 moves that
    power of two from the term, the sum and the compensation into the
    exponent e (exact in binary), so the value is total * 2**e; once the
    terms fall back below 2**960 and no term reached 2**1010, the power moves
    back before the terms underflow in the scaled units.  Returns (total, e,
    terms used, tail bound, converged, largest |t_n|), the sums in units of
    2**e; OverflowError if a single term ratio overflows float64.
    """
    tol, down = cfg.rel_tol, _DOWN
    if isinstance(t0, decimal.Decimal):
        tol, cap, down = decimal.Decimal(tol), decimal.Decimal(cap), decimal.Decimal(down)
    term = total = t0
    comp = t0 - t0
    peak = abs(t0)
    tail = math.inf
    e = n = 0
    for n in range(1, cfg.max_terms):
        j = n - 1
        term = term * x * (p + j * q) / ((r + j * s) * n)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        size = abs(term)
        if size > peak:
            if size > _BIG:
                if size == math.inf:
                    raise OverflowError(f"series term {n} overflows float64 at |x| = {abs(x):.3e}")
                term, total, comp, size = term * down, total * down, comp * down, size * down
                e += _SHIFT
            peak = size
        elif e and size < 1.0 and peak < _UNDO:
            term, total, comp, size, peak = (v / down for v in (term, total, comp, size, peak))
            e -= _SHIFT
        ratio = cap / (n + 1)
        if ratio < 1.0:
            tail = size * ratio / (1 - ratio)
            if tail <= tol * abs(total):
                return total, e, n + 1, tail, True, peak
    return total, e, n + 1, tail, False, peak


def _decimal_sum(t0, x, p, q, r, s, cap, cfg):
    """_series in decimal arithmetic with the float inputs taken exactly.

    Exact arithmetic makes a few more terms cheap, so the tail is summed
    down to float resolution (rel_tol at most 2**-52), not only to rel_tol.
    The precision doubles from 40 digits until the rounding of the largest
    term is below rel_tol of the sum.  Converged means both the tail bound
    and that rounding are below rel_tol of the sum; no certificate at 320
    digits gives False.
    """
    args = [decimal.Decimal(v) for v in (t0, x, p, q, r, s)]
    fine = EvalConfig(min(cfg.rel_tol, _EPS), cfg.max_terms)
    prec = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            total, e, used, tail, _, peak = _series(+args[0], *args[1:], cap, fine)
        value, tail = float(total), float(tail)
        rounding = float(peak) * used * 10.0 ** (1 - prec)
        certified = rounding <= cfg.rel_tol * abs(value)
        if certified or prec >= 320:
            return value, e, used, tail + rounding, certified and tail <= cfg.rel_tol * abs(value)
        prec *= 2


def _kummer_sum(t0, z, p, q, r, s, cfg):
    """The series of _series at x = z, reflected when Re z < 0.

    The reflection 1F1(a; b; w) = e^w 1F1(b - a; b; -w) sums at -z with p
    replaced by q (r/s - p/q), a difference of ratios that is exactly zero
    when p/q == r/s, and folds the exponent of that sum into exp((q/s) z).
    At real z a reflected series with p < 0 alternates for ceil(-p/q) terms;
    when rounding of its largest term could exceed rel_tol of the sum, it is
    summed again in decimal.  Returns (total, e, terms used, tail bound,
    converged), the value being total * 2**e.
    """
    if z == 0:
        return t0 + 0 * z, 0, 1, 0.0, True
    if z.real >= 0.0:
        return _series(t0 + 0 * z, z, p, q, r, s, abs(z) * max(p / r, q / s), cfg)[:5]
    c = q * (r / s - p / q)
    y = -z
    # (c + j q) / (r + j s) is monotone in j and tends to q/s, so from index
    # m on its modulus is at most max(|c + m q| / (r + m s), q/s); with
    # m <= |y| q/s that cap also keeps every ratio bound before m above 1
    m = math.floor(min(abs(y) * q / s, cfg.max_terms))
    cap = abs(y) * max(abs(c + m * q) / (r + m * s), q / s)
    total, e, used, tail, ok, peak = _series(t0 + 0 * z, y, c, q, r, s, cap, cfg)
    if isinstance(z, complex):
        scale = cmath.exp((q / s) * z + e * _LN2)
    else:
        if c < 0.0 and peak * (math.ceil(-c / q) + 1) * _EPS > cfg.rel_tol * abs(total):
            total, e, used, tail, ok = _decimal_sum(t0, y, c, q, r, s, cap, cfg)
        scale = math.exp((q / s) * z + e * _LN2)
    # a budget spent leaves tail = inf, and a scale underflowed to 0 must not
    # turn that bound into NaN
    return scale * total, 0, used, abs(scale) * tail if tail < math.inf else tail, ok


def _ml_sum(params: MLParams, z, cfg: EvalConfig = _DEFAULT_CONFIG):
    """E(z) = total * 2**e as _kummer_sum in the k-symbol grouping
    (x, p, q, r, s) = (z, gamma, k, beta, alpha)."""
    return _kummer_sum(1.0 / _gamma(params.beta), z, params.gamma, params.k,
                       params.beta, params.alpha, cfg)


# columns of the term table built per cumulative product
_TABLE_BLOCK = 64
# a row whose partial sum passes this moves its power of two into the row
# exponent; the ratios of one block, each at most cap / n with cap below the
# term budget, multiply a term by at most 2**555, so no block overflows
_TABLE_SHIFT = 2.0 ** 400


def _ml_table(params: MLParams, x):
    """E on the direct route at a 1-d float array x >= 0, one row per x.

    Returns (sums, exps, tails): each row's sum and tail bound, both in units
    of 2**exps[i].  Row i stops at its first index n >= 1 where
    cap_i / (n + 1) < 1, cap_i = x_i max(gamma/beta, k/alpha), and the
    geometric tail bound is at most rel_tol of its partial sum, the rule of
    _series; its terms past n are 0.  ConvergenceError when a row needs more
    than the term budget, OverflowError when Gamma(beta) is beyond float64.
    """
    import numpy as np

    a, b, g, k = params.alpha, params.beta, params.gamma, params.k
    tol, budget = _DEFAULT_CONFIG.rel_tol, _DEFAULT_CONFIG.max_terms
    cap = x * max(g / b, k / a)
    if cap.size and cap.max() >= budget:
        # cap / (n + 1) < 1 needs more terms than the budget
        raise ConvergenceError(
            f"series at x={float(x[cap.argmax()])} needs over {budget} terms")
    m = x.size
    t0 = 1.0 / _gamma(b)
    sums, tails, exps = np.empty(m), np.empty(m), np.zeros(m, dtype=int)
    # the rows still summing: index, x, cap, last term, partial sum, exponent
    idx, xa, ca = np.arange(m), x, cap
    carry, total, e = np.full(m, t0), np.full(m, t0), np.zeros(m, dtype=int)
    cols = np.arange(_TABLE_BLOCK)
    for start in range(1, budget, _TABLE_BLOCK):
        j = cols + start
        ratios = xa[:, None] * ((g + (j - 1) * k) / ((b + (j - 1) * a) * j))
        terms = carry[:, None] * np.cumprod(ratios, axis=1)
        bound = ca[:, None] / (j + 1)
        # tail bound terms * bound / (1 - bound) within tol of the partial sum
        done = (bound < 1.0) & (terms * bound <= tol * (1.0 - bound)
                                * (total[:, None] + np.cumsum(terms, axis=1)))
        hit = done.any(axis=1)
        last = np.where(hit, done.argmax(axis=1), _TABLE_BLOCK - 1)
        terms[cols > last[:, None]] = 0.0
        total = total + terms.sum(axis=1)
        if hit.any():
            rows = hit.nonzero()[0]
            ended, at = idx[rows], last[rows]
            sums[ended], exps[ended] = total[rows], e[rows]
            edge = bound[rows, at]
            tails[ended] = terms[rows, at] * edge / (1.0 - edge)
            if rows.size == idx.size:
                break
            going = ~hit
            idx, xa, ca, total, e, terms = (v[going] for v in (idx, xa, ca, total, e, terms))
        elif not m:
            break
        carry = terms[:, -1]
        big = total > _TABLE_SHIFT
        if big.any():
            shift = np.frexp(total[big])[1]
            total[big] = np.ldexp(total[big], -shift)
            carry[big] = np.ldexp(carry[big], -shift)
            e[big] += shift
    else:
        raise ConvergenceError(
            f"series at x={float(xa[0])} not converged after {budget} terms")
    return sums, exps, tails


def _unscale(z, sums):
    """(value, terms used, tail bound, converged) of a _kummer_sum result;
    OverflowError when the value is beyond float64."""
    total, e, used, tail, ok = sums
    if e:
        try:
            total, tail = total * 2.0 ** e, tail * 2.0 ** e
        except OverflowError:
            total = math.inf
    if not cmath.isfinite(total):
        raise OverflowError(f"E at z = {z!r} exceeds float64 range ({sums[0]!r} * 2**{e})")
    return total, used, tail, ok


def _real_arg(z) -> float:
    if isinstance(z, complex):
        raise DomainError("z must be real here; use ml_eval_complex")
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    return z


def ml_eval(params: MLParams, z: float, cfg: EvalConfig | None = None) -> SeriesResult:
    """Sum the series at real z.  Never raises on slow convergence; inspect
    the converged flag (or use ml_eval_complex, which does raise).  Raises
    OverflowError when E(z) is beyond float64, DomainError for non-finite z."""
    z = _real_arg(z)
    return SeriesResult(*_unscale(z, _ml_sum(params, z, cfg or _DEFAULT_CONFIG)))


def ml_eval_complex(params: MLParams, z: complex, cfg: EvalConfig | None = None) -> complex:
    """Series value at complex z; raises ConvergenceError if the tail bound
    never certifies rel_tol, OverflowError beyond float64, DomainError for
    non-finite z."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
    value, used, tail, ok = _unscale(z, _ml_sum(params, z, cfg or _DEFAULT_CONFIG))
    if not ok:
        raise ConvergenceError(
            f"series at z={z} not converged after {used} terms (tail bound {tail:.3e})",
            partial=SeriesResult(abs(value), used, tail, False),
        )
    return value


def ml_eval_via_1f1(params: MLParams, z: float) -> SeriesResult:
    """Cross-check route: E(z) = 1F1(gamma/k; beta/alpha; (k/alpha) z) / Gamma(beta),
    summed as a Kummer series in the rescaled argument, (x, p, q, r, s) =
    ((k/alpha) z, gamma/k, 1, beta/alpha, 1)."""
    z = _real_arg(z)
    w = (params.k / params.alpha) * z
    sums = _kummer_sum(1.0 / _gamma(params.beta), w, params.gamma_over_k, 1.0,
                       params.beta_over_alpha, 1.0, _DEFAULT_CONFIG)
    return SeriesResult(*_unscale(z, sums))


def _laplace_arg(params: MLParams, s) -> float:
    """s as a float; DomainError unless it is a finite real above k/alpha,
    where the transform converges."""
    thresh = params.k / params.alpha
    if not (isinstance(s, (int, float)) and math.isfinite(s)):
        raise DomainError(f"s must be a finite real, got {s!r}")
    if s <= thresh:
        raise DomainError(
            f"transform diverges for s <= k/alpha = {thresh}; got s = {s}"
        )
    return float(s)


def ml_laplace(params: MLParams, s: float) -> float:
    """Laplace transform of E over [0, inf) in closed form:

        (1/s) * 2F1(1, gamma/k; beta/alpha; (k/alpha)/s) / Gamma(beta)

    valid for s > k/alpha; smaller s is reported as divergent (DomainError).
    """
    s = _laplace_arg(params, s)
    w = params.k / params.alpha / s
    a = params.gamma_over_k
    b = params.beta_over_alpha

    # ratio at order m is w*(a+m)/(b+m) -> w < 1, bounded by w*max(a/b, 1)
    term = 1.0
    total = 1.0
    comp = 0.0
    for n in range(1, _DEFAULT_CONFIG.max_terms):
        term = term * w * (a + (n - 1)) / (b + (n - 1))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        r = w * max((a + n) / (b + n), 1.0)
        if r < 1.0 and abs(term) * r / (1.0 - r) <= _DEFAULT_CONFIG.rel_tol * abs(total):
            return total / (s * _gamma(params.beta))
    raise ConvergenceError(
        f"2F1 series at w={w} not converged after {_DEFAULT_CONFIG.max_terms} terms"
    )


def ml_laplace_quad(params: MLParams, s: float) -> float:
    """Verification route: numerically integrate exp(-s x) E(x) on [0, inf).

    The integrand decays like exp(-(s - k/alpha) x) times a power, so one
    call of the half-line rule with scale 1 / (s - k/alpha) and a relative
    target covers it, one term table per level of the rule.  The factor
    exp(-s x) is folded into the rows' power-of-two exponents, so nodes where
    E(x) itself is beyond float64 still contribute; a series that does not
    converge at a node raises ConvergenceError.
    """
    import numpy as np

    from .quadrature import half_line_quad

    s = _laplace_arg(params, s)

    def f(xs):
        sums, exps, _ = _ml_table(params, xs)
        return sums * np.exp(exps * _LN2 - s * xs)

    value, _ = half_line_quad(f, 1.0 / (s - params.k / params.alpha))
    return float(value[0])
