"""Evaluation of the four-parameter generalized Mittag-Leffler function

    E(z) = sum_{n>=0} k_pochhammer(gamma, n, k) * z**n
                      / (gen_gamma(params, n) * n!)

by direct term recursion, plus a confluent-hypergeometric cross-check route
and the Laplace transform of E in closed form and by quadrature.

The term ratio

    t_{n+1} / t_n = z * (gamma + n k) / ((beta + n alpha) * (n + 1))

is bounded in magnitude by |z| * max(gamma/beta, k/alpha) / (n + 1) for every
order >= n, which yields a rigorous geometric tail bound once that quantity
drops below 1; the summation stops when the bound falls under rel_tol times
the partial sum.  All parameters positive makes every term finite and the
series entire in z.

Negative arguments are summed through the confluent reflection

    1F1(a; b; w) = exp(w) * 1F1(b - a; b; -w)

because the raw alternating series loses all significance once its largest
term dwarfs the value (|z| * max(gamma/beta, k/alpha) beyond ~35 or so);
after reflection every term past index |b - a| has one sign and the sum
carries full relative precision.  Both evaluation routes reflect, each in
its own parameter grouping, so they remain distinct floating-point paths.

When b - a is large and negative the reflected terms still alternate up to
index |b - a| and can peak far above the sum (b - a = -15.5, |w| = 9.3 peaks
near 1e8 times the value).  Whenever float rounding of that peak could exceed
rel_tol of the sum, the series is summed again in decimal arithmetic from the
exact float inputs, at a precision that covers the peak.
"""

from __future__ import annotations

import cmath
import decimal
import math
from dataclasses import dataclass

from scipy import integrate

from .errors import ConvergenceError, DomainError
from .kcore import MLParams

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


def _sum_ratio_series(t0, step, cap, cfg):
    """Kahan-compensated sum of t0 * prod(step(j)) with geometric tail control.

    step(n) maps t_n to t_{n+1}; every ratio from index n onward is bounded
    in magnitude by cap / (n + 1).  Works for real or complex t0/step output.
    """
    term = t0
    total = t0
    comp = 0.0 * t0
    tail = math.inf
    n = 0
    for n in range(1, cfg.max_terms):
        term = step(term, n - 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        q = cap / (n + 1)
        if q < 1.0:
            tail = abs(term) * q / (1.0 - q)
            if tail <= cfg.rel_tol * abs(total):
                return total, n + 1, tail, True
    return total, n + 1, tail, False


def _cancels(t0, step, n_alt, total, cfg):
    """True when rounding in the alternating terms t_0..t_{n_alt} could
    exceed rel_tol of the float sum total."""
    term = t0
    peak = abs(t0)
    for m in range(n_alt):
        term = step(term, m)
        peak = max(peak, abs(term))
    return peak * (n_alt + 1) * _EPS > cfg.rel_tol * abs(total)


def _decimal_sum(t0, x, p, q, r, s, cap, cfg):
    """Sum t0 * sum_n prod_{j<n} x (p + j q) / ((r + j s) (j + 1)) in decimal
    arithmetic with the float inputs taken exactly.

    The precision doubles until the rounding of the largest term is below
    rel_tol of the sum; the stopping rule is the geometric tail bound of
    _sum_ratio_series with the same cap.  Not certified at 320 digits means
    converged is False.
    """
    x, p, q, r, s = (decimal.Decimal(v) for v in (x, p, q, r, s))
    prec = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            term = total = +decimal.Decimal(t0)
            peak = abs(term)
            tail = math.inf
            ok = False
            for n in range(1, cfg.max_terms):
                j = n - 1
                term = term * x * (p + j * q) / ((r + j * s) * n)
                total += term
                peak = max(peak, abs(term))
                ratio = cap / (n + 1)
                if ratio < 1.0:
                    tail = abs(float(term)) * ratio / (1.0 - ratio)
                    if tail <= cfg.rel_tol * abs(float(total)):
                        ok = True
                        break
            value = float(total)
            rounding = float(peak) * n * 10.0 ** (1 - prec)
        if rounding <= cfg.rel_tol * abs(value) or prec >= 320:
            return value, n + 1, tail + rounding, ok and rounding <= cfg.rel_tol * abs(value)
        prec *= 2


def _ml_sum(params: MLParams, z, cfg: EvalConfig):
    a, b, g, k = params.alpha, params.beta, params.gamma, params.k
    t0 = 1.0 / math.gamma(b)
    if z == 0:
        return t0 + 0 * z, 1, 0.0, True
    neg = (z.real if isinstance(z, complex) else z) < 0.0
    if not neg:
        cap = abs(z) * max(g / b, k / a)

        def step(term, m):
            return term * z * (g + m * k) / ((b + m * a) * (m + 1))

        return _sum_ratio_series(t0 + 0 * z, step, cap, cfg)

    # reflected series in k-symbol grouping: shifted numerator beta - alpha*gamma/k,
    # assembled from the ratio difference so the degenerate beta/alpha == gamma/k
    # case cancels exactly instead of leaving an O(eps) residue for e**y to amplify
    c_sym = a * (b / a - g / k)
    y = -z
    cap = abs(y) * (k / a) * max(abs(c_sym) / b, 1.0)

    def step(term, m):
        return term * y * (k / a) * (c_sym + m * a) / ((b + m * a) * (m + 1))

    total, used, tail, ok = _sum_ratio_series(t0 + 0 * z, step, cap, cfg)
    if isinstance(z, complex):
        scale = cmath.exp((k / a) * z)
    else:
        if c_sym < 0.0 and _cancels(t0, step, math.ceil(-c_sym / a), total, cfg):
            total, used, tail, ok = _decimal_sum(t0, y * (k / a), c_sym, a, b, a, cap, cfg)
        scale = math.exp((k / a) * z)
    return scale * total, used, abs(scale) * tail, ok


def ml_eval(params: MLParams, z: float, cfg: EvalConfig | None = None) -> SeriesResult:
    """Sum the series at real z.  Never raises on slow convergence; inspect
    the converged flag (or use ml_eval_complex, which does raise)."""
    if isinstance(z, complex):
        raise DomainError("z must be real here; use ml_eval_complex")
    cfg = cfg or _DEFAULT_CONFIG
    value, used, tail, ok = _ml_sum(params, float(z), cfg)
    return SeriesResult(value, used, tail, ok)


def ml_eval_complex(params: MLParams, z: complex, cfg: EvalConfig | None = None) -> complex:
    """Series value at complex z; raises ConvergenceError if the tail bound
    never certifies rel_tol."""
    cfg = cfg or _DEFAULT_CONFIG
    value, used, tail, ok = _ml_sum(params, complex(z), cfg)
    if not ok:
        raise ConvergenceError(
            f"series at z={z} not converged after {used} terms (tail bound {tail:.3e})",
            partial=SeriesResult(abs(value), used, tail, False),
        )
    return value


def ml_eval_via_1f1(params: MLParams, z: float, cfg: EvalConfig | None = None) -> SeriesResult:
    """Cross-check route: E(z) = 1F1(gamma/k; beta/alpha; (k/alpha) z) / Gamma(beta),
    summed as a Kummer series in the rescaled argument."""
    if isinstance(z, complex):
        raise DomainError("z must be real here")
    cfg = cfg or _DEFAULT_CONFIG
    a = params.gamma_over_k
    b = params.beta_over_alpha
    w = (params.k / params.alpha) * float(z)
    t0 = 1.0 / math.gamma(params.beta)
    if w == 0.0:
        return SeriesResult(t0, 1, 0.0, True)
    if w > 0.0:
        cap = w * max(a / b, 1.0)

        def step(term, m):
            return term * w * (a + m) / ((b + m) * (m + 1))

        value, used, tail, ok = _sum_ratio_series(t0, step, cap, cfg)
        return SeriesResult(value, used, tail, ok)

    c = b - a
    y = -w
    cap = y * max(abs(c) / b, 1.0)

    def step(term, m):
        return term * y * (c + m) / ((b + m) * (m + 1))

    value, used, tail, ok = _sum_ratio_series(t0, step, cap, cfg)
    if c < 0.0 and _cancels(t0, step, math.ceil(-c), value, cfg):
        value, used, tail, ok = _decimal_sum(t0, y, c, 1.0, b, 1.0, cap, cfg)
    scale = math.exp(w)
    return SeriesResult(scale * value, used, scale * tail, ok)


def ml_laplace(params: MLParams, s: float, cfg: EvalConfig | None = None) -> float:
    """Laplace transform of E over [0, inf) in closed form:

        (1/s) * 2F1(1, gamma/k; beta/alpha; (k/alpha)/s) / Gamma(beta)

    valid for s > k/alpha; smaller s is reported as divergent (DomainError).
    """
    cfg = cfg or _DEFAULT_CONFIG
    thresh = params.k / params.alpha
    if not (isinstance(s, (int, float)) and math.isfinite(s)):
        raise DomainError(f"s must be a finite real, got {s!r}")
    if s <= thresh:
        raise DomainError(
            f"transform diverges for s <= k/alpha = {thresh}; got s = {s}"
        )
    w = thresh / s
    a = params.gamma_over_k
    b = params.beta_over_alpha

    def step(term, m):
        return term * w * (a + m) / (b + m)

    # ratio at order m is w*(a+m)/(b+m) -> w < 1, bounded by w*max(a/b, 1)
    term = 1.0
    total = 1.0
    comp = 0.0
    for n in range(1, cfg.max_terms):
        term = step(term, n - 1)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        r = w * max((a + n) / (b + n), 1.0)
        if r < 1.0 and abs(term) * r / (1.0 - r) <= cfg.rel_tol * abs(total):
            return total / (s * math.gamma(params.beta))
    raise ConvergenceError(
        f"2F1 series at w={w} not converged after {cfg.max_terms} terms"
    )


def ml_laplace_quad(
    params: MLParams,
    s: float,
    cfg: EvalConfig | None = None,
    rel_tol: float = 1e-11,
) -> float:
    """Verification route: numerically integrate exp(-s x) E(x) on [0, inf).

    The integrand decays like exp(-(s - k/alpha) x) times a power, so the
    cutoff doubles until the estimated remainder is negligible against the
    running value.
    """
    cfg = cfg or _DEFAULT_CONFIG
    rate = s - params.k / params.alpha
    if rate <= 0.0:
        raise DomainError(
            f"integral diverges for s <= k/alpha = {params.k / params.alpha}"
        )

    def f(x):
        return math.exp(-s * x) * ml_eval(params, x, cfg).value

    def probe(x):
        # E grows with x, so a finite value at the cutoff vouches for [0, x]
        value = f(x)
        if not math.isfinite(value):
            raise ConvergenceError(
                f"integrand not finite at x={x} (s={s}): E overflows before the tail is negligible"
            )
        return value

    upper = 16.0 / rate
    tail = probe(upper)
    value, err = integrate.quad(f, 0.0, upper, epsabs=0.0, epsrel=rel_tol, limit=200)
    while tail * 2.0 / rate > rel_tol * abs(value):
        upper *= 2.0
        if upper > 1e7:
            raise ConvergenceError(f"cutoff search runaway at s={s}")
        tail = probe(upper)
        value, err = integrate.quad(f, 0.0, upper, epsabs=0.0, epsrel=rel_tol, limit=400)
    if not math.isfinite(value):
        raise ConvergenceError(f"quadrature value {value!r} at s={s}")
    if err > 100.0 * rel_tol * abs(value) + 1e-300:
        raise ConvergenceError(
            f"quadrature error estimate {err:.3e} too large for value {value:.6e}"
        )
    return value
