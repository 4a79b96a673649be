"""Evaluation of the four-parameter generalized Mittag-Leffler function

    E(z) = sum_{n>=0} (gamma)_{n,k} z**n / (Gamma(beta) (beta)_{n,alpha} n!)

with the Pochhammer k-symbol (x)_{n,k} = x (x+k) ... (x+(n-1)k), summed
by direct term recursion, plus a confluent-hypergeometric cross-check route
and the Laplace transform of E in closed form and by quadrature.

Every ML and 1F1 series at one argument is summed by one Kahan-compensated
loop, _series, for the term ratio x (p + n q) / ((r + n s) (n + 1)) given as
numbers: (x, p, q, r, s) = (z, gamma, k, beta, alpha) on the direct route and
((k/alpha) z, gamma/k, 1, beta/alpha, 1) on the 1F1 route.  Every series here
stops by one tail rule: (p + j q) / (r + j s) is monotone in j with limit q/s,
so from m = floor(|x| q/s) on each term ratio is at most cap / (n + 1), with
cap = |x| max(|p + m q| / (r + m s), q/s), a bound of at least 1 before m
that certifies nothing there.  Once cap / (n + 1) < 1 the geometric tail past
t_n bounds the rest, and the sum stops when that falls under rel_tol times the
partial sum.  The loop moves exact powers of two (2**960 at a time) out of its
partial sums into a returned exponent, so a sum that stays below 2**960 is the
plain float sum bit for bit, and E beyond float64 raises OverflowError instead
of turning into NaN.  A z that is not a finite number raises DomainError.

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

Where |w| = (k/alpha)|z| reaches _ASYMPTOTIC_FROM = 20, _ml_sum first tries
the expansion DLMF 13.7.2 of E = Gamma(b)/Gamma(beta) M(a, b, w), a = gamma/k,
b = beta/alpha: e^{+-i pi a} w^-a / Gamma(b - a) sum (a)_s (a - b + 1)_s / s!
(-w)^-s + e^w w^(a - b) / Gamma(a) sum (1 - a)_s (b - a)_s / s! w^-s, the sign
that of Im w.  Each sum stops at its first term below target under the Olver
bound DLMF 13.7.4; on the real axis the sum decaying along it only counts as
error, unless 1 / Gamma(b - a) = 0 and the other terminates.  The tail bound
adds the rounding of the sums and of the prefactors, each formed as one
exponent.  Where it certifies rel_tol, the expansion gives E in tens of terms,
elsewhere the series does; a complex series is certified only where twice eps
times its largest term, its rounding where the terms cancel, is below rel_tol
too.  ml_eval_via_1f1, the referee, and _ml_table always sum the series.

Callers that need E at many nonnegative x at once (the nodes of a rule) take
_ml_table instead: the terms of Gamma(beta) E(x_i), first term 1, as one
array, row i a cumulative product of the term ratios x_i (gamma + j k) /
((beta + j alpha) (j + 1)), built 64 columns at a time.  Each row has its
own power-of-two exponent, moved out of its partial sum between blocks, and
stops at its own first index where the tail rule certifies rel_tol, the
terms past it masked to 0, so a row's value does not depend on the other x
of its call.  The table returns each row's sum, exponent and tail bound.

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
from .kcore import _LOG_MAX, MLParams, _gamma, _require_count, _require_finite, _require_positive

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
        if _require_positive(self.rel_tol, "rel_tol") >= 1.0:
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        _require_count(self.max_terms, "max_terms", 10)


_DEFAULT_CONFIG = EvalConfig()
_EPS = 2.0 ** -52
# partial sums are kept below 2**_SHIFT by moving that power into an exponent
_SHIFT = 960
_BIG = 2.0 ** _SHIFT
_DOWN = 2.0 ** -_SHIFT
_UNDO = 2.0 ** 50  # 10,000 terms below 2**(_SHIFT + 50) sum below float64 max unscaled
_LN2 = math.log(2.0)
# |w| = (k/alpha)|z| from which _ml_sum tries the large-argument expansion:
# below it the expansion's smallest term seldom reaches 1e-12
_ASYMPTOTIC_FROM = 20.0


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


def _series(t0, x, p, q, r, s, cfg):
    """Kahan sum of t0 * sum_n prod_{j<n} x (p + j q) / ((r + j s) (j + 1)).

    Stops by the tail rule of the module docstring, its cap worked out once
    on entry (a cap that reaches the term budget returns t0 alone there,
    unconverged).  Runs on float or complex values, or in decimal from the
    exact float inputs when t0 is a Decimal.  A term past 2**960 moves that
    power of two from the term, the sum and the compensation into the
    exponent e (exact in binary), so the value is total * 2**e; once the
    terms fall back below 2**960 and no term reached 2**1010, the power moves
    back before the terms underflow in the scaled units.  Returns (total, e,
    terms used, tail bound, converged, largest |t_n|), the sums in units of
    2**e; OverflowError if a single term ratio overflows float64.
    """
    m = abs(x) * q / s // 1
    cap = abs(p + m * q) / (r + m * s)
    cap = abs(x) * (cap if cap > q / s else q / s)
    if cap >= cfg.max_terms:  # cap / (n + 1) stays >= 1 within the budget
        return t0, 0, 1, math.inf, False, abs(t0)
    tol, down = cfg.rel_tol, _DOWN
    if isinstance(t0, decimal.Decimal):
        x, p, q, r, s, tol, cap, down = (decimal.Decimal(v) for v in (x, p, q, r, s, tol, cap, down))
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


def _decimal_sum(t0, x, p, q, r, s, cfg):
    """_series in decimal arithmetic with the float inputs taken exactly.

    Exact arithmetic makes a few more terms cheap, so the tail is summed
    down to float resolution (rel_tol at most 2**-52), not only to rel_tol.
    The precision doubles from 40 digits until the rounding of the largest
    term is below rel_tol of the sum.  Converged means both the tail bound
    and that rounding are below rel_tol of the sum; no certificate at 320
    digits gives False.
    """
    fine = EvalConfig(min(cfg.rel_tol, _EPS), cfg.max_terms)
    prec = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            total, e, used, tail, _, peak = _series(+decimal.Decimal(t0), x, p, q, r, s, fine)
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
    summed again in decimal.  At complex z the tail bound adds twice eps times
    the largest term, and converged asks that alone to be below rel_tol of
    the sum too.  Returns (total, e, terms used, tail bound, converged), the
    value being total * 2**e.
    """
    if z == 0:
        return t0 + 0 * z, 0, 1, 0.0, True
    flip = z.real < 0.0
    c = q * (r / s - p / q) if flip else p
    y = -z if flip else z
    total, e, used, tail, ok, peak = _series(t0 + 0 * z, y, c, q, r, s, cfg)
    if isinstance(z, complex):
        rounding = 2.0 * _EPS * peak
        tail, ok = tail + rounding, ok and rounding <= cfg.rel_tol * abs(total)
    if not flip:
        return total, e, used, tail, ok
    if isinstance(z, complex):
        scale = cmath.exp((q / s) * z + e * _LN2)
    else:
        if c < 0.0 and peak * (math.ceil(-c / q) + 1) * _EPS > cfg.rel_tol * abs(total):
            total, e, used, tail, ok = _decimal_sum(t0, y, c, q, r, s, cfg)
        scale = math.exp((q / s) * z + e * _LN2)
    # a budget spent leaves tail = inf, and a scale underflowed to 0 must not
    # turn that bound into NaN
    return scale * total, 0, used, abs(scale) * tail if tail < math.inf else tail, ok


def _asymptotic_sum(a, c, w, target, top):
    """sum_{s<n} (a)_s (c)_s / s! * w**-s for the first n <= top whose term is
    at most target in modulus, as (sum, n, |t_n|, largest |t_s|), |t_n| = inf
    if none is: the terms may grow before they fall, so only top ends it."""
    term, total, peak = 1.0, 0.0 * w, 1.0
    for n in range(top + 1):
        size = abs(term)
        if size <= target:
            return total, n, size, peak
        if size > peak:
            peak = size
        total += term
        term = term * (a + n) * (c + n) / ((n + 1) * w)
    return total, top + 1, math.inf, peak


def _asymptotic(params: MLParams, w, cfg):
    """E by the large-argument expansion of the module docstring, as
    (total, e, used, tail, True) like _kummer_sum, or None where its error
    bound does not certify rel_tol."""
    a, b, r = params.gamma_over_k, params.beta_over_alpha, abs(w)
    if r == math.inf:
        return None
    sigma = abs(b - 2.0 * a) / r
    alf = 1.0 / (1.0 - sigma) if sigma < 1.0 else math.inf
    grow = 2.0 * alf * (0.5 * abs(2.0 * a * (a - b) + b) + sigma * (1.0 + sigma / 4.0) * alf * alf) / r
    if not grow < 400.0:  # only a terminating sum certifies then
        alf = grow = math.inf
    ph, lr, lgb, lgbeta = cmath.phase(w), math.log(r), math.lgamma(b), math.lgamma(params.beta)
    # each sum as (a, c, argument, |ph| of its U argument, log|prefactor|,
    # the magnitudes of the parts of that log added up, the prefactor's phase)
    parts = (lgb, -lgbeta, -math.lgamma(a), w.real, (a - b) * lr)
    sums = [(1.0 - a, b - a, w, math.pi - abs(ph), sum(parts), sum(map(abs, parts)),
             w.imag + (a - b) * ph)]
    if b > a or b - a != math.floor(b - a):  # else 1 / Gamma(b - a) = 0
        parts = (lgb, -lgbeta, -math.lgamma(b - a), -a * lr)
        # near a pole b - a, and pi (b - a) in lgamma, round relative to its distance
        near = (a + b) / abs(b - a - round(b - a)) if b < a else 0.0
        sums.append((a, a - b + 1.0, -w, abs(ph), sum(parts), sum(map(abs, parts)) + near,
                     a * (math.copysign(math.pi, w.imag) - ph) + math.pi * (b < a and math.ceil(a - b) % 2)))
    # on the real axis the sum decaying along it only counts as error
    values = 1 if len(sums) == 2 and not w.imag else len(sums)
    if values == 1 and w.real < 0.0:
        sums.reverse()
    # the largest prefactor, formed as one exponent and phase, carries their
    # rounding, eps times the magnitudes of their parts, unless E underflows
    top, spread, phase = max(t[4:] for t in sums)
    if not (2.0 * _EPS * (spread + abs(phase)) <= cfg.rel_tol or top < -1000.0):
        return None
    e = _SHIFT * max(0, int(top / (_SHIFT * _LN2)))
    total, tail, used = 0.0 * w, 0.0, 0
    for i, (pa, pc, arg, u_ph, lmag, spread, phase) in enumerate(sums):
        # the terms grow for good past the larger root of (s + pa)(s + pc) = (s + 1) r
        h = pa + pc - r
        disc = h * h - 4.0 * (pa * pc - r)
        last = int(min((math.sqrt(disc) - h) / 2.0 + 1.0, cfg.max_terms - 1)) if disc >= 0.0 else 0
        # C_n = chi(n) <= sqrt(pi (n + 1) / 2) and C_1 = pi / 2 past |ph| = pi / 2, else 1
        bound = 2.0 * alf * (math.sqrt(math.pi * (last + 1) / 2.0) * math.exp(grow * math.pi / 2)
                             if u_ph > math.pi / 2 else math.exp(grow))
        mag = math.exp(lmag - e * _LN2)
        if i == values:
            tail += mag * bound
            break
        target = cfg.rel_tol / (4.0 * bound) * math.exp(min(top - lmag, 700.0))
        part, n, size, peak = _asymptotic_sum(pa, pc, arg, target, last)
        total += (cmath.rect(mag, phase) if w.imag else math.copysign(mag, math.cos(phase))) * part
        tail += mag * ((bound * size if size else 0.0)
                       + _EPS * (peak * n + 2.0 * (spread + abs(phase)) * abs(part)))
        used += n
    return (total, e, used, tail, True) if tail <= cfg.rel_tol * abs(total) else None


def _ml_sum(params: MLParams, z, cfg: EvalConfig = _DEFAULT_CONFIG):
    """E(z) = total * 2**e: by _asymptotic where |w| = (k/alpha)|z| reaches
    _ASYMPTOTIC_FROM and it certifies, else as _kummer_sum in the k-symbol
    grouping (x, p, q, r, s) = (z, gamma, k, beta, alpha)."""
    w = params.k / params.alpha * z
    if abs(w) >= _ASYMPTOTIC_FROM:
        got = _asymptotic(params, w, cfg)
        if got is not None:
            return got
    return _kummer_sum(1.0 / _gamma(params.beta), z, params.gamma, params.k,
                       params.beta, params.alpha, cfg)


# columns of the term table built per cumulative product
_TABLE_BLOCK = 64
# a row whose partial sum passes this moves its power of two into the row
# exponent, which leaves a block 2**617 of growth (at (1, 3, 50, 0.5) one
# grows by 2**484 at most for x <= 2000); the tail rule caps no ratio before m
_TABLE_SHIFT = 2.0 ** 400


def _ml_table(params: MLParams, x):
    """Gamma(beta) E (first term 1) at a 1-d float array x >= 0, one row per x.

    Returns (sums, exps, tails): each row's sum and tail bound, both in units
    of 2**exps[i].  Row i stops where the tail rule, with its own cap,
    certifies rel_tol, its terms past that index 0.  ConvergenceError when a
    row needs more than the term budget (at once where its cap reaches it),
    OverflowError when a row's terms leave float64.
    """
    import numpy as np

    a, b, g, k = params.alpha, params.beta, params.gamma, params.k
    tol, budget = _DEFAULT_CONFIG.rel_tol, _DEFAULT_CONFIG.max_terms
    lead = x * k / a // 1
    cap = x * np.maximum((g + lead * k) / (b + lead * a), k / a)
    if cap.size and cap.max() >= budget:
        # cap / (n + 1) < 1 needs more terms than the budget
        raise ConvergenceError(
            f"series at x={float(x[cap.argmax()])} needs over {budget} terms")
    m = x.size
    sums, tails, exps = np.empty(m), np.empty(m), np.zeros(m, dtype=int)
    # the rows still summing: index, x, cap, last term, partial sum, exponent
    idx, xa, ca = np.arange(m), x, cap
    carry, total, e = np.ones(m), np.ones(m), np.zeros(m, dtype=int)
    cols = np.arange(_TABLE_BLOCK)
    # a row past float64 anyway stays inf and ends once cap / (n + 1) < 1, as
    # inf passes the tail test; the cap check above puts that within budget
    with np.errstate(over="ignore"):
        for start in range(1, budget, _TABLE_BLOCK):
            j = cols + start
            ratios = xa[:, None] * ((g + (j - 1) * k) / ((b + (j - 1) * a) * j))
            bound = ca[:, None] / (j + 1)
            terms = carry[:, None] * np.cumprod(ratios, axis=1)
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
    if np.isinf(sums).any():
        raise OverflowError(f"series terms at x={x[np.isinf(sums)][0]} leave float64")
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


def _require_term_in_range(params: MLParams, z, sums) -> None:
    """Where the cap of the sum at z reached the budget at entry and z is real
    with w = (k/alpha) z >= 1, every term is positive, so E >= t_m at
    m = floor(w) (at most 1e300, t_m far past float64 there): a log t_m past
    float64 raises OverflowError instead of returning t_0.  Off the real axis
    no such lower bound on |E| holds."""
    if (sums[2] == 1 and not sums[4] and not z.imag
            and (w := params.k / params.alpha * z.real) >= 1.0):
        a, b, m = params.gamma_over_k, params.beta_over_alpha, math.floor(min(w, 1e300))
        log_t = (math.lgamma(a + m) - math.lgamma(a) + math.lgamma(b) - math.lgamma(b + m)
                 + m * math.log(w) - math.lgamma(m + 1.0) - math.lgamma(params.beta))
        if log_t > _LOG_MAX:
            raise OverflowError(
                f"E at z = {z!r} exceeds float64 range (its term {m:.6g} is e**{log_t:.6g})")


def _real_result(params: MLParams, z: float, sums) -> SeriesResult:
    """SeriesResult of a _kummer_sum result at real z, OverflowError beyond float64."""
    _require_term_in_range(params, z, sums)
    return SeriesResult(*_unscale(z, sums))


def _real_arg(z) -> float:
    if isinstance(z, complex):
        raise DomainError("z must be real here; use ml_eval_complex")
    return _require_finite(z, "z")


def ml_eval(params: MLParams, z: float, cfg: EvalConfig | None = None) -> SeriesResult:
    """E at real z by _ml_sum.  Never raises on slow convergence; inspect
    the converged flag (or use ml_eval_complex, which does raise).  Raises
    OverflowError when E(z) is beyond float64, DomainError unless z is a
    finite real (a bool or a str is refused)."""
    z = _real_arg(z)
    return _real_result(params, z, _ml_sum(params, z, cfg or _DEFAULT_CONFIG))


def ml_eval_complex(params: MLParams, z: complex, cfg: EvalConfig | None = None) -> complex:
    """E at complex z by _ml_sum; raises ConvergenceError where no route
    certifies rel_tol, OverflowError beyond float64 (on the real axis also
    where the series gave up at entry), DomainError unless z is a finite
    number (a bool or a str is refused)."""
    if isinstance(z, bool) or not (isinstance(z, (int, float, complex)) and cmath.isfinite(z)):
        raise DomainError(f"z must be a finite number, got {z!r}")
    z = complex(z)
    total, e, used, tail, ok = sums = _ml_sum(params, z, cfg or _DEFAULT_CONFIG)
    if not ok:  # checked first: a sum that cancelled has no size to speak of either
        _require_term_in_range(params, z, sums)
        raise ConvergenceError(
            f"series at z={z} not certified after {used} terms (tail bound {tail:.3e} * 2**{e})",
            partial=SeriesResult(abs(total), used, tail, False),
        )
    return _unscale(z, sums)[0]


def ml_eval_via_1f1(params: MLParams, z: float) -> SeriesResult:
    """Cross-check route: E(z) = 1F1(gamma/k; beta/alpha; (k/alpha) z) / Gamma(beta),
    summed as a Kummer series in the rescaled argument, (x, p, q, r, s) =
    ((k/alpha) z, gamma/k, 1, beta/alpha, 1)."""
    z = _real_arg(z)
    w = (params.k / params.alpha) * z
    sums = _kummer_sum(1.0 / _gamma(params.beta), w, params.gamma_over_k, 1.0,
                       params.beta_over_alpha, 1.0, _DEFAULT_CONFIG)
    return _real_result(params, z, sums)


def _laplace_arg(params: MLParams, s) -> float:
    """s as a float; DomainError unless it is a finite real above k/alpha,
    where the transform converges."""
    thresh, s = params.k / params.alpha, _require_finite(s, "s")
    if s <= thresh:
        raise DomainError(
            f"transform diverges for s <= k/alpha = {thresh}; got s = {s}"
        )
    return s


def ml_laplace(params: MLParams, s: float) -> float:
    """Laplace transform of E over [0, inf) in closed form:

        (1/s) * 2F1(1, gamma/k; beta/alpha; (k/alpha)/s) / Gamma(beta)

    valid for s > k/alpha; smaller s is reported as divergent (DomainError).
    """
    s = _laplace_arg(params, s)
    w = params.k / params.alpha / s
    a = params.gamma_over_k
    b = params.beta_over_alpha

    # the tail rule of the module docstring per index: past order n every ratio is at most r
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
    target covers it, one term table (of Gamma(beta) E) per level of the
    rule.  The factor
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
    return float(value[0]) / _gamma(params.beta)
