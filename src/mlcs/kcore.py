"""Deformed gamma-function kernel: k-gamma, Pochhammer k-symbols, and the
generalized factorial that normalizes the four-parameter Mittag-Leffler series.

Conventions used throughout the package:

    k_gamma(x, k)        = k**(x/k - 1) * Gamma(x/k)
    k_pochhammer(x,n,k)  = x (x+k) (x+2k) ... (x+(n-1)k),  empty product = 1
    gen_gamma(p, n)      = Gamma(beta) * k_pochhammer(beta, n, alpha)

so that k=1 recovers the ordinary gamma / rising factorial and the n-th
series denominator gen_gamma reduces to Gamma(beta + n) when alpha = 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

# Largest x with Gamma(x) finite in float64.
MAX_GAMMA_ARG = 171.61447887182298
# log of the largest finite float64, ~709.78.
_LOG_MAX = math.log(sys.float_info.max)


def _require_positive(value, name: str) -> float:
    """The package's one positive-finite check; returns value as a float."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _require_nonnegative(value, name: str) -> float:
    """The package's one nonnegative-finite check; returns value as a float."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class MLParams:
    """Parameter quadruple (alpha, beta, gamma, k), all strictly positive."""

    alpha: float
    beta: float
    gamma: float
    k: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "k"):
            _require_positive(getattr(self, name), name)

    @property
    def gamma_over_k(self) -> float:
        return self.gamma / self.k

    @property
    def beta_over_alpha(self) -> float:
        return self.beta / self.alpha


UNIT_PARAMS = MLParams(1.0, 1.0, 1.0, 1.0)


def _gamma(x: float, name: str = "beta") -> float:
    """Gamma(x) of a parameter called name; OverflowError naming it once the
    value leaves float64 (math.gamma's own message names nothing)."""
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"Gamma({name}) exceeds float64 range at {name} = {x!r}") from None


def k_gamma(x: float, k: float) -> float:
    """Deformed gamma function k**(x/k - 1) * Gamma(x/k).

    Reduces to Gamma(x) at k=1 and satisfies the recurrence
    k_gamma(x + k, k) = x * k_gamma(x, k).  Raises OverflowError once
    Gamma(x/k), or the assembled value, leaves float64 range; underflow
    toward zero is returned as-is.
    """
    _require_positive(x, "x")
    _require_positive(k, "k")
    t = x / k
    if t > MAX_GAMMA_ARG:
        raise OverflowError(f"k_gamma({x}, {k}): Gamma({t}) exceeds float64 range")
    log_scale = (t - 1.0) * math.log(k)
    if abs(log_scale) < 700.0:
        # direct product keeps full precision whenever both factors are representable
        value = math.pow(k, t - 1.0) * math.gamma(t)
        if 0.0 < value < math.inf:
            return value
    total = log_scale + math.lgamma(t)
    if total >= _LOG_MAX:
        raise OverflowError(f"k_gamma({x}, {k}) exceeds float64 range")
    return math.exp(total)


def log_k_gamma(x: float, k: float) -> float:
    """log of k_gamma, safe far beyond float64 overflow of the value itself."""
    _require_positive(x, "x")
    _require_positive(k, "k")
    t = x / k
    return (t - 1.0) * math.log(k) + math.lgamma(t)


def _check_pochhammer_args(x, n, k):
    _require_positive(x, "x")
    if not (isinstance(n, int) and not isinstance(n, bool)) or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    if not (isinstance(k, (int, float)) and math.isfinite(k) and k >= 0):
        raise DomainError(f"k must be a nonnegative finite number, got {k!r}")


def k_pochhammer(x: float, n: int, k: float) -> float:
    """Pochhammer k-symbol x (x+k) ... (x+(n-1)k); n=0 gives 1, k=0 gives x**n."""
    _check_pochhammer_args(x, n, k)
    p = 1.0
    for j in range(n):
        p *= x + j * k
    if math.isinf(p):
        raise OverflowError(
            f"k_pochhammer({x}, {n}, {k}) exceeds float64 range; use log_k_pochhammer"
        )
    return p


def log_k_pochhammer(x: float, n: int, k: float) -> float:
    """log of the Pochhammer k-symbol via gamma ratios, usable up to n ~ 1e6."""
    _check_pochhammer_args(x, n, k)
    if n == 0:
        return 0.0
    if k == 0.0:
        return n * math.log(x)
    t = x / k
    return n * math.log(k) + math.lgamma(t + n) - math.lgamma(t)


def gen_gamma(params: MLParams, n: int) -> float:
    """Series denominator Gamma(beta) * (beta)_{n, alpha} at order n.

    Equals Gamma(beta + n) for alpha = 1 and grows like a factorial in n;
    OverflowError from the underlying product propagates so callers can
    switch to log_gen_gamma.
    """
    return math.gamma(params.beta) * k_pochhammer(params.beta, n, params.alpha)


def log_gen_gamma(params: MLParams, n: int) -> float:
    """log of gen_gamma, computed through gamma ratios (no intermediate overflow)."""
    return math.lgamma(params.beta) + log_k_pochhammer(params.beta, n, params.alpha)
