"""Shared core of the package: the parameter quadruple (alpha, beta, gamma, k),
a Gamma that names its argument on overflow, the input validators, and the
coefficients of Stirling's series, which both numpy log Gammas and the Gamma
ratio of the Meijer kernel's connection formula read.

The series of the four-parameter Mittag-Leffler function is written with the
Pochhammer k-symbol

    (x)_{n,k} = x (x+k) (x+2k) ... (x+(n-1)k) = k**n Gamma(x/k + n) / Gamma(x/k),

the empty product (n = 0) being 1, so that k = 1 recovers the rising
factorial; the n-th term of the series is
(gamma)_{n,k} z**n / (Gamma(beta) (beta)_{n,alpha} n!).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError

# log of the largest finite float64, ~709.78.
_LOG_MAX = math.log(sys.float_info.max)
# B_2k (DLMF 24.2.1), k = 1..8, and the coefficients B_2k / (2k (2k-1)) of
# Stirling's series (DLMF 5.11.1) in Horner order, highest power of 1/z**2
# first: within 1e-16 of log Gamma(z) at |z| >= 8.  Plain floats, so that
# the series functions, which import this module, need no numpy.
_B2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_STIRLING = tuple(b / (k * (k - 1.0)) for b, k in zip(_B2K, range(2, 17, 2)))[::-1]


def _require_positive(value, name: str) -> float:
    """The package's one positive-finite check (bools refused); returns a float."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def _require_nonnegative(value, name: str) -> float:
    """The package's one nonnegative-finite check (bools refused); returns a float."""
    if isinstance(value, bool) or not (
            isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")
    return float(value)


def _require_finite(value, name: str) -> float:
    """The package's one finite-real check (bools refused); returns a float."""
    if isinstance(value, bool) or not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise DomainError(f"{name} must be a finite real, got {value!r}")
    return float(value)


def _require_count(value, name: str, least: int) -> int:
    """The package's one integer-count check (bools refused); returns value."""
    if isinstance(value, bool) or not (isinstance(value, int) and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


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
