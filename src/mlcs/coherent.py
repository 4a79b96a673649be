"""Deformed annihilation-operator eigenstates (Barut-Girardello construction)
over the Fock basis whose weights come from the generalized Mittag-Leffler
series.

The deformed ladder obeys

    lower |n> = sqrt(e_n) |n-1>,    e_n = n (beta + alpha (n-1)) / (gamma + k (n-1))

and the normalized eigenstate with complex label z has coefficients

    c_n = E(|z|^2)^{-1/2} * sqrt(t_n(|z|^2)) * exp(i n arg z)

where t_n(x) is the n-th (positive) term of the series E(x).  Working with
the series terms directly keeps normalization automatic and every amplitude
a square root of a probability.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, TruncationOverflowError
from .kcore import MLParams, _require_nonnegative
from .mlfunc import _BIG, _DEFAULT_CONFIG, _DOWN, EvalConfig, _ml_sum

__all__ = [
    "TOP_COEFF_TOL",
    "CSLabel",
    "FockExpansion",
    "structure_e",
    "ladder_lower",
    "ladder_raise",
    "cs_build",
    "overlap",
    "overlap_from_coeffs",
    "expectation_ordered_power",
    "ordered_moment_fock",
    "PhotonDistribution",
    "photon_distribution",
    "expansion_distance",
]

# Raising past the truncation window is allowed only when the top
# coefficient is already below this magnitude.
TOP_COEFF_TOL = 1e-14

_TWO_PI = 2.0 * math.pi
_MAX_TERMS = 10000  # term budget of a state's series window


@dataclass(frozen=True)
class CSLabel:
    """Polar label (modulus, phase) of an eigenstate; phase stored in [0, 2*pi)."""

    modulus: float
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modulus", _require_nonnegative(self.modulus, "modulus"))
        if not (isinstance(self.phase, (int, float)) and math.isfinite(self.phase)):
            raise DomainError(f"phase must be finite, got {self.phase!r}")
        object.__setattr__(self, "phase", float(self.phase) % _TWO_PI)

    @classmethod
    def from_complex(cls, w: complex) -> "CSLabel":
        w = complex(w)
        return cls(abs(w), cmath.phase(w) % _TWO_PI)

    @property
    def value(self) -> complex:
        return self.modulus * cmath.exp(1j * self.phase)


@dataclass(frozen=True)
class FockExpansion:
    """Truncated number-basis vector with its parameter set and the mass
    discarded by truncation."""

    coeffs: np.ndarray
    params: MLParams
    tail_mass: float = 0.0

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coeffs must be a nonempty 1-d array")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def truncation(self) -> int:
        """Highest occupied index N (window is 0..N)."""
        return self.coeffs.size - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    @classmethod
    def basis(cls, n: int, params: MLParams, size: int | None = None) -> "FockExpansion":
        """Unit vector |n> in a window of the given size (default n+1)."""
        if n < 0:
            raise DomainError(f"n must be >= 0, got {n}")
        size = (n + 1) if size is None else size
        if size < n + 1:
            raise DomainError(f"window size {size} cannot hold index {n}")
        c = np.zeros(size, dtype=np.complex128)
        c[n] = 1.0
        return cls(c, params)


def structure_e(params: MLParams, n: int) -> float:
    """Ladder structure value e_n = n (beta + alpha (n-1)) / (gamma + k (n-1)).

    Defined for integer n >= 1; e_1 = beta/gamma sets the ground spacing.
    """
    if not (isinstance(n, int) and not isinstance(n, bool)) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    return _structure(params, n)


def _structure(params: MLParams, n):
    """e_n for an integer n or elementwise over an integer array n."""
    return n * (params.beta + params.alpha * (n - 1)) / (params.gamma + params.k * (n - 1))


def ladder_lower(state: FockExpansion) -> FockExpansion:
    """Apply the lowering operator: out[n] = sqrt(e_{n+1}) * in[n+1], top slot 0."""
    c = state.coeffs
    out = np.zeros_like(c)
    out[:-1] = np.sqrt(_structure(state.params, np.arange(1, c.size))) * c[1:]
    return FockExpansion(out, state.params, state.tail_mass)


def ladder_raise(state: FockExpansion) -> FockExpansion:
    """Apply the raising operator: out[n+1] = sqrt(e_{n+1}) * in[n].

    The window does not grow; weight in the top slot would silently fall off,
    so any top coefficient above TOP_COEFF_TOL is an error.
    """
    c = state.coeffs
    if abs(c[-1]) > TOP_COEFF_TOL:
        raise TruncationOverflowError(
            f"top coefficient {abs(c[-1]):.3e} exceeds {TOP_COEFF_TOL:.1e}; "
            "enlarge the window before raising"
        )
    out = np.zeros_like(c)
    out[1:] = np.sqrt(_structure(state.params, np.arange(1, c.size))) * c[:-1]
    return FockExpansion(out, state.params, state.tail_mass)


def _series_terms(params: MLParams, x: float):
    """Positive series terms t_n(x) until both the geometric tail and the last
    kept term are negligible; returns (terms, total, tail_bound), all three
    scaled by the same power of two.  A term past 2**960 scales everything
    kept by 2**-960, as mlfunc._series does, so the sum stays finite."""
    a, b, g, k = params.alpha, params.beta, params.gamma, params.k
    t = 1.0 / math.gamma(b)
    terms = [t]
    total = t
    if x == 0.0:
        return terms, total, 0.0
    cap = x * max(g / b, k / a)
    for n in range(1, _MAX_TERMS):
        t *= x * (g + (n - 1) * k) / ((b + (n - 1) * a) * n)
        terms.append(t)
        total += t
        q = cap / (n + 1)
        if q < 1.0:
            tail = t * q / (1.0 - q)
            # deep cut: the top kept probability must be tiny so ladder raises
            # stay legal and eigenvalue checks hold through the last slot
            if tail <= 1e-13 * total and t <= 1e-30 * total:
                return terms, total, tail
        elif t > _BIG:  # terms grow only while q >= 1
            terms = [v * _DOWN for v in terms]
            t, total = t * _DOWN, total * _DOWN
    raise ConvergenceError(
        f"series terms at x={x} not settled after {_MAX_TERMS} terms"
    )


def cs_build(z: CSLabel, params: MLParams) -> FockExpansion:
    """Build the normalized eigenstate of the lowering operator with label z.

    Probabilities are series terms over their sum, so sum |c_n|^2 = 1 up to
    rounding regardless of where the window is cut; the discarded mass
    (reported as tail_mass, relative) stays below 1e-12.
    """
    x = z.modulus ** 2
    terms, total, tail = _series_terms(params, x)
    amps = np.sqrt(np.asarray(terms) / total)
    if z.phase != 0.0 and z.modulus > 0.0:
        amps = amps * np.exp(1j * z.phase * np.arange(len(terms)))
    return FockExpansion(amps, params, tail_mass=tail / total)


def overlap(z1: CSLabel, z2: CSLabel, params: MLParams,
            cfg: EvalConfig | None = None) -> complex:
    """Inner product <z1|z2> = E(conj(z1) z2) / sqrt(E(|z1|^2) E(|z2|^2)).

    The three series are divided as mlfunc returns them, scaled by powers
    of two, so the overlap stays finite where E itself leaves float64.
    Equal labels return exactly 1 (the normalization identity,
    applied as a shortcut rather than re-derived through rounded sums).
    """
    cfg = cfg or _DEFAULT_CONFIG
    if z1 == z2:
        return 1.0 + 0.0j
    w = z1.value.conjugate() * z2.value
    num, num_exp, _, _, num_ok = _ml_sum(params, w, cfg)
    d1, d1_exp, _, _, d1_ok = _ml_sum(params, z1.modulus ** 2, cfg)
    d2, d2_exp, _, _, d2_ok = _ml_sum(params, z2.modulus ** 2, cfg)
    if not (num_ok and d1_ok and d2_ok):
        raise ConvergenceError(f"overlap series at w={w} did not converge")
    # two square roots: the product of the normalizations overflows first;
    # the exponents are multiples of 960, so their half is an integer
    ratio = num / (math.sqrt(d1) * math.sqrt(d2))
    shift = num_exp - (d1_exp + d2_exp) // 2
    return complex(math.ldexp(ratio.real, shift), math.ldexp(ratio.imag, shift))


def overlap_from_coeffs(a: FockExpansion, b: FockExpansion) -> complex:
    """Direct coefficient-space inner product sum conj(a_n) b_n (cross-check route)."""
    n = min(a.coeffs.size, b.coeffs.size)
    return complex(np.vdot(a.coeffs[:n], b.coeffs[:n]))


def expectation_ordered_power(z: CSLabel, params: MLParams, m: int) -> float:
    """<z| raise^m lower^m |z> = |z|^(2m), immediate from the eigenvalue property."""
    if not (isinstance(m, int) and not isinstance(m, bool)) or m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m!r}")
    return (z.modulus ** 2) ** m


def ordered_moment_fock(z: CSLabel, params: MLParams, m: int) -> float:
    """Same ordered moment summed over the photon distribution:
    sum_n p_n * e_n e_{n-1} ... e_{n-m+1}."""
    if not (isinstance(m, int) and not isinstance(m, bool)) or m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m!r}")
    state = cs_build(z, params)
    p = np.abs(state.coeffs) ** 2
    e = _structure(params, np.arange(1, p.size))
    w = np.ones(max(p.size - m, 0))
    for j in range(m):
        w *= e[m - 1 - j:e.size - j]
    return float(np.dot(p[m:], w))


@dataclass(frozen=True)
class PhotonDistribution:
    """Number-basis probabilities with the relative mass lost to truncation."""

    probs: np.ndarray
    tail_mass: float

    def __post_init__(self):
        arr = np.array(self.probs, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)


def photon_distribution(z: CSLabel, params: MLParams) -> PhotonDistribution:
    """p_n = t_n(|z|^2) / E(|z|^2) for the eigenstate with label z."""
    state = cs_build(z, params)
    return PhotonDistribution(np.abs(state.coeffs) ** 2, state.tail_mass)


def expansion_distance(a: FockExpansion, b: FockExpansion) -> float:
    """l2 distance between two expansions, zero-padded to a common window."""
    n = max(a.coeffs.size, b.coeffs.size)
    ca = np.zeros(n, dtype=np.complex128)
    cb = np.zeros(n, dtype=np.complex128)
    ca[: a.coeffs.size] = a.coeffs
    cb[: b.coeffs.size] = b.coeffs
    return float(np.linalg.norm(ca - cb))
