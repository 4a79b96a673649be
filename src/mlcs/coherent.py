"""Deformed annihilation-operator eigenstates (Barut-Girardello construction)
over the Fock basis whose weights come from the generalized Mittag-Leffler
series.

The deformed ladder obeys

    lower |n> = sqrt(e_n) |n-1>,    e_n = n (beta + alpha (n-1)) / (gamma + k (n-1))

and the normalized eigenstate with complex label z has coefficients

    c_n = E(|z|^2)^{-1/2} * sqrt(t_n(|z|^2)) * exp(i n arg z)

where t_n(x) is the n-th (positive) term of the series E(x).  The photon
probabilities p_n = t_n / E come straight from the series terms, which
keeps normalization automatic; the amplitudes are their square roots times
the phase, and nothing that needs only p_n builds them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, TruncationOverflowError
from .kcore import MLParams, _gamma, _require_count, _require_finite, _require_nonnegative
from .mlfunc import _BIG, _DEFAULT_CONFIG, _DOWN, EvalConfig, _ml_sum

__all__ = [
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
        object.__setattr__(self, "phase", _require_finite(self.phase, "phase") % _TWO_PI)

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
        _require_count(n, "n", 0)
        size = (n + 1) if size is None else _require_count(size, "size", n + 1)
        c = np.zeros(size, dtype=np.complex128)
        c[n] = 1.0
        return cls(c, params)


def structure_e(params: MLParams, n: int) -> float:
    """Ladder structure value e_n = n (beta + alpha (n-1)) / (gamma + k (n-1)).

    Defined for integer n >= 1; e_1 = beta/gamma sets the ground spacing.
    """
    return _structure(params, _require_count(n, "n", 1))


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
    kept by 2**-960, as mlfunc._series does, so the sum stays finite.  Every
    ratio past t_n is at most the larger of the next one and x (k/a) / (n+1),
    the mlfunc tail rule per index, which certifies short windows too."""
    a, b, g, k = params.alpha, params.beta, params.gamma, params.k
    t = 1.0 / _gamma(b)
    terms = [t]
    total = t
    if x == 0.0:
        return terms, total, 0.0
    ratio, rate = x * g / b, x * k / a
    for n in range(1, _MAX_TERMS):
        t *= ratio
        terms.append(t)
        total += t
        ratio = x * (g + n * k) / ((b + n * a) * (n + 1))
        if t <= 1e-30 * total or t > _BIG:  # only these terms can stop or rescale
            q = rate / (n + 1)
            if ratio > q:
                q = ratio
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


def _fock_probs(params: MLParams, x: float):
    """(p_n = t_n(x) / E(x) over the window, relative tail mass)."""
    terms, total, tail = _series_terms(params, x)
    return np.asarray(terms) / total, tail / total


def cs_build(z: CSLabel, params: MLParams) -> FockExpansion:
    """Build the normalized eigenstate of the lowering operator with label z.

    Probabilities are series terms over their sum, so sum |c_n|^2 = 1 up to
    rounding regardless of where the window is cut; the discarded mass
    (reported as tail_mass, relative) stays below 1e-12.
    """
    p, tail_mass = _fock_probs(params, z.modulus ** 2)
    amps = np.sqrt(p)
    if z.phase != 0.0 and z.modulus > 0.0:
        amps = amps * np.exp(1j * z.phase * np.arange(p.size))
    return FockExpansion(amps, params, tail_mass)


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
    num, num_exp, _, num_tail, _ = _ml_sum(params, w, cfg)
    d1, d1_exp, _, _, d1_ok = _ml_sum(params, z1.modulus ** 2, cfg)
    d2, d2_exp, _, _, d2_ok = _ml_sum(params, z2.modulus ** 2, cfg)
    # two square roots: the product of the normalizations overflows first;
    # the exponents are multiples of 960, so their half is an integer
    norm = math.sqrt(d1) * math.sqrt(d2)
    shift = num_exp - (d1_exp + d2_exp) // 2
    # |<z1|z2>| <= 1, so the numerator's error bound is held to rel_tol of the
    # normalization: away from the real axis the numerator itself cancels
    if not (d1_ok and d2_ok and math.ldexp(num_tail / norm, shift) <= cfg.rel_tol):
        raise ConvergenceError(f"overlap series at w={w} did not converge")
    ratio = num / norm
    return complex(math.ldexp(ratio.real, shift), math.ldexp(ratio.imag, shift))


def overlap_from_coeffs(a: FockExpansion, b: FockExpansion) -> complex:
    """Direct coefficient-space inner product sum conj(a_n) b_n (cross-check route)."""
    n = min(a.coeffs.size, b.coeffs.size)
    return complex(np.vdot(a.coeffs[:n], b.coeffs[:n]))


def expectation_ordered_power(z: CSLabel, params: MLParams, m: int) -> float:
    """<z| raise^m lower^m |z> = |z|^(2m), immediate from the eigenvalue property."""
    return _power(z.modulus ** 2, _require_count(m, "m", 0))


def _power(x: float, m: int) -> float:
    """x**m = |z|^(2m); OverflowError naming it beyond float64."""
    try:
        return x ** m
    except OverflowError:
        raise OverflowError(f"|z|^(2m) exceeds float64 range at |z|^2 = {x!r}, m = {m}") from None


def ordered_moment_fock(z: CSLabel, params: MLParams, m: int) -> float:
    """Same ordered moment summed over the photon distribution:
    sum_n p_n * e_n e_{n-1} ... e_{n-m+1}.

    The summands run m terms past the window cut at N (the last p_n at or
    above 2**-960); there p_n e_n = x p_{n-1} makes the one at n = N + d
    x**d times the top's partial product p_N e_N ... e_{N-m+d+1}.
    """
    m, x = _require_count(m, "m", 0), z.modulus ** 2
    _power(x, m)  # the sum is |z|^(2m): name its overflow before summing
    p, _ = _fock_probs(params, x)
    cut = p.size if p[-1] >= _DOWN else int(np.flatnonzero(p >= _DOWN)[-1]) + 1
    e = _structure(params, np.arange(1, cut))
    tail, t = 0.0, float(p[cut - 1])
    for j in range(min(m, cut)):  # t = x**j p_{N-j}, the top after j factors
        tail += x ** (m - j) * t
        t = t * e[cut - 2 - j] if j < cut - 1 else 0.0
    for j in range(m if m < cut else 0):  # after j factors x**j p_{n-j}
        p[m:cut] *= e[m - 1 - j:e.size - j]
    return float(p[m:cut].sum() + tail)


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
    return PhotonDistribution(*_fock_probs(params, z.modulus ** 2))


def expansion_distance(a: FockExpansion, b: FockExpansion) -> float:
    """l2 distance between two expansions, zero-padded to a common window."""
    n = max(a.coeffs.size, b.coeffs.size)
    ca = np.zeros(n, dtype=np.complex128)
    cb = np.zeros(n, dtype=np.complex128)
    ca[: a.coeffs.size] = a.coeffs
    cb[: b.coeffs.size] = b.coeffs
    return float(np.linalg.norm(ca - cb))
