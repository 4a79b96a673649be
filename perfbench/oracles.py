"""Reference values the benchmark checks mlcs against, and the checks.

Every reference is computed here, apart from the program: mpmath's hyp1f1,
hyperu, hyp2f1, polylog and quad at 30 digits, or a closed form.  Nothing
is a stored copy of an earlier output of mlcs.  mpmath is imported on first
use so that it never counts in a workload's set-up time.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

DPS = 30
_mp = None


def mp():
    global _mp
    if _mp is None:
        import mpmath

        mpmath.mp.dps = DPS
        _mp = mpmath
    return _mp


# ---------------------------------------------------------------- checks
# Each returns None when the value passes and a one-line reason otherwise.


def _is_number(v):
    return isinstance(v, (int, float, complex, np.floating, np.complexfloating))


def check_close(value, ref, rtol, atol=0.0):
    """|value - ref| <= rtol * |ref| + atol, value finite."""
    if not _is_number(value):
        return f"expected a number, got {type(value).__name__}"
    if not (math.isfinite(abs(value))):
        return f"non-finite value {value!r} (reference {ref!r})"
    ref = complex(ref) if isinstance(value, complex) else float(ref)
    err = abs(value - ref)
    if not err <= rtol * abs(ref) + atol:
        return f"{value!r} vs reference {ref!r}: error {err:.3e} > {rtol:.0e}*|ref| + {atol:.0e}"
    return None


def check_array(values, ref, rtol, atol=0.0):
    """Element-wise check_close on equally shaped arrays."""
    values = np.asarray(values)
    ref = np.asarray(ref)
    if values.shape != ref.shape:
        return f"shape {values.shape} vs reference {ref.shape}"
    if not np.all(np.isfinite(values)):
        return f"{int(np.sum(~np.isfinite(values)))} non-finite entries"
    err = np.abs(values - ref)
    bad = err > rtol * np.abs(ref) + atol
    if np.any(bad):
        i = int(np.argmax(err - rtol * np.abs(ref) - atol))
        return f"entry {i}: {values.flat[i]!r} vs {ref.flat[i]!r} (rtol {rtol:.0e}, atol {atol:.0e})"
    return None


def first_problem(*problems):
    for p in problems:
        if p is not None:
            return p
    return None


# ------------------------------------------------------- closed forms


def _ab(p):
    return p.gamma / p.k, p.beta / p.alpha


def log_series_terms(p, x, n_max):
    """log t_n(x) for n = 0..n_max, from the Gamma-ratio closed form

        t_n = Gamma(a+n) k**n x**n / (Gamma(a) Gamma(beta) Gamma(b+n) alpha**n / Gamma(b) n!)
    """
    m = mp()
    a, b = _ab(p)
    n = np.arange(n_max + 1)
    out = np.empty(n_max + 1)
    base = -m.loggamma(a) - m.loggamma(p.beta) + m.loggamma(b)
    lk, la, lx = m.log(p.k), m.log(p.alpha), m.log(x)
    for j in n:
        out[j] = float(
            base + m.loggamma(a + j) - m.loggamma(b + j) - m.loggamma(j + 1) + j * (lk - la + lx)
        )
    return out


def photon_probs(p, x, n_max):
    """p_n = t_n(x) / E(x) for n = 0..n_max."""
    m = mp()
    log_e = m.log(ml_value(p, x))
    return np.exp(log_series_terms(p, x, n_max) - float(log_e))


def structure_values(p, n):
    """e_n = n (beta + alpha (n-1)) / (gamma + k (n-1)) for an array of n >= 1."""
    n = np.asarray(n, dtype=float)
    return n * (p.beta + p.alpha * (n - 1.0)) / (p.gamma + p.k * (n - 1.0))


def moment_closed_form(p, s):
    """(alpha/k)**s Gamma(s) Gamma(b2+s) / Gamma(a1+s) of the Meijer kernel."""
    m = mp()
    a, b = _ab(p)
    return float((m.mpf(p.alpha) / p.k) ** s * m.gamma(s) * m.gamma(b - 1 + s) / m.gamma(a - 1 + s))


def boltzmann_direct(beta_b, a_lin, b_quad):
    """Direct sum of exp(-beta_b (a n + b n**2)) over n >= 0."""
    terms = []
    n = 0
    while True:
        t = math.exp(-beta_b * (a_lin * n + b_quad * n * n))
        terms.append(t)
        if n > 0 and t < 1e-22:
            return math.fsum(terms)
        n += 1


# -------------------------------------------------------- mpmath routes


@cache
def ml_value(p, z):
    """E(z) = 1F1(gamma/k; beta/alpha; (k/alpha) z) / Gamma(beta), as an mpf/mpc."""
    m = mp()
    a, b = _ab(p)
    w = m.mpf(p.k) / p.alpha * (m.mpc(z) if isinstance(z, complex) else m.mpf(z))
    return m.hyp1f1(a, b, w) / m.gamma(p.beta)


@cache
def kernel_value(p, x):
    """Meijer kernel y**b2 e**-y U(a1, b2+1, y), y = (k/alpha) x."""
    m = mp()
    a, b = _ab(p)
    y = m.mpf(p.k) / p.alpha * x
    return y ** (b - 1) * m.exp(-y) * m.hyperu(a - 1, b, y)


def measure_weight(p, x):
    m = mp()
    a, b = _ab(p)
    pref = m.mpf(p.k) / p.alpha * m.gamma(a) / m.gamma(b) * m.gamma(p.beta)
    return pref * ml_value(p, x) * kernel_value(p, x)


def laplace_value(p, s):
    """(1/s) 2F1(1, gamma/k; beta/alpha; (k/alpha)/s) / Gamma(beta)."""
    m = mp()
    a, b = _ab(p)
    return m.hyp2f1(1, a, b, m.mpf(p.k) / p.alpha / s) / (s * m.gamma(p.beta))


def bose_power_sum(m_pow, y):
    """S_m(y) = sum_{n>=0} n**m e**(-n y) = Li_{-m}(e**-y) (+1 for m = 0)."""
    m = mp()
    q = m.exp(-m.mpf(y))
    if m_pow == 0:
        return 1 / (1 - q)
    return m.polylog(-m_pow, q)


def resummation(beta_b, a_lin, b_quad, depth):
    """sum_{j<=J} (-beta_b b)**j / j! S_{2j}(beta_b a), the ansatz of the
    quadratic-spectrum partition function."""
    m = mp()
    y = beta_b * a_lin
    c = -m.mpf(beta_b) * b_quad
    return m.fsum(c ** j / m.factorial(j) * bose_power_sum(2 * j, y) for j in range(depth + 1))


def _peaked_quad(log_f, peak, width):
    """int_0^inf exp(log_f(E)) dE with breakpoints around the peak."""
    m = mp()
    pts = sorted({m.mpf(0), m.mpf(max(0.0, peak - 8 * width)), m.mpf(peak),
                  m.mpf(peak + 8 * width + 10)})
    return m.quad(lambda e: m.exp(log_f(e)), pts + [m.inf])


@cache
def nu_value(x):
    """nu(x) = int_0^inf x**E / Gamma(E+1) dE, peak near E = x."""
    m = mp()
    lx = m.log(x)
    return _peaked_quad(lambda e: e * lx - m.loggamma(e + 1), max(0.0, x - 0.5), math.sqrt(x + 1))


@cache
def nu_gamma2_value(x):
    """int_0^inf x**E / Gamma(E+1)**2 dE, peak near E = sqrt(x)."""
    m = mp()
    lx = m.log(x)
    r = math.sqrt(x)
    return _peaked_quad(lambda e: e * lx - 2 * m.loggamma(e + 1), max(0.0, r - 0.5), math.sqrt(r + 1))


@cache
def tilde_ml_value(p, x):
    m = mp()
    a, b = _ab(p)
    w = m.mpf(p.k) / p.alpha * x
    lw = m.log(w)
    pref = m.gamma(b) / (m.gamma(a) * m.gamma(p.beta))
    log_f = lambda e: e * lw + m.loggamma(a + e) - m.loggamma(b + e) - m.loggamma(e + 1)
    wf = float(w)
    return pref * _peaked_quad(log_f, max(0.0, wf - 0.5), math.sqrt(wf + 1))
