"""The tests' reference rules, apart from the package's own: adaptive
QUADPACK (scipy.integrate.quad, whose extrapolation also absorbs integrable
endpoint singularities) for improper integrals with cutoff doubling, and for
the peaked energy integrals of the continuum module on scipy's gammaln, the
referee of its nu table and peak window.  The package itself never loads
scipy."""

import math

from scipy import integrate, special

from mlcs import ConvergenceError
from mlcs.continuum import _half_width, _Kernel
from mlcs.quadrature import _MAX_NODES


def improper_quad(f, abs_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate f over [0, inf) as [0, cutoff]; returns (value, error estimate).

    The cutoff doubles from 32 until |f(X)| * X drops under abs_tol (crude
    but safe bound on the remaining tail for at least exponential decay).
    The first unit panel is integrated separately so QUADPACK's extrapolation
    concentrates on any x**(p-1) behavior at the origin.
    """
    upper = 32.0
    while True:
        probe = abs(f(upper)) * upper
        if math.isnan(probe):
            raise ConvergenceError(f"integrand is NaN at x={upper}")
        if probe <= abs_tol:
            break
        upper *= 2.0
        if upper > 1e9:
            raise ConvergenceError("cutoff search exceeded 1e9; integrand not decaying?")
    limit = _MAX_NODES // 42
    v1, e1 = integrate.quad(f, 0.0, 1.0, epsabs=abs_tol, epsrel=1e-10, limit=limit)
    v2, e2 = integrate.quad(f, 1.0, upper, epsabs=abs_tol, epsrel=1e-10, limit=limit)
    return v1 + v2, e1 + e2


def _log_f(kernel: _Kernel, e):
    """L(E) of the continuum module's kernel on scipy's gammaln."""
    out = e * kernel.lw - kernel.power * special.gammaln(e + 1.0)
    if kernel.a != kernel.b:
        out = out + special.gammaln(kernel.a + e) - special.gammaln(kernel.b + e)
    return out


def peak_quad(kernel: _Kernel) -> float:
    """log of int_0^inf exp(L(E)) dE by QUADPACK on [0, E* + H] with a
    breakpoint at the window's peak E*, the integrand scaled by its value
    there."""
    peak = kernel.peak()
    upper = peak + _half_width(peak)
    scale = float(_log_f(kernel, peak))

    def g(e):
        return math.exp(float(_log_f(kernel, e)) - scale)

    value, err = integrate.quad(g, 0.0, upper, epsabs=1e-14, epsrel=1e-12,
                                limit=_MAX_NODES // 21, points=[peak] if peak > 0.0 else None)
    if not math.isfinite(value) or value <= 0.0:
        raise ConvergenceError(f"peaked integral failed: value={value}, err={err}")
    return scale + math.log(value)


def log_nu_quad(x: float) -> float:
    """log nu(x) for x > 0 by peak_quad on the defining energy integral."""
    return peak_quad(_Kernel(math.log(x)))


def nu_quad(x: float) -> float:
    """nu(x) for x > 0 by peak_quad."""
    return math.exp(log_nu_quad(x))


def tilde_ml_quad(params, x: float) -> float:
    """continuum.tilde_ml at x > 0 with its energy integral by peak_quad."""
    a, b = params.gamma_over_k, params.beta_over_alpha
    lw = math.log(params.k / params.alpha) + math.log(x)
    log_pref = math.lgamma(b) - math.lgamma(a) - math.lgamma(params.beta)
    return math.exp(log_pref + peak_quad(_Kernel(lw, a=a, b=b)))
