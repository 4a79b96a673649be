"""The tests' reference rule for improper integrals, apart from the package's
own rules: adaptive QUADPACK (scipy.integrate.quad, whose extrapolation also
absorbs integrable endpoint singularities) with cutoff doubling."""

import math

from scipy import integrate

from mlcs import ConvergenceError
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
