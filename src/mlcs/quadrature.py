"""Quadrature rules shared by the mlfunc, measure and continuum modules.

Three schemes are kept deliberately distinct:

* an adaptive QUADPACK route (scipy.integrate.quad, whose extrapolation also
  absorbs integrable endpoint singularities), improper_quad, which the tests
  use as their reference rule;
* a composite Gauss-Legendre rule over equal panels, the one fixed-order
  rule of the package: nodes and weights are cached per order, and the
  integrand is called once on the array of all nodes;
* a fixed double-exponential half-line rule (Takahasi & Mori, Publ. RIMS 9,
  1974) for families of integrands on [0, inf) with an algebraic endpoint
  x**p at the origin and exponential decay.  The map

      x = scale * exp(t - exp(-t))

  turns both ends into double-exponential decay in t, so the trapezoid rule
  in t converges geometrically in the number of nodes.  Both ends of the
  node range grow by whole blocks of eight nodes, one call of the integrand
  per step for both, until the end nodes contribute less than the target;
  every node evaluated is summed.  The error estimate is the change under
  one halving of the step, whose nodes are the midpoints of the previous
  level, so no value is computed twice.  Every integrand of a family shares
  the same nodes, which lets the identity suites and the Meijer kernel make
  one call per level for all their nodes and members.  The caller passes
  only the integrand and a scale: the target and node budget are constants.

The peak window of the continuum module (its default scheme) places the
cached Gauss-Legendre nodes on its own panels, and its QUADPACK referee
imports scipy for itself.  scipy.integrate is imported inside improper_quad,
its one user here, so the two fixed rules need numpy only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .kcore import _require_positive

__all__ = [
    "improper_quad",
    "half_line_quad",
    "gauss_legendre",
    "gauss_legendre_panels",
]


# Integrand evaluations one half-line rule call may spend; the node budget of
# the continuum peak window and the QUADPACK subinterval limits of
# improper_quad and the continuum referee derive from it.
_MAX_NODES = 100000


def improper_quad(f, abs_tol: float = 1e-10) -> tuple[float, float]:
    """Integrate f over [0, inf) as [0, cutoff]; returns (value, error estimate).

    The cutoff doubles from 32 until |f(X)| * X drops under abs_tol (crude
    but safe bound on the remaining tail for at least exponential decay).
    The first unit panel is integrated separately so QUADPACK's extrapolation
    concentrates on any x**(p-1) behavior at the origin.
    """
    from scipy import integrate

    abs_tol = _require_positive(abs_tol, "abs_tol")
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


# First step of the half-line rule in t; its trapezoid error is already near
# roundoff for the kernel families it serves, so one halving certifies it.
_DE_STEP = 0.125
# Target of every family member, relative to its own value: the integrals
# of the package range from 1e-300 to far above 1.
_DE_REL_TOL = 1e-12
# Nodes per call of f while the range grows: one node per call would spend
# most of a small family's time in call overhead.
_DE_BLOCK = 8
_DE_BLOCK_STEPS = np.arange(1, _DE_BLOCK + 1)
_NO_STEPS = _DE_BLOCK_STEPS[:0]


def half_line_quad(f, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a family of integrands over [0, inf) with the double-exponential
    rule; returns (values, error estimates), one entry per family member.

    f maps a 1-d array of nodes x to an array of shape (len(x), m) holding the
    m integrands at each node (or shape (len(x),) for one integrand).  scale
    places the bulk of the integrands near t = 0, i.e. near x = scale.  The
    target of member i is 1e-12 |value_i|.  Both ends grow by blocks of
    eight nodes until each end node contributes at most a thousandth of it
    (the omitted tail is smaller still, the decay being double exponential),
    and the error estimate, the change under one halving plus the end-node
    contributions, must meet it.  Nodes whose x underflows to 0 are left
    out; an integrand not negligible there, or a target not met within
    _MAX_NODES integrand evaluations, raises ConvergenceError.
    """
    _require_positive(scale, "scale")
    h = _DE_STEP
    count = 0

    def weighted(t):
        # integrand values times h dx/dt at the nodes x = scale exp(t - e**-t)
        # of t, leaving out those that underflow to 0.  Only a low-end block
        # can lose all of them, and it is asked for only while its end node
        # is not negligible.
        nonlocal count
        e = np.exp(-t)
        x = scale * np.exp(t - e)
        live = x > 0.0
        if not live.any():
            raise ConvergenceError("integrand is not negligible where the nodes underflow to 0")
        x, dx = x[live], (x * (1.0 + e))[live]
        count += x.size
        if count > _MAX_NODES:
            raise ConvergenceError(
                f"node budget {_MAX_NODES} spent before the target was met")
        vals = np.asarray(f(x), dtype=float).reshape(x.size, -1) * (h * dx)[:, None]
        if not np.isfinite(vals).all():
            raise ConvergenceError(f"integrand is not finite near x={x[0]:.6e}")
        return vals

    def negligible(edge, total):
        return (np.abs(edge) <= 1e-3 * _DE_REL_TOL * np.abs(total)).all()

    lo, hi = -24, 24  # t in [-3, 3]
    vals = weighted(h * np.arange(lo, hi + 1))
    total = vals.sum(axis=0)
    floor = len(vals) < hi + 1 - lo  # the nodes below lo underflow to 0
    lo = hi + 1 - len(vals)
    head, tail = vals[0], vals[-1]
    while True:
        down = not (floor or negligible(head, total))
        up = not negligible(tail, total)
        if not (down or up):
            break
        # the next block of each end that needs one, outward from its end
        below = lo - _DE_BLOCK_STEPS if down else _NO_STEPS
        above = hi + _DE_BLOCK_STEPS if up else _NO_STEPS
        vals = weighted(h * np.concatenate((below, above)))
        kept = len(vals) - above.size  # the nodes of the low block
        # each end's block summed alone, the low end first
        total = total + vals[:kept].sum(axis=0) + vals[kept:].sum(axis=0)
        if down:
            lo, floor = lo - kept, kept < _DE_BLOCK
            if kept:
                head = vals[kept - 1]
        if up:
            hi, tail = hi + _DE_BLOCK, vals[-1]
    if not negligible(head, total):
        raise ConvergenceError("integrand is not negligible where the nodes underflow to 0")
    truncation = np.abs(head) + np.abs(tail)
    while True:
        # midpoints of the current level halve the step; T(h/2) = T(h)/2 + mids,
        # each half taken first, so two values near float max do not overflow
        mids = h * (np.arange(lo, hi) + 0.5)
        finer = 0.5 * total + 0.5 * weighted(mids).sum(axis=0)
        err = np.abs(finer - total) + truncation
        total = finer
        if (err <= _DE_REL_TOL * np.abs(total)).all():
            return total, err
        h *= 0.5
        lo, hi = 2 * lo, 2 * hi


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], built once per order (read-only arrays)."""
    if order < 2:
        raise DomainError(f"order must be >= 2, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(f, a: float, b: float, panels: int = 16, order: int = 32) -> float:
    """Composite fixed-order Gauss-Legendre over equal panels of [a, b].

    f is called once, on the (panels, order) array of all nodes, and must
    return an array of the same shape.
    """
    if not (b > a):
        raise DomainError(f"need b > a, got a={a}, b={b}")
    if panels < 1:
        raise DomainError(f"panels must be >= 1, got {panels}")
    nodes, weights = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    xs = edges[:-1, None] + half[:, None] * (nodes + 1.0)
    ys = np.asarray(f(xs), dtype=float)
    return float(np.dot(half, ys @ weights))
