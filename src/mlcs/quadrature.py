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
  in t converges geometrically in the number of nodes.  The node range grows
  until the end nodes contribute less than the target, a block of eight
  nodes per call of the integrand (the stopping node and the sums are those
  of a node-by-node loop; the surplus nodes of the last block are dropped).
  The error estimate is the change under one halving of the step, whose
  nodes are the midpoints of the previous level, so no value is computed
  twice.  Every integrand of a family shares the same nodes, which lets the
  identity suites and the Meijer kernel make one call per level for all
  their nodes and members.  The caller sets only the absolute floor of the
  target; the node budget is the constant _MAX_NODES.

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
# abs_tol for integrals whose size is not known beforehand (values down to
# 1e-300): the half-line rule's target is then 1e-12 of each value alone,
# where the default absolute floor would certify nothing.
RELATIVE_ABS_TOL = 1e-300


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
# Relative floor of the target: for integrals far above 1, abs_tol alone would
# demand digits below the roundoff of the integrand values.
_DE_REL_TOL = 1e-12
# Nodes per call of f while the range grows: one node per call would spend
# most of a small family's time in call overhead.
_DE_BLOCK = 8
_DE_BLOCK_STEPS = np.arange(1, _DE_BLOCK + 1)


def _de_nodes(scale: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x = scale * exp(t - exp(-t)) and the Jacobian dx/dt."""
    e = np.exp(-t)
    x = scale * np.exp(t - e)
    return x, x * (1.0 + e)


def half_line_quad(f, scale: float, abs_tol: float = 1e-10
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a family of integrands over [0, inf) with the double-exponential
    rule; returns (values, error estimates), one entry per family member.

    f maps a 1-d array of nodes x to an array of shape (len(x), m) holding the
    m integrands at each node (or shape (len(x),) for one integrand).  scale
    places the bulk of the integrands near t = 0, i.e. near x = scale.  The
    target of member i is max(abs_tol, 1e-12 |value_i|).  The range grows
    until each end node contributes at most a thousandth of it (the omitted
    tail is smaller still, the decay being double exponential), and the
    error estimate, the change under one halving plus the end-node
    contributions, must meet it.  A target that is not met within
    _MAX_NODES integrand evaluations raises ConvergenceError.
    """
    _require_positive(scale, "scale")
    abs_tol = _require_positive(abs_tol, "abs_tol")
    h = _DE_STEP
    count = 0

    def weighted(t):
        # integrand values times h dx/dt at the nodes of t, not yet checked
        nonlocal count
        count += t.size
        if count > _MAX_NODES:
            raise ConvergenceError(
                f"node budget {_MAX_NODES} spent before the target was met")
        x, dx = _de_nodes(scale, t)
        return np.asarray(f(x), dtype=float).reshape(x.size, -1) * (h * dx)[:, None]

    def finite(vals, t):
        if not np.isfinite(vals).all():
            x = _de_nodes(scale, np.array([t]))[0][0]
            raise ConvergenceError(f"integrand is not finite near x={x:.6e}")
        return vals

    def target(total):
        return np.maximum(abs_tol, _DE_REL_TOL * np.abs(total))

    def extend(end, edge, step, total):
        # add nodes end + step, end + 2 step, ... until one contributes at most
        # a thousandth of the target; returns the new end node, its values and
        # the total.  Same stopping node and sums as a node-by-node loop: the
        # nodes of the last block past that one are dropped.  Stops early,
        # with the end still above the target, where the next node
        # underflows to 0.
        while (np.abs(edge) > 1e-3 * target(total)).any():
            t = h * (end + step * _DE_BLOCK_STEPS)
            usable = int(np.count_nonzero(_de_nodes(scale, t)[0] > 0.0))  # a prefix
            if usable == 0:
                break
            vals = weighted(t[:usable])
            running = np.cumsum(np.concatenate((total[None], vals)), axis=0)[1:]
            small = (np.abs(vals) <= 1e-3 * target(running)).all(axis=1)
            last = int(small.argmax()) if small.any() else usable - 1
            edge = finite(vals[: last + 1], t[0])[last]
            end, total = end + step * (last + 1), running[last]
            if usable < _DE_BLOCK:
                break
        return end, edge, total

    lo, hi = -24, 24  # t in [-3, 3]
    block = finite(weighted(h * np.arange(lo, hi + 1)), h * lo)
    total = block.sum(axis=0)
    lo, head, total = extend(lo, block[0], -1, total)
    if (np.abs(head) > 1e-3 * target(total)).any():
        raise ConvergenceError("integrand is not negligible where the nodes underflow to 0")
    hi, tail, total = extend(hi, block[-1], 1, total)
    truncation = np.abs(head) + np.abs(tail)
    while True:
        # midpoints of the current level halve the step; T(h/2) = T(h)/2 + mids
        mids = h * (np.arange(lo, hi) + 0.5)
        finer = 0.5 * (total + finite(weighted(mids), mids[0]).sum(axis=0))
        err = np.abs(finer - total) + truncation
        total = finer
        if (err <= target(total)).all():
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
