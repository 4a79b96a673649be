"""Quadrature rules shared by the mlfunc, measure and continuum modules.

Two fixed schemes are kept deliberately distinct:

* a composite Gauss-Legendre rule on panels between given edges, the one
  fixed-order rule of the package: each panel carries one rule per order
  asked for (a value, and a lower-order check where one is wanted), nodes
  and weights cached per tuple of orders, all nodes evaluated in one call;
* a fixed double-exponential half-line rule (Takahasi & Mori, Publ. RIMS 9,
  1974) for families of integrands on [0, inf) with an algebraic endpoint
  x**p at the origin and exponential decay.  The map

      x = scale * exp(t - exp(-t))

  turns both ends into double-exponential decay in t, so the trapezoid rule
  in t converges geometrically in the number of nodes.  The nodes and
  weights of the first call, 129 points t in [-4, 4] at step 1/16, are a
  table built once per scale, the same read-only arrays at each call.  It
  takes the first level and its first halving together (the even nodes give
  T(h), all of them T(h/2)) and usually covers both ends; where it does not,
  the ends grow by whole blocks of sixteen nodes, one call of the integrand
  per step for both, until the end nodes contribute less than the target;
  every node evaluated is summed.  The error estimate is the change under
  the last halving of the step, whose nodes are the midpoints of the
  previous level, so no value is computed twice.  Every integrand of a
  family shares the same nodes, which lets the identity suites and the
  Meijer kernel make one call per level for all their nodes and members.
  Each member stops at its own target: later levels ask the integrand only
  for the members still short of it, as f(x, live) with live their indices,
  since a member that has converged double-exponentially gains nothing from
  further levels (Mori & Sugihara, J. Comput. Appl. Math. 127, 2001).
  The caller passes only the integrand and a scale: the target and node
  budget are constants.

The nu table and the peak window (orders 16 and 12) and the Meijer kernel's
contour referee (order 24) run on the composite rule, and both rules need
numpy only: QUADPACK is a referee of the tests, and no module loads scipy.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConvergenceError, DomainError
from .kcore import _require_positive

__all__ = [
    "half_line_quad",
    "gauss_legendre",
]


# Integrand evaluations one half-line rule call may spend; the node budget of
# the continuum peak window derives from it, and so does the QUADPACK
# subinterval limit of the tests' referees.
_MAX_NODES = 100000


# First step in t of the half-line rule; its trapezoid error is already near
# roundoff for the kernel families it serves, so one halving certifies it.
# The rule starts on the nodes of that halving, step _DE_STEP / 2, over
# t in [-4, 4] (_DE_FIRST such steps per side: 129 nodes), which covers
# both ends of most integrands of the package, so most calls make one call
# of the integrand; _first_nodes builds their x and weights once per scale.
_DE_STEP = 0.125
_DE_FIRST = 64
# Target of every family member, relative to its own value: the integrals
# of the package range from 1e-300 to far above 1.
_DE_REL_TOL = 1e-12
# Nodes of the fine step per end and call of f while the range grows (eight
# steps of the first level): one node per call would spend most of a small
# family's time in call overhead.
_DE_BLOCK = 16
_DE_BLOCK_STEPS = np.arange(1, _DE_BLOCK + 1)
_NO_STEPS = _DE_BLOCK_STEPS[:0]


def _nodes(j: np.ndarray, h: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the half-line rule at t = h j: scale times
    x = exp(t - e**-t) and w = h dx/dt = h x (1 + e**-t), those at scale 1."""
    t = h * j
    e = np.exp(-t)
    x = np.exp(t - e)
    return scale * x, scale * (h * x * (1.0 + e))


@functools.lru_cache(maxsize=64)
def _first_nodes(scale: float = 1.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """j, x and w of the first call of the half-line rule at this scale:
    t = j / 16 for j = -64..64, built once per scale on first use (read-only
    arrays, the last 64 scales kept)."""
    j = np.arange(-_DE_FIRST, _DE_FIRST + 1)
    table = (j, *_nodes(j, 0.5 * _DE_STEP, scale))
    for a in table:
        a.flags.writeable = False
    return table


def _split(vals: np.ndarray, j0) -> tuple[np.ndarray, np.ndarray]:
    """Sums of a run of weighted values at the consecutive nodes j0, j0 + 1,
    ...: over the even j (the coarser level) and over the odd j."""
    first, second = np.add.reduce(vals[::2]), np.add.reduce(vals[1::2])
    return (second, first) if j0 % 2 else (first, second)


def half_line_quad(f, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a family of integrands over [0, inf) with the double-exponential
    rule; returns (values, error estimates), one entry per family member.

    f maps a 1-d array of nodes x to an array of shape (len(x), m) holding the
    m integrands at each node (or shape (len(x),) for one integrand).  Once
    some members have met their target, the rule asks only for the others:
    it calls f(x, live), live an increasing array of member indices, and
    expects shape (len(x), len(live)); while every member is live it calls
    f(x).  scale places the bulk of the integrands near t = 0, i.e. near
    x = scale.  The target of member i is 1e-12 |value_i|.  The first call
    takes the 129 nodes t in [-4, 4] at step 1/16, a table cached per
    scale, so the first level (step 1/8, the even nodes) and its halving
    come from one call.  Both ends grow by blocks of sixteen such nodes
    until each end node contributes at most a thousandth of the target (the
    omitted tail is smaller still, the decay being double exponential).  The
    error estimate of a member, the change under its last halving plus the
    end-node contributions, must meet its target; a member that meets it
    keeps its value and estimate while the others are halved further.  The
    end nodes are weighted at step 1/8 in both tests.  Nodes whose x
    underflows to 0 are left out; an integrand not negligible there, a value
    that is not finite (an overflow in f included), or a target not met
    within _MAX_NODES integrand evaluations, raises ConvergenceError.
    """
    _require_positive(scale, "scale")
    h = 0.5 * _DE_STEP  # the finest step evaluated so far
    count = 0
    live = None  # the members f is asked for; None while all of them are

    def weighted(j, x, w):
        # integrand values times the weights w at the nodes x (t = h j
        # increasing), and the j kept: those whose x underflows to 0 at
        # this scale are left out, a leading run.  Only a low-end block can
        # lose all of them, and it is asked for only while its end node is
        # not negligible.  An overflow in f (x**p at a subnormal x) is left
        # to the finiteness check.
        nonlocal count
        if x[0] == 0.0:
            lost = np.count_nonzero(x == 0.0)
            if lost == x.size:
                raise ConvergenceError("integrand is not negligible where the nodes underflow to 0")
            x, w, j = x[lost:], w[lost:], j[lost:]
        count += x.size
        if count > _MAX_NODES:
            raise ConvergenceError(
                f"node budget {_MAX_NODES} spent before the target was met")
        fx = f(x) if live is None else f(x, live)
        vals = np.asarray(fx, dtype=float).reshape(x.size, -1) * w[:, None]
        if np.count_nonzero(np.isfinite(vals)) < vals.size:
            raise ConvergenceError(f"integrand is not finite near x={x[0]:.6e}")
        return vals, j

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals, j = weighted(*_first_nodes(scale))
        coarse, mids = _split(vals, j[0])
        floor = j[0] > -_DE_FIRST  # the nodes below j[0] underflow to 0
        lo, hi, ends = j[0], _DE_FIRST, vals.take((0, -1), axis=0)  # the end nodes' values
        while True:
            total = coarse + mids
            size = np.abs(total)
            twice = np.abs(ends + ends)  # the end nodes weighted at step 1/8
            low, high = (twice <= 1e-3 * _DE_REL_TOL * size).all(axis=1).tolist()
            down, up = not (floor or low), not high
            if not (down or up):
                break
            # the next block of each end that needs one, in increasing t
            below = lo - _DE_BLOCK_STEPS[::-1] if down else _NO_STEPS
            above = hi + _DE_BLOCK_STEPS if up else _NO_STEPS
            steps = np.concatenate((below, above))
            vals, j = weighted(steps, *_nodes(steps, h, scale))
            kept = j.size - above.size  # the nodes of the low block
            for run, j0 in ((vals[:kept], j[0]), (vals[kept:], hi + 1)):
                more_coarse, more_mids = _split(run, j0)
                coarse, mids = coarse + more_coarse, mids + more_mids
            if down:
                floor = kept < _DE_BLOCK
                if kept:
                    lo, ends[0] = j[0], vals[0]
            if up:
                hi, ends[1] = hi + _DE_BLOCK, vals[-1]
        if not low:
            raise ConvergenceError("integrand is not negligible where the nodes underflow to 0")
        truncation = twice[0] + twice[1]
        # T(h) - T(2h) = mids - coarse, with T(2h) = 2 coarse never formed
        err = np.abs(mids - coarse) + truncation
        todo = (err > _DE_REL_TOL * size).nonzero()[0]
        while todo.size:
            live = None if todo.size == total.size else todo
            # the midpoints of the current level halve the step for the live
            # members: T(h/2) = T(h)/2 + their sum at step h/2, so two values
            # near float max do not overflow
            h *= 0.5
            steps = 2 * np.arange(lo, hi) + 1
            vals, _ = weighted(steps, *_nodes(steps, h, scale))
            lo, hi = 2 * lo, 2 * hi
            last = total[todo]
            finer = 0.5 * last + vals.sum(axis=0)
            err[todo] = np.abs(finer - last) + truncation[todo]
            total[todo] = finer
            todo = todo[err[todo] > _DE_REL_TOL * np.abs(finer)]
    return total, err


@functools.lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], built once per order (read-only arrays)."""
    if order < 2:
        raise DomainError(f"order must be >= 2, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _rule(orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Nodes t in [0, 2] of the rules of these orders, the first order's
    first, and the matrix whose column j holds the weights of rule j (0 at
    the other rules' nodes), built once per tuple (read-only arrays)."""
    nodes, weights = zip(*map(gauss_legendre, orders))
    t = np.concatenate(nodes) + 1.0
    matrix = np.zeros((t.size, len(orders)))
    matrix[np.arange(t.size), np.repeat(np.arange(len(orders)), orders)] = np.concatenate(weights)
    t.flags.writeable = matrix.flags.writeable = False
    return t, matrix


def _panel_nodes(edges: np.ndarray, orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The composite rule on the panels between edges: _rule's nodes on each
    panel, panel by panel, the half-widths h and _rule's weights.  With f the
    values at the nodes as a (panels, -1) array, h @ (f @ weights) holds one
    integral per order."""
    t, weights = _rule(orders)
    h = 0.5 * (edges[1:] - edges[:-1])
    return (np.outer(h, t) + edges[:-1, None]).ravel(), h, weights
