"""Composite Gauss-Legendre rule: exactness per order on uneven panels, cached
nodes, and no second panel rule outside the quadrature module."""

import ast
import glob
import math
import os

import numpy as np
import pytest

import mlcs.quadrature as quadrature_mod
from mlcs import DomainError, gauss_legendre, log_nu
from reference_quad import log_nu_quad

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestGaussLegendre:
    def test_cached_read_only_arrays(self):
        nodes, weights = gauss_legendre(24)
        again = gauss_legendre(24)
        assert again[0] is nodes and again[1] is weights
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        assert weights.sum() == pytest.approx(2.0, rel=1e-14, abs=0)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            gauss_legendre(1)


class TestPanelRule:
    """The one composite rule of the package, quadrature._panel_nodes: the
    nu table and the peak window take orders (16, 12), the contour referee (24,)."""

    EDGES = np.array([-0.75, -0.5, 0.0, 0.25, 1.25])  # uneven panels, binary midpoints
    ORDERS = [(16, 12), (24,), (4, 3, 8)]

    @pytest.mark.parametrize("orders", ORDERS, ids=lambda orders: "-".join(map(str, orders)))
    def test_each_column_is_exact_to_degree_2n_minus_1(self, orders):
        nodes, h, weights = quadrature_mod._panel_nodes(self.EDGES, orders)
        assert nodes.shape == (h.size * sum(orders),) and weights.shape == (sum(orders), len(orders))
        np.testing.assert_array_equal(h, 0.5 * np.diff(self.EDGES))
        a, b = self.EDGES[0], self.EDGES[-1]
        for j, order in enumerate(orders):
            degree = 2 * order - 1
            poly = np.polynomial.Polynomial(np.random.default_rng(order).uniform(-1.0, 1.0, degree + 1))
            got = h @ (poly(nodes).reshape(h.size, -1) @ weights)
            anti = poly.integ()
            assert got[j] == pytest.approx(anti(b) - anti(a), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("orders", ORDERS, ids=lambda orders: "-".join(map(str, orders)))
    def test_one_degree_more_is_not_exact(self, orders):
        # (x - m)**(2n) on a panel of midpoint m: the n-point rule falls short
        # of the integral by 4**n / C(2n, n)**2 of it (the Gauss error term),
        # 2.7e-13 at n = 24, where the rule's own roundoff is near 5e-14
        nodes, h, weights = quadrature_mod._panel_nodes(self.EDGES, orders)
        mid = 0.5 * (self.EDGES[1:] + self.EDGES[:-1])
        for j, order in enumerate(orders):
            got = h * ((nodes.reshape(h.size, -1) - mid[:, None]) ** (2 * order) @ weights[:, j])
            want = 2.0 * h ** (2 * order + 1) / (2 * order + 1)
            np.testing.assert_allclose((want - got) / want, 4.0 ** order / math.comb(2 * order, order) ** 2,
                                       rtol=1e-2, atol=1e-13)

    def test_first_order_leads_each_panel(self):
        nodes, h, _ = quadrature_mod._panel_nodes(self.EDGES, (16, 12))
        t16 = gauss_legendre(16)[0] + 1.0
        np.testing.assert_array_equal(nodes.reshape(h.size, -1)[:, :16], np.outer(h, t16) + self.EDGES[:-1, None])

    def test_nodes_and_weights_are_cached_read_only(self):
        t, weights = quadrature_mod._rule((16, 12))
        again = quadrature_mod._rule((16, 12))
        assert again[0] is t and again[1] is weights
        assert quadrature_mod._panel_nodes(self.EDGES, (16, 12))[2] is weights
        for a in (t, weights):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestOneCompositeRule:
    def test_gauss_legendre_is_called_in_quadrature_only(self):
        # one composite Gauss-Legendre rule: every other module places its
        # nodes with quadrature._panel_nodes, none builds a rule of its own
        found = []
        for path in sorted(glob.glob(os.path.join(SRC, "mlcs", "*.py"))):
            if os.path.basename(path) == "quadrature.py":
                continue
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
                called = isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) == "gauss_legendre"
                if name == "leggauss" or called:
                    found.append(f"{os.path.basename(path)}:{node.lineno}")
        assert found == []


class TestLogNuSchemes:
    @pytest.mark.parametrize("x", [100.0, 500.0, 1e4, 1e5])
    def test_fixed_and_adaptive_agree_far_out(self, x):
        # the Ramanujan table against QUADPACK on the defining integral, with
        # the peak out to E* = 1e5
        quadpack = log_nu_quad(x)
        table = log_nu(x)
        assert abs(quadpack - table) <= 1e-12 * abs(quadpack)
        assert quadpack == pytest.approx(x, rel=1e-3, abs=0)
