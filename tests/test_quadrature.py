"""Composite Gauss-Legendre rule: exactness, one call per rule, cached nodes."""

import numpy as np
import pytest

from mlcs import DomainError, gauss_legendre, gauss_legendre_panels, log_nu
from reference_quad import log_nu_quad


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


class TestPanels:
    @pytest.mark.parametrize("order, panels", [(4, 3), (8, 5), (24, 7)])
    def test_exact_on_top_degree_polynomial(self, order, panels):
        degree = 2 * order - 1
        coeffs = np.random.default_rng(order).uniform(-1.0, 1.0, degree + 1)
        poly = np.polynomial.Polynomial(coeffs)
        a, b = -0.7, 1.3
        calls = []

        def f(xs):
            calls.append(xs.shape)
            return poly(xs)

        got = gauss_legendre_panels(f, a, b, panels, order)
        anti = poly.integ()
        want = anti(b) - anti(a)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
        assert calls == [(panels, order)]

    def test_one_degree_more_is_not_exact(self):
        order = 3
        got = gauss_legendre_panels(lambda x: x ** (2 * order), 0.0, 1.0, 1, order)
        assert abs(got - 1.0 / (2 * order + 1)) > 1e-6

    def test_validation(self):
        with pytest.raises(DomainError):
            gauss_legendre_panels(np.exp, 1.0, 1.0)
        with pytest.raises(DomainError):
            gauss_legendre_panels(np.exp, 0.0, 1.0, panels=0)


class TestLogNuSchemes:
    @pytest.mark.parametrize("x", [100.0, 500.0, 1e4, 1e5])
    def test_fixed_and_adaptive_agree_far_out(self, x):
        # the Ramanujan table against QUADPACK on the defining integral, with
        # the peak out to E* = 1e5
        quadpack = log_nu_quad(x)
        table = log_nu(x)
        assert abs(quadpack - table) <= 1e-12 * abs(quadpack)
        assert quadpack == pytest.approx(x, rel=1e-3, abs=0)
