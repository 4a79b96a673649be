"""Radial measure: Meijer kernel routes, moment identity, basis resolution."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mlcs

from mlcs import (
    CSLabel,
    ConvergenceError,
    DomainError,
    LinearSpectrum,
    MLParams,
    MomentReport,
    RouteMismatchError,
    ThermalConfig,
    UNIT_PARAMS,
    cs_build,
    half_line_quad,
    measure_weight_h,
    meijer_g_weight,
    meijer_g_weight_mb,
    moment_closed_form,
    p_function,
    photon_distribution,
    resolution_identity_matrix,
    verify_resolution,
)

PARAM = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


def reference_kernel(params, x):
    """Independent oracle for the G^{2,0}_{1,2} kernel."""
    a1 = params.gamma_over_k - 1.0
    b2 = params.beta_over_alpha - 1.0
    y = params.k / params.alpha * x
    with mpmath.workdps(30):
        return float(mpmath.meijerg([[], [a1]], [[0.0, b2], []], y))


def reference_kernel_u(a1, b2, y):
    """Same kernel as y**b2 exp(-y) U(a1, b2 + 1, y) through mpmath's hyperu,
    which handles (near-)integer b2 and tiny y."""
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        n = b2 - a1
        if n == round(n) and n >= 0:
            # U(a1, b2+1, y) = y**-b2 U(-n, 1-b2, y), a polynomial (DLMF
            # 13.2.7, 13.2.40): hyperu fails to converge at its zeros
            n = int(n)
            u = y ** -b2 * (-1) ** n * mpmath.fsum(
                mpmath.binomial(n, k) * mpmath.rf(1 - b2 + k, n - k) * (-y) ** k
                for k in range(n + 1))
        else:
            u = mpmath.hyperu(a1, b2 + 1, y)
        return float(y ** b2 * mpmath.exp(-y) * u)


# a1 in (-1, 8], b2 in (-1, 6] and y from 1e-300 to 90, the grid on which
# Kummer's transformation is checked against mpmath
GRID_A1 = (-0.9, -0.6, -0.3, -1e-3, 0.2, 0.5, 0.99, 2.0, 3.7, 8.0)
GRID_B2 = (-0.9, -0.5, -0.2, -1e-3, 0.0, 0.3, 1.0, 2.5, 6.0)
GRID_Y = (1e-300, 1e-250, 1e-200, 1e-100, 1e-30, 1e-10, 1e-5, 1e-3, 0.05, 0.7, 5.0, 30.0, 90.0)
# the cells of that grid where the kernel, run at its raw indices, returned
# 0.0 with a RuntimeWarning (b2 < 0 <= a1 - 1/2: every node of the Laplace
# integrand underflowed) or raised ConvergenceError (the integrand's mass
# near s = y at the float64 floor)
GRID_FAILED_BEFORE = {
    (-0.3, -0.2): (1e-300, 1e-250), (-0.3, -1e-3): (1e-300,), (-0.3, 0.0): (1e-300,),
    (-1e-3, 0.0): (1e-300,),
    (0.5, -0.9): (1e-300, 1e-250, 1e-200), (0.5, -0.5): (1e-300, 1e-250),
    (0.5, -0.2): (1e-300,), (0.5, -1e-3): (1e-300,), (0.5, 0.0): (1e-300,),
    (0.99, -0.9): (1e-300, 1e-250, 1e-200), (0.99, -0.5): (1e-300, 1e-250),
    (0.99, -0.2): (1e-300,), (0.99, -1e-3): (1e-300,), (0.99, 0.0): (1e-300,),
    (2.0, -0.9): (1e-300, 1e-250, 1e-200), (2.0, -0.5): (1e-300, 1e-250), (2.0, -0.2): (1e-300,),
    (3.7, -0.9): (1e-300, 1e-250, 1e-200), (3.7, -0.5): (1e-300, 1e-250), (3.7, -0.2): (1e-300,),
    (8.0, -0.9): (1e-300, 1e-250, 1e-200), (8.0, -0.5): (1e-300, 1e-250), (8.0, -0.2): (1e-300,),
}


def grid_params(a1, b2):
    """The set with gamma/k - 1 = a1, beta/alpha - 1 = b2 at k = alpha = 1,
    and its indices as the kernel sees them after rounding."""
    params = MLParams(1.0, b2 + 1.0, a1 + 1.0, 1.0)
    return params, params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0


class TestMeijerKernel:
    def test_unit_parameters_collapse_to_exponential(self):
        for x in (0.05, 0.3, 1.0, 2.5, 8.0):
            assert meijer_g_weight(UNIT_PARAMS, x) == pytest.approx(
                math.exp(-x), rel=1e-13
            , abs=0)

    def test_matches_independent_oracle(self):
        cases = [
            (MLParams(2.0, 3.0, 1.0, 1.0), 0.7),
            (MLParams(2.0, 5.0, 4.0, 1.0), 2.0),
            (MLParams(0.5, 1.5, 2.0, 0.8), 5.0),
            (MLParams(1.0, 4.0, 0.6, 1.0), 1.1),
        ]
        for params, x in cases:
            assert meijer_g_weight(params, x) == pytest.approx(
                reference_kernel(params, x), rel=1e-10
            , abs=0)

    def test_origin_limit_frozen_value(self):
        # a1 = 3, b2 = 1.5: gamma(1.5)/gamma(3)
        assert meijer_g_weight(MLParams(2.0, 5.0, 4.0, 1.0), 0.0) == pytest.approx(
            0.44311346272637900, rel=1e-14
        , abs=0)

    def test_origin_limit_branches(self):
        assert meijer_g_weight(UNIT_PARAMS, 0.0) == 1.0
        assert meijer_g_weight(MLParams(1.0, 1.0, 2.0, 1.0), 0.0) == math.inf
        assert meijer_g_weight(MLParams(2.0, 1.0, 1.0, 1.0), 0.0) == math.inf
        # a1 = 0 is the pole of Gamma(a1): G = y e**-y, 0 at the origin
        assert meijer_g_weight(MLParams(1.0, 2.0, 1.0, 1.0), 0.0) == 0.0
        # Gamma(a1) beyond float64: Gamma(1) / Gamma(199) and Gamma(171) / Gamma(172)
        assert meijer_g_weight(MLParams(1.0, 2.0, 200.0, 1.0), 0.0) == 0.0
        assert meijer_g_weight(MLParams(1.0, 172.0, 173.0, 1.0), 0.0) == pytest.approx(
            1.0 / 171.0, rel=1e-12, abs=0)

    def test_underflowed_argument_is_the_origin(self):
        # at k/alpha = 1/2, y = (k/alpha) x rounds to 0 at x = 5e-324 and the
        # kernel returns its limit at x = 0: +inf as y**-1/2 at (a1, b2) =
        # (0, -1/2); 1 where a1 = b2 = -1/2 and G = e**-y; -inf at (-1/2, 0),
        # where G ~ -log y / Gamma(-1/2)
        for x in (0.0, 5e-324):
            assert meijer_g_weight(MLParams(2.0, 1.0, 1.0, 1.0), x) == math.inf
            assert meijer_g_weight(MLParams(2.0, 1.0, 0.5, 1.0), x) == 1.0
            assert meijer_g_weight(MLParams(2.0, 2.0, 0.5, 1.0), x) == -math.inf
        got = meijer_g_weight(MLParams(2.0, 2.0, 0.5, 1.0), np.array([5e-324, 1.0]))
        assert got[0] == -math.inf and got[1] == pytest.approx(
            reference_kernel_u(-0.5, 0.0, 0.5), rel=1e-12, abs=0)

    def test_no_nan_or_inf_in_place_of_a_value(self):
        # y**99 e**-y at y = 1380 is inf * 0 as a product; its exponent is not
        params, y = MLParams(2.0, 200.0, 1.0, 1.0), 1380.0
        with mpmath.workdps(30):
            want = float(mpmath.mpf(y) ** 99 * mpmath.exp(-y))
        assert meijer_g_weight(params, 2.0 * y) == pytest.approx(want, rel=1e-12, abs=0)
        # Gamma(399) / Gamma(3) ~ 2e863 at the origin and just off it
        big = MLParams(0.5, 200.0, 4.0, 1.0)
        for x in (0.0, 1e-300):
            with pytest.raises(OverflowError, match=f"Meijer kernel at x = {x!r} exceeds"):
                meijer_g_weight(big, x)
        # y**b2 G(y | a1 - b2; 0, -b2) at b2 = -0.999: y**b2 ~ 1e315
        with pytest.raises(OverflowError, match="Meijer kernel at x = 1e-315 exceeds"):
            meijer_g_weight(MLParams(1.0, 0.001, 0.1, 1.0), 1e-315)

    def test_referee_raises_typed_errors_or_returns_the_origin(self):
        # the contour sum was NaN where G leaves float64 (b2 = 759), and
        # math.log(y) raised a bare ValueError where y underflows to 0
        x = 8.61e-4
        big = MLParams(0.071017, 53.966646, 11.873263, 3.207051)
        for run in (meijer_g_weight, meijer_g_weight_mb):
            with pytest.raises(OverflowError, match=f"at x = {x!r} exceeds float64 range"):
                run(big, x)
        tiny = MLParams(0.623343, 43.684261, 0.877782, 0.143089)
        want = meijer_g_weight(tiny, 5e-324)
        assert want == pytest.approx(1.184e95, rel=1e-3, abs=0)
        assert meijer_g_weight_mb(tiny, 5e-324) == want
        assert meijer_g_weight(tiny, 5e-324, check=True) == want
        # G = -1.37e150 and -3.3e193 here, but the contour's t = 0 modulus
        # is e**780 and e**1004: check=True passed both without a word
        neg = MLParams(1.0, 0.4, 0.1, 1.0)
        for x, value in ((1e-251, -1.37e150), (5e-324, -3.3e193)):
            assert meijer_g_weight(neg, x) == pytest.approx(value, rel=1e-2, abs=0)
            for run in (meijer_g_weight_mb, lambda p, x: meijer_g_weight(p, x, check=True)):
                with pytest.raises(OverflowError, match=f"contour at x = {x!r} exceeds float64"):
                    run(neg, x)

    def test_argument_whose_y_overflows_is_the_limit_at_infinity(self):
        # (k/alpha) x = inf: numpy warned on the product and the kernel raised
        # "exceeds float64 range", where G underflows to 0
        params = MLParams(0.5, 1.0, 2.0, 1.0)
        for check in (False, True):
            assert meijer_g_weight(params, 1.7e308, check=check) == 0.0
            got = meijer_g_weight(params, np.array([1.0, 1.7e308, 0.5]), check=check)
            assert got[1] == 0.0
            assert got[[0, 2]] == pytest.approx(np.exp(-2.0 * np.array([1.0, 0.5])), rel=1e-13)
        assert meijer_g_weight_mb(params, 1.7e308) == 0.0
        # the same on the connection formula's and the recurrence's paths
        for params in (MLParams(0.5, 0.6, 0.3, 1.0), MLParams(0.5, 1.5, 0.2, 1.0)):
            got = meijer_g_weight(params, np.array([1e-320, 1.7e308, 2.0]))
            assert got[1] == 0.0 and np.all(np.isfinite(got))

    def test_plain_form_without_a_peak_at_large_argument(self):
        # a1 = 0.1125, b2 = -0.39, so a = 0.506 after Kummer's transformation:
        # the plain form's integrand was scaled by its value at s = y, about
        # e**y (s/y)**(a-1) near s = 0, and raised "integrand is not finite
        # near x=2.363260e-67" at y = 631
        params = MLParams(2.0625, 1.25, 1.390625, 1.25)
        a1, b2 = params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0
        ys = np.array([0.5, 1.0, 2.0, 600.0, 631.0, 700.0])
        got = meijer_g_weight(params, ys * params.alpha / params.k)
        for y, g in zip(ys, got):
            assert g == pytest.approx(reference_kernel_u(a1, b2, y), rel=1e-12, abs=0.0), y

    def test_tiny_argument_with_negative_second_index(self):
        # (a1, b2) = (2, -1/2): the mass of the Laplace integrand at s ~ y sat
        # below every node, and the kernel returned 0.0
        assert meijer_g_weight(MLParams(2.0, 1.0, 3.0, 1.0), 1e-250) == pytest.approx(
            reference_kernel(MLParams(2.0, 1.0, 3.0, 1.0), 1e-250), rel=1e-12, abs=0)
        assert reference_kernel(MLParams(2.0, 1.0, 3.0, 1.0), 1e-250) == pytest.approx(
            1.886e125, rel=1e-3, abs=0)

    @pytest.mark.parametrize("a1", GRID_A1)
    def test_kummer_grid_against_mpmath(self, a1):
        # every b2 of the grid, one array call over its y
        ys = np.array(GRID_Y)
        for b2 in GRID_B2:
            params, a1_, b2_ = grid_params(a1, b2)
            for y, g in zip(GRID_Y, meijer_g_weight(params, ys)):
                assert g == pytest.approx(reference_kernel_u(a1_, b2_, y), rel=1e-12, abs=0.0), (
                    a1_, b2_, y)

    @pytest.mark.parametrize("a1, b2, y", [
        (a1, b2, y) for (a1, b2), ys in GRID_FAILED_BEFORE.items() for y in ys])
    def test_kummer_grid_cells_that_failed(self, a1, b2, y):
        params, a1_, b2_ = grid_params(a1, b2)
        assert meijer_g_weight(params, y) == pytest.approx(
            reference_kernel_u(a1_, b2_, y), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a1", (-0.7, -0.3, 0.2, 0.7, 2.0, 8.0))
    def test_subnormal_argument_grid(self, a1):
        # below the smallest normal float64 the plain form's ratio (y + s) /
        # y_ref overflowed: (0.7, 0.5) at 1e-310 spent the node budget, and
        # (0.2, -0.999) warned in a log.  Now b2 < 1/2 (after Kummer's
        # transformation) takes the connection formula and b2 >= 1/2 the
        # origin limit; a G beyond float64 raises OverflowError naming x
        for b2 in (-0.999, -0.6, -0.3, -1e-3, 0.0, 0.2, 0.45, 0.5, 1.0, 2.5):
            params, a1_, b2_ = grid_params(a1, b2)
            for y in (1e-310, 1e-320, 5e-324):
                with mpmath.workdps(40):
                    want = mpmath.mpf(y) ** b2_ * mpmath.hyperu(a1_, b2_ + 1.0, mpmath.mpf(y))
                if abs(want) > np.finfo(float).max:
                    with pytest.raises(OverflowError, match=f"at x = {y!r} exceeds float64"):
                        meijer_g_weight(params, y)
                else:
                    assert meijer_g_weight(params, y) == pytest.approx(
                        float(want), rel=1e-12, abs=0), (a1_, b2_, y)

    def test_domain(self):
        with pytest.raises(DomainError):
            meijer_g_weight(UNIT_PARAMS, -0.5)
        with pytest.raises(DomainError):
            meijer_g_weight(UNIT_PARAMS, math.nan)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                meijer_g_weight_mb(UNIT_PARAMS, bad)

    def test_positive_on_reference_sets(self):
        for params in (UNIT_PARAMS, MLParams(2.0, 3.0, 1.0, 1.0),
                       MLParams(2.0, 5.0, 4.0, 1.0), MLParams(0.5, 1.5, 2.0, 0.8)):
            for x in np.geomspace(0.01, 30.0, 12):
                assert meijer_g_weight(params, float(x)) > 0.0

    def test_survives_second_index_near_integer(self):
        # binary division plants beta/alpha a few ulp away from an integer,
        # where the naive Tricomi backend loses up to 3e-2 of the value
        params = MLParams(0.2, 1.2, 1.0, 1.0)
        assert params.beta_over_alpha != 6.0
        assert meijer_g_weight(params, 0.2) == pytest.approx(math.exp(-1.0), rel=1e-13, abs=0)

        nearly = MLParams(0.25, 0.99999, 1.0, 1.5)
        x = 2.0 * 0.25 / 1.5
        assert meijer_g_weight(nearly, x) == pytest.approx(
            reference_kernel(nearly, x), rel=1e-11
        , abs=0)
        # negative first index takes the recurrence path
        neg = MLParams(1.0, 4.0000001, 1.0, 2.0)
        for x in (0.3, 2.0, 9.0):
            assert meijer_g_weight(neg, x) == pytest.approx(
                reference_kernel(neg, x), rel=1e-10
            , abs=0)

    @pytest.mark.parametrize("a1", [-0.9, -0.45, -1e-3, 1e-3, 0.3, 1.0, 1.7, 3.0])
    def test_small_argument_grid(self, a1):
        # below y = 1e-4 the kernel comes from the connection formula where
        # the Laplace routes cancel, from the Laplace integral elsewhere; b2
        # runs through (-1, 3] with points within 1e-3 of 0 and 1, where the
        # two Kummer series cancel and are paired
        b2_values = (-0.9, -0.4, -1e-3, -1e-7, 0.0, 1e-9, 1e-3, 0.5,
                     1.0 - 1e-3, 1.0, 1.0 + 1e-7, 1.001, 2.3, 3.0)
        y_values = [1e-30, 1e-18, 1e-10, 1e-6, 3e-5, 9.9e-5, 2e-4, 1e-3]
        for b2 in b2_values:
            params = MLParams(1.0, b2 + 1.0, a1 + 1.0, 1.0)
            a1_, b2_ = params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0
            for y in y_values:
                # for a1 < 0 the kernel changes sign, hence the absolute floor
                assert meijer_g_weight(params, y) == pytest.approx(
                    reference_kernel_u(a1_, b2_, y), rel=1e-12, abs=1e-15
                ), (a1_, b2_, y)

    @pytest.mark.parametrize("y", [1e-8, 1e-100, 1e-200, 1e-300])
    @pytest.mark.parametrize("a1, b2, formula", [
        # the a1 + 1 family of the recurrence has p = b2 - a1 - 1 >= 0: the
        # Laplace route holds down to y = 1e-300
        (-0.7, 0.5, False), (-0.95, 0.3, False), (-0.6, 0.45, False),
        # its p < 0, or a1's own for -1/2 < a1 < 1/2: the connection formula
        (-0.6, 0.3, True), (-0.55, 0.2, True), (0.3, 0.1, True),
        # G = y**b2 e**-y in closed form (a1 = b2 after Kummer's
        # transformation); the formula took it below y = 1e-250, 2.9e-7 off
        (0.0, 0.03, False), (-0.03, -0.03, False)])
    def test_connection_formula_runs_where_the_subtracted_family_cancels(
            self, a1, b2, formula, y, monkeypatch):
        import mlcs.measure as measure_mod

        params, a1_, b2_ = grid_params(a1, b2)
        seen = []
        small = measure_mod._g_small_y
        monkeypatch.setattr(measure_mod, "_g_small_y",
                            lambda *args: seen.append(args) or small(*args))
        assert meijer_g_weight(params, y) == pytest.approx(
            reference_kernel_u(a1_, b2_, y), rel=1e-12, abs=0.0)
        assert bool(seen) == formula

    @pytest.mark.parametrize("a1, b2, y", [(-0.6, 0.3, 1e-200), (-0.55, 0.2, 1e-100),
                                           (0.3, 0.1, 1e-100)])
    def test_laplace_routes_alone_cancel_where_the_formula_runs(self, a1, b2, y):
        import mlcs.measure as measure_mod

        params, a1_, b2_ = grid_params(a1, b2)
        alone = measure_mod._laplace_kernel(a1_, b2_, np.array([y]), 0.0)[0]
        assert abs(alone / reference_kernel_u(a1_, b2_, y) - 1.0) > 0.5

    def test_connection_formula_sees_second_index_below_one_half(self, monkeypatch):
        # after Kummer's transformation the region leaves 0 <= b2 < 1/2, so
        # the paired series never meets an integer b2 other than 0
        import mlcs.measure as measure_mod

        seen = []
        small = measure_mod._g_small_y
        monkeypatch.setattr(measure_mod, "_g_small_y",
                            lambda *args: seen.append(args) or small(*args))
        ys = np.array([1e-300, 1e-200, 1e-100, 1e-30, 1e-8, 9e-5])
        grid = np.linspace(-0.95, 2.95, 14)
        for a1 in grid:
            for b2 in grid:
                meijer_g_weight(grid_params(a1, b2)[0], ys)
        assert seen and all(0.0 <= args[1] < 0.5 for args in seen)

    def test_connection_formula_draws_against_mpmath(self):
        # the paired series over the whole band 0.05 <= b2 < 1/2, which had
        # a second, unpaired form on the series engine; a1 in (-1, 2) \ {0}
        import mlcs.measure as measure_mod

        rng = np.random.default_rng(20260814)
        for _ in range(200):
            a1 = float(rng.uniform(-1.0, 2.0))
            b2 = float(rng.uniform(0.05, 0.5))
            y = float(10.0 ** rng.uniform(-300.0, -4.0))
            assert measure_mod._g_small_y(a1, b2, y) == pytest.approx(
                reference_kernel_u(a1, b2, y), rel=1e-12, abs=0.0), (a1, b2, y)

    def test_recurrence_draws_against_mpmath(self):
        # a1 <= -1/2 with b2 >= 0 and y >= 1e-3 takes the backward step of the
        # a-recurrence from its two Laplace families, each on its own rule
        rng = np.random.default_rng(20260814)
        for _ in range(200):
            params, a1, b2 = grid_params(float(rng.uniform(-1.0, -0.5)), float(rng.uniform(0.0, 6.0)))
            y = float(np.exp(rng.uniform(math.log(1e-3), math.log(60.0))))
            assert a1 <= -0.5
            assert meijer_g_weight(params, y * params.alpha / params.k) == pytest.approx(
                reference_kernel_u(a1, b2, y), rel=1e-12, abs=0.0), (a1, b2, y)

    @pytest.mark.parametrize("a", [-0.99, -0.7, -0.5, -0.3, -1e-2, -1e-3, -1e-9, 1e-9,
                                   1e-3, 2e-3, 1e-2, 0.1, 0.49, 0.5, 0.99, 1.0, 1.5, 3.0])
    def test_tricomi_grid_against_mpmath(self, a):
        # the Laplace routes over their whole range, one array call per
        # (a, b); U's first index a = gamma/k - 1, second b = beta/alpha.
        # Small |a| is where the unsubtracted integral (for a > 0) and the
        # backward recurrence (for a < 0) used to lose up to 1e-1 and 1e-10
        ys = np.array([1e-4, 3e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0])
        for b in (0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 2.0, 3.3, 6.0, 12.0):
            params = MLParams(1.0, b, a + 1.0, 1.0)
            a1, b2 = params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0
            got = meijer_g_weight(params, ys)
            for y, g in zip(ys, got):
                want = reference_kernel_u(a1, b2, y)
                # (a, b) = (-1/2, 3/2) is the polynomial case with a zero at 1/2
                tol = {"abs": 1e-15} if want == 0.0 else {"rel": 1e-12, "abs": 0.0}
                assert g == pytest.approx(want, **tol), (a1, b2, y)

    @pytest.mark.parametrize("gamma, beta",
                             [(0.01, 1.01), (0.02, 1.02), (0.5, 1.5), (1.01, 1.01)])
    def test_polynomial_case_of_the_connection_formula(self, gamma, beta):
        # a1 - b2 = -1 or 0: 1/Gamma(a1 - b2) is 0 and G is e**-y U(a1 - b2,
        # 1 - b2, y), a polynomial, which the paired series takes where b2 is
        # near 0 and y below 1e-250; above, the Laplace routes do
        params = MLParams(1.0, beta, gamma, 1.0)
        a1, b2 = params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0
        for y in (1e-300, 1e-30, 1e-5):
            assert meijer_g_weight(params, y) == pytest.approx(
                reference_kernel_u(a1, b2, y), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("a1, b2, y", [(-1e-3, 11.0, 1e-4), (-0.01, 3.0, 1e-3)])
    def test_negative_first_index_near_zero(self, a1, b2, y):
        # the backward recurrence cancelled here (8.7e-11 and 4.8e-11 off)
        params = MLParams(1.0, b2 + 1.0, a1 + 1.0, 1.0)
        a1_, b2_ = params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0
        assert meijer_g_weight(params, y) == pytest.approx(
            reference_kernel_u(a1_, b2_, y), rel=1e-12, abs=0.0)

    def test_small_argument_public_paths(self):
        # these raised a bare ValueError (log of an underflowed integral)
        for params, x in ((MLParams(1.5, 1.2, 0.6, 1.0), 3e-6),
                          (MLParams(1.0, 0.3, 2.0, 1.0), 2.5e-6)):
            assert meijer_g_weight(params, x) == pytest.approx(
                reference_kernel(params, x), rel=1e-12
            , abs=0)
            assert math.isfinite(measure_weight_h(params, x))
            cfg = ThermalConfig(0.5, LinearSpectrum.from_params(params))
            assert math.isfinite(p_function(CSLabel(math.sqrt(x)), params, cfg))

    def test_large_first_index_stays_accurate(self):
        # gamma/k >> 1 suppresses the kernel far below the contour head;
        # the value must still carry ~1e-12 relative accuracy of its own
        params = MLParams(3.0, 1.0, 5.0, 0.375)
        x = 8.0
        assert meijer_g_weight(params, x) == pytest.approx(
            reference_kernel(params, x), rel=1e-11
        , abs=0)

    @given(alpha=PARAM, beta=PARAM, gamma=PARAM, k=PARAM,
           y=st.floats(min_value=0.05, max_value=15.0))
    @settings(max_examples=60, deadline=None)
    # gamma/k - 1 = 1.8e-3: the unsubtracted Laplace integral was 4.1e-4 off
    @example(alpha=1.0, beta=1.0, gamma=2.1171875, k=2.11328125, y=2.11328125)
    def test_contour_referee_agrees(self, alpha, beta, gamma, k, y):
        # the contour sum resolves the kernel relative to the magnitude of
        # its t = 0 integrand; demand 1e-9 agreement only where the kernel
        # holds at least 1e-2 of that head, so roundoff sits below 1e-10
        params = MLParams(alpha, beta, gamma, k)
        a1 = gamma / k - 1.0
        b2 = beta / alpha - 1.0
        c = max(0.0, -b2) + 0.75
        assume(a1 + c != 0.0)
        head = math.exp(
            math.lgamma(c) + math.lgamma(b2 + c) - math.lgamma(a1 + c)
        ) * y ** (-c) / math.pi
        x = y * alpha / k
        fast = meijer_g_weight(params, x)
        assume(fast > 1e-2 * head)
        referee = meijer_g_weight_mb(params, x)
        assert abs(fast - referee) <= 1e-9 * max(fast, abs(referee))

    @given(alpha=PARAM, beta=PARAM, gamma=PARAM, k=PARAM,
           y=st.floats(min_value=0.05, max_value=700.0))
    @settings(max_examples=40, deadline=None)
    def test_checked_mode_accepts_honest_values(self, alpha, beta, gamma, k, y):
        # the referee resolves the kernel to 1e-10 of its head, which the
        # saddle keeps near the kernel deep in the exponential tail too;
        # checked mode must not cry wolf there
        params = MLParams(alpha, beta, gamma, k)
        x = y * alpha / k
        checked = meijer_g_weight(params, x, check=True)
        assert checked == meijer_g_weight(params, x)

    @pytest.mark.parametrize("params",
                             [MLParams(1.4, 2.6, 0.9, 1.7), MLParams(2.0, 3.0, 1.5, 0.7)])
    def test_checked_mode_sees_a_small_error_deep_in_the_tail(self, params, monkeypatch):
        # at y = 40 the contour at c = 3/4 carried a roundoff floor ~1e9 times
        # the kernel, so a referee off by 1e-6 passed; at the saddle it fails
        import mlcs.measure as measure_mod

        contour = measure_mod._mb_contour

        def off(p, x):
            value, head = contour(p, x)
            return value * (1.0 + 1e-6), head

        x = 40.0 * params.alpha / params.k
        meijer_g_weight(params, x, check=True)
        monkeypatch.setattr(measure_mod, "_mb_contour", off)
        with pytest.raises(RouteMismatchError):
            meijer_g_weight(params, x, check=True)

    @pytest.mark.parametrize("fault, x", [
        (1e-6, 1e-3), (1e-6, 1e-5),
        # the referee's roundoff floor, 1e-10 of its t = 0 integrand, grows
        # past the kernel as y falls; with no error estimate of its own sum
        # it lets these faults through (ROADMAP Direction 3)
        pytest.param(1e-4, 1e-9, marks=pytest.mark.xfail(
            strict=True, reason="no quadrature error estimate in the referee, ROADMAP Direction 3")),
        pytest.param(1e-4, 1e-10, marks=pytest.mark.xfail(
            strict=True, reason="no quadrature error estimate in the referee, ROADMAP Direction 3")),
    ])
    def test_checked_mode_catches_a_faulty_fast_value(self, fault, x, monkeypatch):
        import mlcs.measure as measure_mod

        params = MLParams(2.0, 3.0, 1.5, 0.7)
        fast = measure_mod._meijer_g
        monkeypatch.setattr(measure_mod, "_meijer_g",
                            lambda p, xs, lift=0.0: fast(p, xs, lift) * (1.0 + fault))
        with pytest.raises(RouteMismatchError):
            meijer_g_weight(params, x, check=True)

    def test_checked_mode_passes_on_grid(self):
        params = MLParams(1.4, 2.6, 0.9, 1.7)
        for x in (0.2, 1.0, 4.0, 12.0):
            checked = meijer_g_weight(params, x, check=True)
            assert checked == meijer_g_weight(params, x)

    # a1 < 0 and b2 near 140-150, where Gamma(b2 + s) falls along the line as
    # a Gaussian of width sqrt(b2 + c): the contour runs out to 9 sqrt(b2 + c)
    LONG_CONTOUR = [
        (MLParams(0.12935056914610366, 17.871830865908123, 0.5213633287371997, 0.8651940760872557),
         0.22194138312738199, 1e-11),
        (MLParams(0.4779694785408619, 72.70469373797637, 0.0139870074705107, 6.6660086812879955),
         0.012366774644829246, 1e-7),
    ]

    @pytest.mark.parametrize("params, x, tol", LONG_CONTOUR)
    def test_referee_reaches_past_the_second_gamma(self, params, x, tol):
        want = reference_kernel_u(params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0,
                                  params.k / params.alpha * x)
        assert meijer_g_weight_mb(params, x) == pytest.approx(want, rel=tol, abs=0)
        assert meijer_g_weight(params, x, check=True) == meijer_g_weight(params, x)

    @pytest.mark.xfail(strict=True, reason="a1 = -0.998: the referee is still 1.3e-8 off mpmath")
    def test_referee_within_1e_9_at_a1_near_minus_one(self):
        params, x, _ = self.LONG_CONTOUR[1]
        want = reference_kernel_u(params.gamma_over_k - 1.0, params.beta_over_alpha - 1.0,
                                  params.k / params.alpha * x)
        assert meijer_g_weight_mb(params, x) == pytest.approx(want, rel=1e-9, abs=0)

    def test_anchors_keep_forty_panels(self, monkeypatch):
        # T = 80 at the benchmark anchors, so the contour is the one it was
        import mlcs.measure as measure_mod

        seen = []
        panels = measure_mod._panel_nodes
        monkeypatch.setattr(measure_mod, "_panel_nodes",
                            lambda edges, orders: seen.append(edges) or panels(edges, orders))
        for params in (MLParams(2.0, 3.0, 1.5, 0.7), MLParams(1.0, 2.0, 3.0, 1.0), MLParams(1.5, 1.2, 0.6, 1.0)):
            for y in (0.2, 1.0, 10.0):
                meijer_g_weight_mb(params, y * params.alpha / params.k)
        assert len(seen) == 9
        for edges in seen:
            np.testing.assert_array_equal(edges, np.linspace(0.0, 80.0, 41))

    @pytest.mark.parametrize("params", [MLParams(1.0, 1.0, 1.0, 1.0), MLParams(1.0, 3.0, 1.5, 1.0)])
    def test_contour_keeps_its_panels_at_large_y(self, params, monkeypatch):
        # far out the saddle c ~ y sets the length 9 sqrt(c): b2 = 0 keeps 40
        # panels, b2 = 2 lengthens it by sqrt(1 + 2/c) and adds one panel
        import mlcs.measure as measure_mod

        seen = []
        panels = measure_mod._panel_nodes
        monkeypatch.setattr(measure_mod, "_panel_nodes",
                            lambda edges, orders: seen.append(len(edges) - 1) or panels(edges, orders))
        for x in (500.0, 1e5, 1e7, 1e150):
            meijer_g_weight_mb(params, x)
        assert max(seen) <= 41

    @pytest.mark.parametrize("params", [MLParams(1.0, 1.0, 1.0, 1.0), MLParams(1.0, 3.0, 1.5, 1.0)])
    def test_saddle_survives_past_the_square_of_y(self, params):
        # past y ~ 1.3e154 (y - b2)**2 overflows: the saddle takes |y - b2| out
        # of its root, and the referee meets the fast route's underflow to 0
        # with no RuntimeWarning (an error in this suite)
        for x in (1e155, 1e160, 1e300):
            assert meijer_g_weight_mb(params, x) == meijer_g_weight(params, x) == 0.0
            assert meijer_g_weight(params, x, check=True) == 0.0

    def test_route_mismatch_carries_both_values(self, monkeypatch):
        import mlcs.measure as measure_mod

        params = MLParams(1.4, 2.6, 0.9, 1.7)
        honest = meijer_g_weight(params, 1.0)
        monkeypatch.setattr(measure_mod, "_mb_contour",
                            lambda p, x: (1.5 * honest, 0.0))
        with pytest.raises(RouteMismatchError) as exc:
            meijer_g_weight(params, 1.0, check=True)
        assert exc.value.first == honest
        assert exc.value.second == pytest.approx(1.5 * honest, rel=1e-15, abs=0)


class TestArrayKernel:
    """meijer_g_weight and measure_weight_h on a 1-d array of x.  All values
    of one call share the nodes of one rule, whose range and halvings depend
    on the whole array, so an array call agrees with per-element calls to
    roundoff, not bit for bit."""

    PARAMS = (MLParams(2.0, 3.0, 1.5, 0.7), MLParams(1.0, 2.0, 3.0, 1.0),
              MLParams(1.5, 1.2, 0.6, 1.0), MLParams(1.0, 4.0000001, 1.0, 2.0),
              MLParams(1.0, 1.0, 2.1171875, 2.11328125))

    @pytest.mark.parametrize("params", PARAMS)
    def test_array_matches_scalar_calls(self, params):
        xs = np.array([3e-6, 1e-3, 0.05, 0.4, 1.0, 2.5, 9.0, 30.0])
        got = meijer_g_weight(params, xs)
        assert isinstance(got, np.ndarray) and got.shape == xs.shape
        for x, g in zip(xs.tolist(), got):
            assert g == pytest.approx(meijer_g_weight(params, x), rel=1e-14, abs=0.0)
        # a float x takes E(x) from the scalar series, an array from the table
        h = measure_weight_h(params, xs)
        for x, v in zip(xs.tolist(), h):
            assert v == pytest.approx(measure_weight_h(params, x), rel=1e-14, abs=0.0)

    def test_scalar_in_scalar_out(self):
        assert type(meijer_g_weight(UNIT_PARAMS, 1.0)) is float
        assert type(measure_weight_h(UNIT_PARAMS, 1.0)) is float

    def test_origin_entry_gives_the_limit(self):
        params = MLParams(2.0, 5.0, 4.0, 1.0)
        got = meijer_g_weight(params, np.array([0.0, 1.0, 0.0]))
        assert got[0] == got[2] == meijer_g_weight(params, 0.0)
        assert got[0] == pytest.approx(0.44311346272637900, rel=1e-14, abs=0)
        assert meijer_g_weight(MLParams(1.0, 1.0, 2.0, 1.0), np.array([0.0, 1.0]))[0] == math.inf
        assert measure_weight_h(UNIT_PARAMS, np.array([0.0, 2.0])) == pytest.approx(
            1.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_entry_is_a_domain_error(self, bad):
        xs = np.array([1.0, bad, 2.0])
        with pytest.raises(DomainError):
            meijer_g_weight(UNIT_PARAMS, xs)
        with pytest.raises(DomainError):
            measure_weight_h(UNIT_PARAMS, xs)

    def test_non_real_or_nested_input_is_a_domain_error(self):
        for bad in (np.ones((2, 2)), np.array([1j]), [1.0, 2.0], "1.0"):
            with pytest.raises(DomainError):
                meijer_g_weight(UNIT_PARAMS, bad)

    def test_bool_is_a_domain_error(self):
        # True is an int to isinstance: a scalar bool is refused as a bool
        # array is, not taken as x = 1
        params = MLParams(2.0, 3.0, 1.5, 0.7)
        for run in (meijer_g_weight, measure_weight_h, meijer_g_weight_mb):
            with pytest.raises(DomainError):
                run(params, True)
        for run in (meijer_g_weight, measure_weight_h):
            with pytest.raises(DomainError):
                run(params, np.array([True, False]))

    def test_checked_mode_referees_every_element(self, monkeypatch):
        import mlcs.measure as measure_mod

        params = MLParams(1.4, 2.6, 0.9, 1.7)
        seen = []
        contour = measure_mod._mb_contour

        def counting(p, x):
            seen.append(x)
            return contour(p, x)

        monkeypatch.setattr(measure_mod, "_mb_contour", counting)
        xs = np.array([0.0, 0.2, 1.0, 4.0, 12.0])
        assert np.array_equal(meijer_g_weight(params, xs, check=True),
                              meijer_g_weight(params, xs))
        # x = 0 is the analytic limit, which the referee is not asked about
        assert seen == xs[1:].tolist()

        # one element off: the whole call is refused
        def one_off(p, x):
            value, head = contour(p, x)
            return value * (1.5 if x == 4.0 else 1.0), head

        monkeypatch.setattr(measure_mod, "_mb_contour", one_off)
        with pytest.raises(RouteMismatchError):
            meijer_g_weight(params, xs, check=True)

    def test_suites_and_p_function_call_the_kernel_on_arrays(self, monkeypatch):
        import mlcs.measure as measure_mod

        params = MLParams(1.5, 1.2, 0.6, 1.0)
        calls = []
        kernel = measure_mod._meijer_g

        def counting(p, xs):
            calls.append(xs.size)
            return kernel(p, xs)

        # the suites call the kernel past the public validation
        monkeypatch.setattr(measure_mod, "_meijer_g", counting)
        verify_resolution(params, s_max=8)
        assert 1 <= len(calls) <= 8 and sum(calls) > 100  # one call per rule level
        calls.clear()
        resolution_identity_matrix(params, n_max=4)
        assert 1 <= len(calls) <= 8 and sum(calls) > 100
        calls.clear()
        cfg = ThermalConfig(0.5, LinearSpectrum.from_params(params))
        p_function(CSLabel(1.0), params, cfg)
        assert calls == [2]

    def test_p_function_reports_an_underflowed_denominator(self):
        params = MLParams(1.4, 2.6, 0.9, 1.7)
        cfg = ThermalConfig(0.5, LinearSpectrum.from_params(params))
        assert meijer_g_weight(params, 900.0) == 0.0
        with pytest.raises(DomainError):
            p_function(CSLabel(30.0), params, cfg)


class TestMeasureWeight:
    def test_unit_parameters_give_flat_weight(self):
        for x in (0.0, 0.1, 1.0, 3.0, 9.0):
            assert measure_weight_h(UNIT_PARAMS, x) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            measure_weight_h(UNIT_PARAMS, -1.0)

    def test_nonnegative_on_reference_set(self):
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        for x in np.linspace(0.05, 20.0, 15):
            assert measure_weight_h(params, float(x)) >= 0.0

    @staticmethod
    def _weight_reference(params, x):
        """h(x) from mpmath's 1F1 and Tricomi U at 40 digits."""
        a, b = params.gamma_over_k, params.beta_over_alpha
        with mpmath.workdps(40):
            y = mpmath.mpf(params.k) / params.alpha * x
            return float(mpmath.mpf(params.k) / params.alpha * mpmath.gamma(a) / mpmath.gamma(b)
                         * mpmath.hyp1f1(a, b, y) * y ** (b - 1) * mpmath.exp(-y)
                         * mpmath.hyperu(a - 1, b, y))

    @pytest.mark.parametrize("x", [400.0, 500.0])
    def test_weight_where_the_kernel_alone_underflows(self, x):
        # at (1, 3, 50, 0.5) Gamma(beta) (k/alpha) Gamma(gamma/k) / Gamma(beta/alpha)
        # is 4.7e155 and E(400) is 1e169, while G(200) ~ 1e-325 underflows:
        # the product used to overflow to NaN from x ~ 360
        params = MLParams(1.0, 3.0, 50.0, 0.5)
        want = self._weight_reference(params, x)
        for got in (measure_weight_h(params, x), measure_weight_h(params, np.array([1.0, x]))[1]):
            assert got == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("params, x", [
        (MLParams(1.0, 3.0, 50.0, 0.5), 600.0),
        (MLParams(1.0, 3.0, 50.0, 0.5), 700.0),
        (MLParams(1.0, 3.0, 50.0, 0.5), 1500.0),
        # these two raised OverflowError (E(5000) ~ 1e760 leaves float64) and
        # ConvergenceError (the fixed cap 2e4 gamma/beta exceeds the budget)
        (MLParams(2.0, 3.0, 1.5, 0.7), 5000.0),
        (MLParams(2.0, 3.0, 1.5, 0.7), 2e4),
        # first index 1/2 <= a <= 1 (after Kummer's transformation): the plain
        # form's integrand, scaled by its value at s = y, left float64 near
        # s = 0, and h raised ConvergenceError at y = 631 and 2000 (x = 1041.15
        # and 3300) and at y = 700 of (1, 1, 1.6, 1), beside a value at y = 600
        (MLParams(2.0625, 1.25, 1.390625, 1.25), 990.0),
        (MLParams(2.0625, 1.25, 1.390625, 1.25), 1041.15),
        (MLParams(2.0625, 1.25, 1.390625, 1.25), 3300.0),
        (MLParams(1.0, 1.0, 1.6, 1.0), 700.0)])
    def test_weight_where_the_series_leaves_float64(self, params, x):
        # log E comes from the scaled sum, so E past float64 does not matter;
        # at (1, 3, 50, 0.5) the series settled after 10,000 terms no more
        want = self._weight_reference(params, x)
        for got in (measure_weight_h(params, x), measure_weight_h(params, np.array([1.0, x]))[1]):
            assert got == pytest.approx(want, rel=1e-10, abs=0)

    @pytest.mark.parametrize("params, x, error, match", [
        # x k/alpha = 10,500 and 10,000: no cap / (n + 1) drops below 1 in budget
        (MLParams(2.0, 3.0, 1.5, 0.7), 3e4, ConvergenceError, r"series at x=30000.0 "),
        (MLParams(1.0, 3.0, 50.0, 0.5), 2e4, ConvergenceError, r"series at x=20000.0 "),
        (MLParams(1.0, 0.001, 0.1, 1.0), 1e-315, OverflowError, r"Meijer kernel at x = 1e-315 exceeds")])
    def test_scalar_and_array_raise_the_same_errors(self, params, x, error, match):
        for arg in (x, np.array([1.0, x])):
            with pytest.raises(error, match=match):
                measure_weight_h(params, arg)

    @pytest.mark.parametrize("params, x", [
        # Gamma(beta) (k/alpha) Gamma(gamma/k) / Gamma(beta/alpha) is beyond
        # float64 while E G underflows: their product was inf * 0 = NaN
        (MLParams(6.239063, 117.197027, 22.539513, 0.209489), 0.0347),
        # Gamma(beta) and Gamma(beta/alpha) beyond float64 raised OverflowError
        (MLParams(1.0, 200.0, 1.0, 1.0), 150.0),
        (MLParams(0.5, 100.0, 1.0, 1.0), 100.0),
        # at a subnormal x, b2 = 0.3 takes the connection formula, whose
        # 1/Gamma(a1) underflowed before e**lift was applied: inf * 0 again
        (MLParams(1.0, 1.3, 172.0, 1.0), 5e-324),
        (MLParams(1.0, 1.3, 200.0, 1.0), 1e-310)])
    def test_weight_past_the_gammas(self, params, x):
        want = self._weight_reference(params, x)
        assert 1e-6 < want < 1e6
        for got in (measure_weight_h(params, x), measure_weight_h(params, np.array([1.0, x]))[1]):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_one_value_sums_the_scalar_series(self, monkeypatch):
        import mlcs.measure as measure_mod

        def forbidden(*args):
            raise AssertionError("a term table was built for one value")

        params = MLParams(2.0, 3.0, 1.5, 0.7)
        want = measure_weight_h(params, 2.0)
        monkeypatch.setattr(measure_mod, "_ml_table", forbidden)
        assert measure_weight_h(params, 2.0) == want
        with pytest.raises(AssertionError, match="term table"):
            measure_weight_h(params, np.array([2.0]))


class TestMomentIdentity:
    def test_closed_form_reduces_to_gamma(self):
        for s in (1.0, 2.0, 3.5, 6.0):
            assert moment_closed_form(UNIT_PARAMS, s) == pytest.approx(
                math.gamma(s), rel=1e-13
            , abs=0)

    def test_closed_form_domain(self):
        with pytest.raises(DomainError):
            moment_closed_form(UNIT_PARAMS, 0.0)
        with pytest.raises(DomainError):
            moment_closed_form(UNIT_PARAMS, -2.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="s must be positive and finite"):
                moment_closed_form(UNIT_PARAMS, bad)

    def test_quadrature_matches_closed_form(self):
        for params in (UNIT_PARAMS, MLParams(2.0, 3.0, 1.0, 1.0),
                       MLParams(0.5, 1.5, 2.0, 0.8)):
            report = verify_resolution(params, s_max=6)
            assert report.max_rel_err <= 1e-8
            for l, r in zip(report.lhs, report.rhs):
                assert l == pytest.approx(r, rel=1e-8, abs=0)

    def test_gamma_k_and_beta_alpha_below_one(self):
        # the rule's nodes reach far below y = 1e-4, where the Laplace route
        # of the kernel failed for gamma/k < 1 and beta/alpha < 1
        report = verify_resolution(MLParams(1.5, 1.2, 0.6, 1.0), s_max=10)
        assert report.max_rel_err <= 1e-10

    def test_node_budget_is_enforced(self, monkeypatch):
        import mlcs.quadrature as quadrature_mod

        monkeypatch.setattr(quadrature_mod, "_MAX_NODES", 100)
        with pytest.raises(ConvergenceError, match="node budget 100"):
            verify_resolution(UNIT_PARAMS, s_max=40)

    def test_report_dict_shape(self):
        report = verify_resolution(UNIT_PARAMS, s_max=3)
        d = report.to_dict()
        assert set(d) == {"s_values", "lhs", "rhs", "max_rel_err"}
        assert d["s_values"] == [1.0, 2.0, 3.0]

    def test_report_validation(self):
        with pytest.raises(DomainError):
            MomentReport((1.0, 2.0), (1.0,), (1.0, 2.0))
        with pytest.raises(DomainError):
            MomentReport((), (), ())
        rep = MomentReport((1.0, 2.0), (1.0, 2.0), (1.0, 2.2))
        assert rep.max_rel_err == pytest.approx(0.2 / 2.2, rel=1e-12, abs=0)

    def test_report_error_below_1e_300(self):
        # relative to |rhs| at any size: the lhs 1e-308 (1 - 2.53e-9) is off
        # by 2.53e-9, not by 2.53e-17
        rep = MomentReport((1.0,), (9.9999999747e-309,), (1e-308,))
        assert rep.max_rel_err == pytest.approx(2.53e-9, rel=1e-3, abs=0)
        assert MomentReport((1.0,), (0.0,), (0.0,)).max_rel_err == 0.0
        assert MomentReport((1.0,), (1e-320,), (0.0,)).max_rel_err == math.inf


class TestResolutionIdentity:
    def test_gram_matrix_is_identity(self):
        params = MLParams(1.5, 2.5, 1.0, 1.0)
        mat = resolution_identity_matrix(params, n_max=5)
        assert np.allclose(np.diag(mat), 1.0, atol=1e-8)
        off = mat - np.diag(np.diag(mat))
        assert np.all(off == 0.0)

    def test_gram_matrix_below_unit_indices(self):
        mat = resolution_identity_matrix(MLParams(1.5, 1.2, 0.6, 1.0), n_max=10)
        assert np.max(np.abs(mat - np.eye(11))) <= 1e-10

    def test_unit_parameters_identity(self):
        mat = resolution_identity_matrix(UNIT_PARAMS, n_max=4)
        assert np.allclose(mat, np.eye(5), atol=1e-9)

    DIAGONAL_SETS = (
        UNIT_PARAMS, MLParams(1.5, 2.5, 1.0, 1.0), MLParams(1.5, 1.2, 0.6, 1.0),
        MLParams(2.0, 3.0, 0.3, 1.0), MLParams(2.0, 3.0, 1.5, 0.7), MLParams(0.6, 1.4, 2.8, 1.1))
    # the quadrature anchors of the benchmark
    ANCHORS = (MLParams(2.0, 3.0, 1.5, 0.7), MLParams(1.0, 2.0, 3.0, 1.0),
               MLParams(1.5, 1.2, 0.6, 1.0))

    @pytest.mark.parametrize("params", DIAGONAL_SETS)
    def test_diagonal_at_roundoff(self, params):
        # E(x) cancels from h |c_n|^2 and is not formed; with h(x) and |c_n|^2
        # on two separately truncated sums the worst was 5.8e-13
        diag = np.diag(resolution_identity_matrix(params, n_max=10))
        assert np.max(np.abs(diag - 1.0)) <= 1e-14

    @pytest.mark.parametrize("params", ANCHORS)
    def test_diagonal_at_roundoff_to_n_170(self, params):
        # the ladder climbs from the kernel, so no x**n times a coefficient
        # overflows at the far nodes of the tallest entry
        diag = np.diag(resolution_identity_matrix(params, n_max=170))
        assert np.max(np.abs(diag - 1.0)) <= 2e-14

    @pytest.mark.parametrize("params", DIAGONAL_SETS + ANCHORS[1:] + (
        MLParams(1.0, 2.0, 1.0, 1.0), MLParams(2.0, 3.0, 1.0, 1.0)))
    def test_suites_make_one_outer_integrand_call(self, params, monkeypatch):
        # the rule's scale follows the tallest member, so the first 129 nodes
        # cover every moment and diagonal entry; each call of the outer
        # integrand makes one kernel call
        import mlcs.measure as measure_mod

        kernel = measure_mod._meijer_g
        sizes = []
        monkeypatch.setattr(measure_mod, "_meijer_g",
                            lambda p, xs: sizes.append(xs.size) or kernel(p, xs))
        verify_resolution(params, s_max=8)
        resolution_identity_matrix(params, n_max=10)
        assert sizes == [129, 129]

    def test_gram_columns_are_h_times_state_probabilities(self, monkeypatch):
        # the Gram integrand, with E(x) cancelled, is still the paper's
        # h(x) |c_n(sqrt x)|^2: measure_weight_h times the probabilities of
        # the state built by cs_build, at one x per regime of the series
        import mlcs.measure as measure_mod

        params = MLParams(2.0, 3.0, 1.5, 0.7)
        families = []
        monkeypatch.setattr(measure_mod, "half_line_quad",
                            lambda f, scale: families.append(f) or (np.ones(12), None))
        resolution_identity_matrix(params, n_max=11)
        monkeypatch.undo()  # the family and h at these x on the real rule
        xs = np.array([0.0, 0.3, 4.0, 40.0])
        columns = families[0](xs)
        assert columns.shape == (4, 12)
        for x, row in zip(xs.tolist(), columns):
            want = measure_weight_h(params, x) * photon_distribution(
                CSLabel(math.sqrt(x)), params).probs[:12]
            assert row[:want.size] == pytest.approx(want, rel=1e-11, abs=1e-300)

    def test_one_term_table_per_rule_level(self, monkeypatch):
        import mlcs.coherent as coherent_mod
        import mlcs.measure as measure_mod
        import mlcs.mlfunc as mlfunc_mod
        import mlcs.quadrature as quadrature_mod

        def forbidden(*args):
            raise AssertionError("a scalar series loop ran")

        monkeypatch.setattr(mlfunc_mod, "_series", forbidden)
        monkeypatch.setattr(coherent_mod, "_series_terms", forbidden)
        tables, kernels, levels = [], [], []
        table = mlfunc_mod._ml_table
        kernel = measure_mod._meijer_g

        def counted_table(params, x):
            tables.append(x)
            return table(params, x)

        def counted_kernel(params, x, *lift):
            kernels.append(x)
            return kernel(params, x, *lift)

        rule = quadrature_mod.half_line_quad
        depth = []

        def counted_rule(f, *args):
            # only the outermost rule's levels; the kernel nests its own rule
            def g(x, *live):
                if len(depth) == 1:
                    levels.append(x)
                return f(x, *live)

            depth.append(f)
            try:
                return rule(g, *args)
            finally:
                depth.pop()

        monkeypatch.setattr(measure_mod, "_ml_table", counted_table)
        monkeypatch.setattr(mlfunc_mod, "_ml_table", counted_table)
        monkeypatch.setattr(measure_mod, "_meijer_g", counted_kernel)
        monkeypatch.setattr(measure_mod, "half_line_quad", counted_rule)
        monkeypatch.setattr(quadrature_mod, "half_line_quad", counted_rule)
        params = MLParams(2.0, 3.0, 1.5, 0.7)
        # the Gram matrix sums no E(x): one kernel call per level, on its nodes
        resolution_identity_matrix(params, n_max=10)
        assert levels and not tables and len(kernels) == len(levels)
        assert all(k is x for k, x in zip(kernels, levels))
        levels.clear()
        mlcs.ml_laplace_quad(params, 1.0)
        assert levels and len(tables) == len(levels)
        assert all(t is x for t, x in zip(tables, levels))
        tables.clear()
        measure_weight_h(params, np.array([0.5, 2.0, 8.0]))
        assert len(tables) == 1

    def test_gamma_beyond_float64_is_named(self):
        # h takes every Gamma from its log (TestMeasureWeight), the state and
        # the Gram ladder do not
        with pytest.raises(OverflowError, match=r"Gamma\(beta\) exceeds float64 range at beta = 200.0"):
            cs_build(CSLabel(1.0), MLParams(1.0, 200.0, 1.0, 1.0))
        # the Gram ladder needs Gamma(beta/alpha), not Gamma(beta)
        with pytest.raises(OverflowError, match=r"Gamma\(beta/alpha\) .* at beta/alpha = 200.0"):
            resolution_identity_matrix(MLParams(0.5, 100.0, 1.0, 1.0), n_max=2)

    def test_gram_matrix_past_gamma_of_beta(self):
        # Gamma(200) is beyond float64, but the ladder's head (k/alpha)
        # Gamma(gamma/k) / Gamma(beta/alpha) = Gamma(1) / (2 Gamma(100)) is
        # not, and the kernel y**99 e**-y is formed from its exponent
        diag = np.diag(resolution_identity_matrix(MLParams(2.0, 200.0, 1.0, 1.0), n_max=4))
        assert np.max(np.abs(diag - 1.0)) <= 2e-14

    def test_invalid_sizes(self):
        with pytest.raises(DomainError):
            resolution_identity_matrix(UNIT_PARAMS, n_max=-1)
        with pytest.raises(DomainError):
            verify_resolution(UNIT_PARAMS, s_max=0)


class TestSpecialFunctions:
    """The numpy and math special functions of the kernel's connection formula
    and of its contour referee, against mpmath."""

    def test_log_gamma_on_contour_nodes(self):
        # rows of one contour: Re z from -0.25 to 700, Im z ascending to 250,
        # through the shifted prefix below Im z = 8 and Stirling's series
        # beyond; only exp of the log is used, so the branch is free
        import mlcs.measure as measure_mod

        t = np.concatenate((np.linspace(0.0, 10.0, 41), np.linspace(10.5, 250.0, 40)))
        re = np.array([-0.25, 0.1, 0.75, 1.3, 5.0, 7.9, 8.0, 30.0, 155.5, 700.0])
        got = measure_mod._log_gamma(re[:, None] + 1j * t)
        with mpmath.workdps(30):
            for i, r in enumerate(re):
                for j, im in enumerate(t):
                    ratio = mpmath.exp(got[i, j] - mpmath.loggamma(mpmath.mpc(r, im)))
                    # the log is formed from terms of size |z log z|, z
                    # shifted up to |z| >= 8 (scipy's loggamma meets the
                    # same bound: 2.6e-16 of that size at worst here)
                    size = abs(complex(r, im)) + 8.0
                    assert abs(ratio - 1) <= 5e-16 * size * math.log(size), (r, im)

    def test_reciprocal_gamma_at_and_next_to_its_poles(self):
        import mlcs.measure as measure_mod

        for x in (0.0, -1.0, -2.0, -7.0):
            assert measure_mod._rgamma(x) == 0.0
        with mpmath.workdps(30):
            for x in (1e-300, -1e-17, 1e-9, -1.0 + 1e-15, -1.0 - 1e-9, -2.0 + 1e-12,
                      -0.5, 0.5, 2.5, 170.0, 200.0):
                assert measure_mod._rgamma(x) == pytest.approx(
                    float(mpmath.rgamma(x)), rel=1e-15, abs=0), x
            # e**lift / Gamma(x) from one exponent where a factor leaves float64,
            # with the sign of Gamma on (-2, 0)
            for x, lift in ((200.0, 800.0), (180.0, 0.0), (2.5, 705.0), (0.3, -705.0),
                            (-0.5, 705.0), (-1.5, 706.0)):
                assert measure_mod._rgamma(x, lift) == pytest.approx(
                    float(mpmath.exp(lift) * mpmath.rgamma(x)), rel=1e-13, abs=0), (x, lift)
        with np.errstate(over="ignore"):  # inf where the quotient leaves float64
            assert measure_mod._rgamma(2.5, 720.0) == math.inf

    def test_gamma_ratio_near_zero_step(self):
        # (Gamma(x + d) / Gamma(x) - 1) / d from the difference of Stirling's
        # series, psi(x) at d = 0: the steps d = -b2 and b2 of the paired
        # series, b2 = beta/alpha - 1 at least 2**-53 where nonzero and below
        # 1/2, with x + d clear of the poles at 0 and -1
        import mlcs.measure as measure_mod

        def ratio_m1(x, d):
            return (mpmath.psi(0, x) if d == 0 else
                    mpmath.re(mpmath.expm1(mpmath.loggamma(mpmath.mpf(x) + d)
                                           - mpmath.loggamma(x))) / d)

        with mpmath.workdps(60):  # the difference of two log Gammas is O(d)
            for x in (-0.95, -0.4, 0.3, 1.0, 2.5, 30.0):
                for d in (0.0, 2.0 ** -53, -1.1e-16, 1e-12, -1e-7, 3e-4, -0.049, 0.049):
                    assert measure_mod._gamma_ratio_m1(x, d) == pytest.approx(
                        float(ratio_m1(x, d)), rel=4e-15, abs=0), (x, d)
            rng = np.random.default_rng(20260814)
            for x in rng.uniform(-0.99, 210.0, 400).tolist():
                top = min(0.49, 0.5 * min(abs(x), abs(x + 1.0)))
                for d in (-top, rng.uniform(-top, top), top):
                    want = float(ratio_m1(x, d))
                    assert abs(measure_mod._gamma_ratio_m1(x, d) - want) <= 4e-15 * max(
                        abs(want), 1.0), (x, d)


class TestHalfLineRule:
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 40.0])
    def test_block_growth_matches_gamma_moments(self, scale):
        # x**-0.6 and x**9 need many extra nodes at the two ends;
        # int_0^inf x**p exp(-x/3) dx = Gamma(p + 1) 3**(p + 1)
        powers = np.array([-0.6, 0.0, 2.5, 9.0])
        sizes = []

        def family(x, live=slice(None)):
            sizes.append(x.size)
            return x[:, None] ** powers[live] * np.exp(-x / 3.0)[:, None]

        values, _ = half_line_quad(family, scale)
        # after the 129 first nodes, growth steps of one block per end, none
        # cut short, then the halvings of at least 96 nodes
        growth = [n for n in sizes[1:] if n < 96]
        assert sizes[0] == 129 and growth and set(growth) <= {16, 32}
        want = np.array([math.gamma(p + 1.0) * 3.0 ** (p + 1.0) for p in powers])
        assert np.allclose(values, want, rtol=1e-13, atol=0.0)

    def test_first_call_covers_both_ends(self):
        # exp(-x) at scale 1: the 129 first nodes, t in [-4, 4], hold the
        # first halving and reach past both ends
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x)

        values, _ = half_line_quad(f, 1.0)
        assert sizes == [129]
        assert values[0] == pytest.approx(1.0, rel=1e-13, abs=0)

    def test_first_nodes_are_a_cached_read_only_table(self):
        import mlcs.quadrature as quadrature_mod

        table = quadrature_mod._first_nodes()
        assert all(a is b for a, b in zip(quadrature_mod._first_nodes(), table))
        j, x, w = table
        assert j.tolist() == list(range(-64, 65))
        for a in table:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        # the nodes the rule is called on are scale times the table
        seen = []
        half_line_quad(lambda xs: seen.append(xs.copy()) or np.exp(-xs / 3.0), 3.0)
        assert np.array_equal(seen[0], 3.0 * x)

    def test_member_negligible_inside_the_old_range_keeps_its_value(self):
        # a narrow peak at x = scale and exp(-x): both ends of the peak are
        # below roundoff well inside t in [-3, 3], so the wider first call
        # only adds zeros to it
        a = 4.0e4
        values, errors = half_line_quad(
            lambda x, live=slice(None): np.stack(
                (np.exp(-a * (x - 1.0) ** 2), np.exp(-x)), axis=1)[:, live], 1.0)
        peak = math.sqrt(math.pi / a) * math.erfc(-math.sqrt(a)) / 2.0
        assert values[0] == pytest.approx(peak, rel=1e-14, abs=0)
        assert values[1] == pytest.approx(1.0, rel=1e-14, abs=0)
        assert np.all(errors <= 1e-12 * np.abs(values))

    @pytest.mark.parametrize("params", [
        MLParams(2.0, 3.0, 1.5, 0.7), MLParams(1.0, 2.0, 3.0, 1.0), MLParams(1.5, 1.2, 0.6, 1.0)],
        ids=["2,3,1.5,0.7", "1,2,3,1", "1.5,1.2,0.6,1"])
    def test_integrand_calls_of_point_calls(self, params, monkeypatch):
        # the benchmark anchors: every rule call is one call of 129 nodes.
        # At gamma/k = 0.6, beta/alpha = 1.2 the kernel runs at (a1, b2) =
        # (-0.2, 0.2) after Kummer's transformation, whose weighted integrand
        # falls as s**0.8 toward s = 0; at (-0.4, -0.2) it fell only as
        # s**0.6 and took one more low-end block of 16 nodes
        import mlcs.measure as measure_mod
        import mlcs.quadrature as quadrature_mod

        rule = quadrature_mod.half_line_quad
        calls = []

        def counted_rule(f, scale):
            sizes = []
            calls.append(sizes)

            def g(x, *live):
                sizes.append(x.size)
                return f(x, *live)

            return rule(g, scale)

        monkeypatch.setattr(measure_mod, "half_line_quad", counted_rule)
        monkeypatch.setattr(quadrature_mod, "half_line_quad", counted_rule)
        to_x = params.alpha / params.k
        cfg = ThermalConfig(0.6, LinearSpectrum.from_params(params))
        for run in (lambda: meijer_g_weight(params, 0.7 * to_x),
                    lambda: meijer_g_weight(params, 0.05 * to_x),
                    lambda: meijer_g_weight(params, 30.0 * to_x),
                    lambda: measure_weight_h(params, 2.0 * to_x),
                    lambda: p_function(CSLabel(math.sqrt(to_x)), params, cfg),
                    lambda: mlcs.ml_laplace_quad(params, 3.0 * params.k / params.alpha)):
            calls.clear()
            run()
            assert calls == [[129]]

    @pytest.mark.parametrize("params", [
        MLParams(2.0, 3.0, 1.5, 0.7), MLParams(1.0, 2.0, 3.0, 1.0), MLParams(1.5, 1.2, 0.6, 1.0),
        MLParams(2.0, 3.0, 0.3, 1.0), MLParams(1.0, 0.8, 1.2, 1.0), MLParams(1.0, 0.5, 0.4, 1.0)])
    def test_float_call_is_its_one_element_array_call(self, params):
        # one code path: a float is a 1-element array to the kernel, bit for bit
        for y in (1e-300, 1e-5, 0.05, 0.7, 5.0, 30.0, 700.0):
            x = y * params.alpha / params.k
            assert meijer_g_weight(params, x) == meijer_g_weight(params, np.array([x]))[0]

    def test_first_call_exit_is_the_loops_result(self):
        # x**0.5 e**-x meets its target on the first call; beside a narrow
        # peak that needs halvings it keeps the value and estimate of that
        # call, which a family of two such members returns after one call
        asked = []

        def family(second):
            def f(x, live=None):
                asked.append(x.size)
                cols = np.stack((np.sqrt(x) * np.exp(-x), second(x)), axis=1)
                return cols if live is None else cols[:, live]
            return f

        alone = half_line_quad(family(lambda x: np.sqrt(x) * np.exp(-x)), 1.0)
        assert asked == [129]
        asked.clear()
        beside = half_line_quad(family(lambda x: np.exp(-x - 100.0 * (x - 2.0) ** 2)), 1.0)
        assert len(asked) > 1
        assert (alone[0][0], alone[1][0]) == (beside[0][0], beside[1][0])
        assert alone[0][0] == pytest.approx(math.gamma(1.5), rel=1e-14, abs=0)

    def test_each_member_stops_at_its_own_target(self):
        # exp(-x) meets its target on the first level; a narrow peak at x = 2
        # needs three more halvings, which ask for its column only.  (The
        # endpoint power x**-0.6 exp(-x) is not hard for this rule: it meets
        # its target on the first level as well.)
        asked = []

        def family(x, live=None):
            asked.append(None if live is None else live.tolist())
            cols = np.stack((np.exp(-x - 100.0 * (x - 2.0) ** 2), np.exp(-x)), axis=1)
            return cols if live is None else cols[:, live]

        values, errors = half_line_quad(family, 1.0)
        first = asked.index([0])
        assert first > 0 and asked[:first] == [None] * first
        assert asked[first:] == [[0]] * (len(asked) - first) and len(asked) - first >= 2
        # int exp(-x - a (x - c)**2) dx = e**(1/(4a) - c) sqrt(pi/a)
        # erfc(-(c - 1/(2a)) sqrt(a)) / 2, a = 100, c = 2
        peak = math.exp(0.0025 - 2.0) * math.sqrt(math.pi / 100.0) * math.erfc(-19.95) / 2.0
        assert np.allclose(values, [peak, 1.0], rtol=1e-14, atol=0.0)
        assert np.all(errors <= 1e-12 * np.abs(values))

    @pytest.mark.parametrize("params", [
        MLParams(2.0, 3.0, 1.5, 0.7), MLParams(1.5, 1.2, 0.6, 1.0), MLParams(0.5, 1.5, 2.0, 0.8),
        MLParams(2.0, 3.0, 0.3, 1.0)])
    def test_kernel_array_with_tiny_and_unit_y(self, params):
        # the y = 1e-12 columns take more halvings in s than those near 1,
        # which stop refining first; at gamma/k = 0.3 (two recurrence
        # families, y < 1e-4 on the series) one column of the first family
        # and two of the second go on.  Every value matches its own call.
        y = np.array([1e-12, 1e-4, 1e-3, 0.7, 1.0, 1.3, 1.5e-12])
        x = y * params.alpha / params.k
        got = meijer_g_weight(params, x)
        one = np.array([meijer_g_weight(params, float(xi)) for xi in x])
        assert np.allclose(got, one, rtol=1e-14, atol=0.0)

    def test_gamma_family_on_shared_nodes(self):
        # int_0^inf x**p exp(-x) dx = Gamma(p + 1), endpoint behavior x**p
        powers = np.array([-0.7, 0.0, 0.5, 3.0, 9.0])
        values, errors = half_line_quad(
            lambda x, live=slice(None): x[:, None] ** powers[live] * np.exp(-x)[:, None], 1.0
        )
        want = np.array([math.gamma(p + 1.0) for p in powers])
        assert np.allclose(values, want, rtol=1e-13, atol=0.0)
        assert np.all(errors <= np.maximum(1e-10, 1e-12 * want))

    def test_scale_moves_the_bulk(self):
        values, _ = half_line_quad(lambda x: np.exp(-x / 250.0), 250.0)
        assert values[0] == pytest.approx(250.0, rel=1e-13, abs=0)

    def test_failures_are_typed(self):
        with pytest.raises(DomainError):
            half_line_quad(lambda x: np.exp(-x), 0.0)
        with pytest.raises(ConvergenceError):
            half_line_quad(lambda x: np.full(x.shape, np.nan), 1.0)
        # x**-0.999 is integrable, but not before the nodes underflow
        with pytest.raises(ConvergenceError):
            half_line_quad(lambda x: x ** -0.999 * np.exp(-x), 1.0)
