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
           y=st.floats(min_value=0.05, max_value=30.0))
    @settings(max_examples=40, deadline=None)
    def test_checked_mode_accepts_honest_values(self, alpha, beta, gamma, k, y):
        # deep in the exponential tail the referee only resolves the kernel
        # to its own roundoff floor; checked mode must not cry wolf there
        params = MLParams(alpha, beta, gamma, k)
        x = y * alpha / k
        checked = meijer_g_weight(params, x, check=True, check_tol=1e-9)
        assert checked == meijer_g_weight(params, x)

    def test_checked_mode_passes_on_grid(self):
        params = MLParams(1.4, 2.6, 0.9, 1.7)
        for x in (0.2, 1.0, 4.0, 12.0):
            checked = meijer_g_weight(params, x, check=True)
            assert checked == meijer_g_weight(params, x)

    def test_route_mismatch_carries_both_values(self, monkeypatch):
        import mlcs.measure as measure_mod

        params = MLParams(1.4, 2.6, 0.9, 1.7)
        honest = meijer_g_weight(params, 1.0)
        monkeypatch.setattr(measure_mod, "meijer_g_weight_mb",
                            lambda p, x: 1.5 * honest)
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

    def test_checked_mode_referees_every_element(self, monkeypatch):
        import mlcs.measure as measure_mod

        params = MLParams(1.4, 2.6, 0.9, 1.7)
        seen = []
        referee = measure_mod.meijer_g_weight_mb

        def counting(p, x):
            seen.append(x)
            return referee(p, x)

        monkeypatch.setattr(measure_mod, "meijer_g_weight_mb", counting)
        xs = np.array([0.2, 1.0, 4.0, 12.0])
        assert np.array_equal(meijer_g_weight(params, xs, check=True),
                              meijer_g_weight(params, xs))
        assert seen == xs.tolist()
        # one element off: the whole call is refused
        monkeypatch.setattr(measure_mod, "meijer_g_weight_mb",
                            lambda p, x: referee(p, x) * (1.5 if x == 4.0 else 1.0))
        with pytest.raises(RouteMismatchError):
            meijer_g_weight(params, xs, check=True)

    def test_suites_and_p_function_call_the_kernel_on_arrays(self, monkeypatch):
        import mlcs.measure as measure_mod
        import mlcs.thermal as thermal_mod

        params = MLParams(1.5, 1.2, 0.6, 1.0)
        calls = []
        kernel = measure_mod.meijer_g_weight

        def counting(p, x, *args, **kwargs):
            calls.append(np.size(x))
            return kernel(p, x, *args, **kwargs)

        monkeypatch.setattr(measure_mod, "meijer_g_weight", counting)
        monkeypatch.setattr(thermal_mod, "meijer_g_weight", counting)
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

    @pytest.mark.parametrize("params", [
        UNIT_PARAMS, MLParams(1.5, 2.5, 1.0, 1.0), MLParams(1.5, 1.2, 0.6, 1.0),
        MLParams(2.0, 3.0, 0.3, 1.0), MLParams(2.0, 3.0, 1.5, 0.7), MLParams(0.6, 1.4, 2.8, 1.1)])
    def test_diagonal_at_roundoff(self, params):
        # h(x) and |c_n|^2 share one E(x) sum per node, so its truncation
        # cancels; with two separately truncated sums the worst was 5.8e-13
        diag = np.diag(resolution_identity_matrix(params, n_max=10))
        assert np.max(np.abs(diag - 1.0)) <= 1e-14

    def test_one_term_table_per_rule_level(self, monkeypatch):
        import mlcs.coherent as coherent_mod
        import mlcs.measure as measure_mod
        import mlcs.mlfunc as mlfunc_mod
        import mlcs.quadrature as quadrature_mod

        def forbidden(*args):
            raise AssertionError("a scalar series loop ran")

        monkeypatch.setattr(mlfunc_mod, "_series", forbidden)
        monkeypatch.setattr(coherent_mod, "_series_terms", forbidden)
        tables, levels = [], []
        table = mlfunc_mod._ml_table

        def counted_table(params, x):
            tables.append(x)
            return table(params, x)

        rule = quadrature_mod.half_line_quad
        depth = []

        def counted_rule(f, *args):
            # only the outermost rule's levels; the kernel nests its own rule
            def g(x):
                if len(depth) == 1:
                    levels.append(x)
                return f(x)

            depth.append(f)
            try:
                return rule(g, *args)
            finally:
                depth.pop()

        monkeypatch.setattr(measure_mod, "_ml_table", counted_table)
        monkeypatch.setattr(mlfunc_mod, "_ml_table", counted_table)
        monkeypatch.setattr(measure_mod, "half_line_quad", counted_rule)
        monkeypatch.setattr(quadrature_mod, "half_line_quad", counted_rule)
        params = MLParams(2.0, 3.0, 1.5, 0.7)
        for run in (lambda: resolution_identity_matrix(params, n_max=10),
                    lambda: mlcs.ml_laplace_quad(params, 1.0)):
            tables.clear()
            levels.clear()
            run()
            assert levels and len(tables) == len(levels)
            assert all(t is x for t, x in zip(tables, levels))
        tables.clear()
        measure_weight_h(params, np.array([0.5, 2.0, 8.0]))
        assert len(tables) == 1

    def test_gamma_beyond_float64_is_named(self):
        params = MLParams(1.0, 200.0, 1.0, 1.0)
        want = r"Gamma\(beta\) exceeds float64 range at beta = 200.0"
        for run in (lambda: measure_weight_h(params, 1.0),
                    lambda: resolution_identity_matrix(params, n_max=2),
                    lambda: cs_build(CSLabel(1.0), params)):
            with pytest.raises(OverflowError, match=want):
                run()
        with pytest.raises(OverflowError, match=r"Gamma\(beta/alpha\) .* at beta/alpha = 200.0"):
            measure_weight_h(MLParams(0.5, 100.0, 1.0, 1.0), 1.0)

    def test_invalid_sizes(self):
        with pytest.raises(DomainError):
            resolution_identity_matrix(UNIT_PARAMS, n_max=-1)
        with pytest.raises(DomainError):
            verify_resolution(UNIT_PARAMS, s_max=0)


class TestHalfLineRule:
    @pytest.mark.parametrize("scale", [1.0, 1e-3, 40.0])
    def test_block_growth_matches_gamma_moments(self, scale):
        # x**-0.6 and x**9 need many extra nodes at the two ends;
        # int_0^inf x**p exp(-x/3) dx = Gamma(p + 1) 3**(p + 1)
        powers = np.array([-0.6, 0.0, 2.5, 9.0])
        sizes = []

        def family(x):
            sizes.append(x.size)
            return x[:, None] ** powers * np.exp(-x / 3.0)[:, None]

        values, _ = half_line_quad(family, scale)
        # after the 49 first nodes, growth steps of one block per end, none
        # cut short, then the halvings of at least 48 nodes
        growth = [n for n in sizes[1:] if n < 48]
        assert sizes[0] == 49 and growth and set(growth) <= {8, 16}
        want = np.array([math.gamma(p + 1.0) * 3.0 ** (p + 1.0) for p in powers])
        assert np.allclose(values, want, rtol=1e-13, atol=0.0)

    def test_both_ends_grow_in_one_call(self):
        # exp(-x) at scale 1: the first 49 nodes, one block for each end in
        # one call, and one halving
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(-x)

        values, _ = half_line_quad(f, 1.0)
        assert sizes == [49, 16, 64]
        assert values[0] == pytest.approx(1.0, rel=1e-13, abs=0)

    def test_gamma_family_on_shared_nodes(self):
        # int_0^inf x**p exp(-x) dx = Gamma(p + 1), endpoint behavior x**p
        powers = np.array([-0.7, 0.0, 0.5, 3.0, 9.0])
        values, errors = half_line_quad(
            lambda x: x[:, None] ** powers * np.exp(-x)[:, None], 1.0
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
