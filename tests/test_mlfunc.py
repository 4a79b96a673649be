"""Series evaluator: reductions, route agreement, tails, Laplace transform."""

import cmath
import decimal
import inspect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mlcs import (
    CSLabel,
    ConvergenceError,
    DomainError,
    EvalConfig,
    MLParams,
    UNIT_PARAMS,
    ml_eval,
    ml_eval_complex,
    ml_eval_via_1f1,
    ml_laplace,
    ml_laplace_quad,
    mlfunc,
    photon_distribution,
)
import mlcs

PARAM = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)
# E(x) of these parameters leaves float64 range near x = 2030
F2 = MLParams(2.0, 3.0, 1.5, 0.7)


def reference_value(params, z):
    """High-precision oracle through the confluent representation."""
    with mpmath.workdps(40):
        a = mpmath.mpf(params.gamma) / mpmath.mpf(params.k)
        b = mpmath.mpf(params.beta) / mpmath.mpf(params.alpha)
        w = mpmath.mpf(params.k) / mpmath.mpf(params.alpha) * mpmath.mpf(z)
        val = mpmath.hyp1f1(a, b, w) / mpmath.gamma(params.beta)
        return float(val)


class TestReductions:
    def test_unit_parameters_give_exponential(self):
        tight = EvalConfig(rel_tol=1e-15)
        for z in (-20.0, -3.0, -1.0, 0.0, 0.5, 1.0, 4.0, 15.0):
            res = ml_eval(UNIT_PARAMS, z, tight)
            assert res.converged
            assert res.value == pytest.approx(math.exp(z), rel=1e-13, abs=0)

    def test_value_at_origin_is_reciprocal_gamma(self):
        for beta in (0.5, 1.0, 2.0, 3.7):
            params = MLParams(1.3, beta, 0.8, 2.0)
            res = ml_eval(params, 0.0)
            assert res.value == pytest.approx(1.0 / math.gamma(beta), rel=1e-15)
            assert res.terms_used == 1

    def test_shifted_exponential_closed_form(self):
        # alpha=k=gamma=1, beta=2 collapses to (e^z - 1)/z
        params = MLParams(1.0, 2.0, 1.0, 1.0)
        res = ml_eval(params, 2.0, EvalConfig(rel_tol=1e-15))
        assert res.value == pytest.approx((math.e**2 - 1.0) / 2.0, rel=1e-13)
        assert res.value == pytest.approx(3.1945280494653251, rel=1e-13)

    def test_matches_high_precision_oracle(self):
        cases = [
            (MLParams(2.0, 3.0, 1.0, 1.0), 5.0),
            (MLParams(0.5, 0.5, 0.5, 0.5), 2.0),
            (MLParams(1.7, 0.63, 4.24, 3.56), -18.5),
            (MLParams(3.0, 4.5, 0.3, 2.0), 12.0),
            (MLParams(0.21, 4.9, 4.9, 0.21), 1.5),
        ]
        for params, z in cases:
            res = ml_eval(params, z)
            assert res.converged
            assert res.value == pytest.approx(reference_value(params, z), rel=5e-12, abs=0)


class TestRouteAgreement:
    @given(alpha=PARAM, beta=PARAM, gamma=PARAM, k=PARAM,
           z=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    @example(alpha=0.4296875, beta=0.21875, gamma=4.0, k=0.25, z=-16.0)
    @settings(max_examples=120, deadline=None)
    def test_series_and_confluent_routes_agree(self, alpha, beta, gamma, k, z):
        params = MLParams(alpha, beta, gamma, k)
        direct = ml_eval(params, z)
        via = ml_eval_via_1f1(params, z)
        assert direct.converged and via.converged
        assert abs(direct.value - via.value) <= 1e-9 * abs(direct.value)

    def test_degenerate_ratio_pair_reflects_exactly(self):
        # beta/alpha == gamma/k collapses both routes to exp((k/alpha) z) / Gamma(beta);
        # the reflected numerator must cancel to exactly zero, not an eps-sized
        # residue that the positive-argument sum amplifies by e**|w|
        params = MLParams(0.6702143902751265, 0.234375,
                          0.234375, 0.6702143902751265)
        z = -18.0
        want = math.exp(z) / math.gamma(params.beta)
        assert ml_eval(params, z).value == pytest.approx(want, rel=1e-13, abs=0)
        assert ml_eval_via_1f1(params, z).value == pytest.approx(want, rel=1e-13, abs=0)

    def test_former_cancellation_hotspot(self):
        # deep negative argument with a large ratio swing; the naive
        # alternating sum loses every significant digit here
        params = MLParams(1.7050633413669527, 0.6320595343952269,
                          4.235756675363341, 3.5595591032408387)
        z = -18.511182157480604
        truth = reference_value(params, z)
        res = ml_eval(params, z)
        assert res.value == pytest.approx(truth, rel=1e-10, abs=0)
        assert ml_eval_via_1f1(params, z).value == pytest.approx(truth, rel=1e-10, abs=0)

    @pytest.mark.parametrize("params, z", [
        (MLParams(0.4296875, 0.21875, 4.0, 0.25), -16.0),
        (MLParams(0.2, 0.2, 5.0, 0.2), -20.0),
    ])
    def test_long_alternating_prefix(self, params, z):
        # beta/alpha - gamma/k near -15 and -24: the reflected terms alternate
        # that long and peak 1e8 times the value and more, which float
        # summation leaves 1e-9 off while reporting converged
        truth = reference_value(params, z)
        for res in (ml_eval(params, z), ml_eval_via_1f1(params, z)):
            assert res.converged
            assert res.value == pytest.approx(truth, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_routes_are_distinct_float_paths(self, alpha):
        # each route reflects in its own grouping; a shared reflected argument
        # (k/alpha) |z| would make them agree bit for bit at alpha = 1
        params = MLParams(alpha, 1.3, 0.9, 0.7)
        pairs = [(ml_eval(params, z).value, ml_eval_via_1f1(params, z).value)
                 for z in np.linspace(-40.0, -0.5, 80).tolist()]
        assert any(a != b for a, b in pairs)


class TestLogScale:
    @pytest.mark.parametrize("route", [ml_eval, ml_eval_via_1f1])
    def test_reflected_sum_beyond_float_range(self, route):
        # E(-2100) is -8.3e-8, but the reflected series sums to -1.3e312 before
        # the factor exp(-735); this returned NaN after 10,000 terms
        res = route(F2, -2100.0)
        assert res.converged
        assert res.value == pytest.approx(reference_value(F2, -2100.0), rel=1e-11, abs=0)

    @pytest.mark.parametrize("route", [ml_eval, ml_eval_via_1f1])
    def test_rescaled_sum_with_finite_value(self, route):
        res = route(F2, 2000.0)
        assert res.converged
        assert res.value == pytest.approx(reference_value(F2, 2000.0), rel=1e-12, abs=0)

    @pytest.mark.parametrize("route", [ml_eval, ml_eval_via_1f1, ml_eval_complex])
    def test_value_beyond_float64_raises(self, route):
        with pytest.raises(OverflowError):
            route(F2, 2030.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_non_finite_argument_is_a_domain_error(self, z):
        for route in (ml_eval, ml_eval_via_1f1, ml_eval_complex):
            with pytest.raises(DomainError):
                route(UNIT_PARAMS, z)
        with pytest.raises(DomainError):
            ml_eval_complex(UNIT_PARAMS, complex(1.0, z))

    def test_one_engine_sums_every_series(self, monkeypatch):
        kinds = []
        engine = mlfunc._series

        def spy(t0, *rest):
            kinds.append(type(t0))
            return engine(t0, *rest)

        monkeypatch.setattr(mlfunc, "_series", spy)
        for z in (3.0, -3.0):
            ml_eval(F2, z)
            ml_eval_via_1f1(F2, z)
        ml_eval_complex(F2, -1.0 + 2.0j)
        assert kinds == [float] * 4 + [complex]
        # the decimal re-sum of a long alternating prefix runs the same loop
        ml_eval(MLParams(0.2, 0.2, 5.0, 0.2), -20.0)
        assert kinds[5] is float and decimal.Decimal in kinds[6:]


class TestTermTable:
    """mlfunc._ml_table against the scalar engine it replaces at rule nodes."""

    SETS = [UNIT_PARAMS, F2, MLParams(0.6, 1.4, 2.8, 1.1), MLParams(1.5, 1.2, 0.6, 1.0),
            MLParams(3.0, 0.2, 0.1, 5.0)]

    @pytest.mark.parametrize("params", SETS)
    def test_sums_match_ml_eval(self, params):
        xs = np.geomspace(1e-30, 2000.0, 90)
        # small x next to x a thousand times larger in one call
        xs = np.concatenate([xs, np.geomspace(1e-3, 2.0, 20), np.geomspace(1.0, 2000.0, 20)])
        sums, exps, tails = mlfunc._ml_table(params, xs)
        for x, total, e, tail in zip(xs.tolist(), sums, exps.tolist(), tails):
            try:
                want = math.ldexp(ml_eval(params, x).value, -e)
            except OverflowError:  # E beyond float64: the same sum in its own scale
                total_s, e_s, *_ = mlfunc._ml_sum(params, x)
                want = math.ldexp(total_s, e_s - e)
            assert total == pytest.approx(want, rel=1e-13, abs=0), x
            assert 0.0 <= tail <= 1e-12 * total

    def test_row_ignores_its_companions(self):
        alone = mlfunc._ml_table(F2, np.array([2.0]))
        shared = mlfunc._ml_table(F2, np.array([2000.0, 2.0, 1e-30]))
        for got, want in zip(shared, alone):
            assert np.array_equal(got[1], want[0])

    def test_columns_are_the_state_probabilities(self):
        # the Gram matrix's probabilities: the ladder recursion from
        # t_0 / E(x), E(x) the table's sum
        from mlcs.measure import _weight_and_probs

        xs = np.array([0.0, 0.3, 4.0, 40.0])
        _, probs = _weight_and_probs(F2, xs, 11)
        assert probs.shape == (4, 12)
        for x, row in zip(xs.tolist(), probs):
            want = photon_distribution(CSLabel(math.sqrt(x)), F2).probs[:12]
            assert row[:want.size] == pytest.approx(want, rel=1e-11, abs=1e-300)

    def test_budget_and_empty_call(self):
        with pytest.raises(ConvergenceError, match="10000 terms"):
            mlfunc._ml_table(UNIT_PARAMS, np.array([1.0, 2e4]))
        sums, exps, tails = mlfunc._ml_table(UNIT_PARAMS, np.array([]))
        assert sums.size == exps.size == tails.size == 0

    def test_gamma_of_beta_beyond_float64_is_named(self):
        params = MLParams(1.0, 200.0, 1.0, 1.0)
        want = r"Gamma\(beta\) exceeds float64 range at beta = 200.0"
        for route in (ml_eval, ml_eval_via_1f1, ml_laplace, ml_laplace_quad):
            with pytest.raises(OverflowError, match=want):
                route(params, 2.0)


class TestSeriesDiagnostics:
    def test_tail_bound_dominates_true_remainder(self):
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        truth = reference_value(params, 5.0)
        loose = ml_eval(params, 5.0, EvalConfig(rel_tol=1e-6))
        assert loose.converged
        assert abs(loose.value - truth) <= loose.tail_bound + 1e-15 * abs(truth)

    def test_reflected_bound_certifies_small_beta(self):
        # beta/alpha - gamma/k = -1.21 with beta = 0.2: the fixed bound
        # |z| max(|c|/beta, k/alpha) of the reflected series is about 12,500,
        # so it spent all 10,000 terms; the index-dependent bound certifies
        # after a few hundred
        params = MLParams(4.71378691, 0.201477084, 4.43363155, 3.54385016)
        z = -585.724824
        truth = reference_value(params, z)
        for res in (ml_eval(params, z), ml_eval_via_1f1(params, z)):
            assert res.converged
            assert res.terms_used < 1000
            assert res.value == pytest.approx(truth, rel=1e-11, abs=0)
            assert abs(res.value - truth) <= res.tail_bound + 1e-13 * abs(truth)

    def test_spent_budget_with_underflowed_scale_has_no_nan_bound(self):
        # |z| k/alpha = 27,766 terms are needed; after 10,000 the reflection
        # factor exp((k/alpha) z) has underflowed to 0, and 0 times the
        # infinite tail bound gave NaN
        params = MLParams(0.2678261523233445, 2.058285639066555,
                          3.0414599535391176, 4.7010531303667005)
        for res in (ml_eval(params, -1581.8601650386486),
                    ml_eval_via_1f1(params, -1581.8601650386486)):
            assert not res.converged
            assert res.tail_bound == math.inf

    def test_unconverged_result_is_flagged_not_raised(self):
        res = ml_eval(UNIT_PARAMS, 40.0, EvalConfig(rel_tol=1e-12, max_terms=12))
        assert not res.converged
        assert res.terms_used == 12
        assert math.isfinite(res.value)

    def test_complex_variant_raises_on_term_budget(self):
        with pytest.raises(ConvergenceError) as exc:
            ml_eval_complex(UNIT_PARAMS, 40.0 + 0.0j, EvalConfig(max_terms=12))
        assert exc.value.partial is not None

    def test_complex_phase_rotation(self):
        tight = EvalConfig(rel_tol=1e-15)
        got = ml_eval_complex(UNIT_PARAMS, 2.0j, tight)
        assert got == pytest.approx(cmath.exp(2.0j), rel=1e-13)
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        got = ml_eval_complex(params, 1.5 - 2.5j, tight)
        with mpmath.workdps(40):
            want = complex(mpmath.hyp1f1(1.0, 1.5, mpmath.mpc(0.75, -1.25))
                           / mpmath.gamma(3.0))
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_negative_real_part_complex(self):
        params = MLParams(1.7, 0.63, 4.24, 3.56)
        z = -15.0 + 3.0j
        with mpmath.workdps(40):
            a = mpmath.mpf(params.gamma) / mpmath.mpf(params.k)
            b = mpmath.mpf(params.beta) / mpmath.mpf(params.alpha)
            w = mpmath.mpf(params.k) / mpmath.mpf(params.alpha) * mpmath.mpc(z)
            want = complex(mpmath.hyp1f1(a, b, w) / mpmath.gamma(params.beta))
        assert ml_eval_complex(params, z) == pytest.approx(want, rel=1e-10, abs=0)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            EvalConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            EvalConfig(rel_tol=math.nan)
        with pytest.raises(DomainError):
            EvalConfig(max_terms=0)

    def test_config_only_where_a_caller_sets_it(self):
        # the CLI sets ml_eval's; the overlap and complex tests need a tight one
        setters = {"ml_eval", "ml_eval_complex", "overlap"}
        for name in mlcs.__all__:
            fn = getattr(mlcs, name)
            if not callable(fn) or isinstance(fn, type):
                continue
            params = inspect.signature(fn).parameters.values()
            takes = any("EvalConfig" in str(p.annotation) for p in params)
            assert takes == (name in setters), name
            assert "eval_cfg" not in {p.name for p in params}, name
        assert list(inspect.signature(mlcs.meijer_g_weight_mb).parameters) == ["params", "x"]
        # the shared array kernels take no setting either
        from mlcs.quadrature import half_line_quad

        assert list(inspect.signature(half_line_quad).parameters) == ["f", "scale"]
        assert list(inspect.signature(mlfunc._ml_table).parameters) == ["params", "x"]


class TestPositivity:
    @given(alpha=PARAM, beta=PARAM, gamma=PARAM, k=PARAM,
           z=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_positive_axis_stays_positive(self, alpha, beta, gamma, k, z):
        res = ml_eval(MLParams(alpha, beta, gamma, k), z)
        assert res.converged
        assert res.value > 0.0

    def test_monotone_on_positive_axis(self):
        params = MLParams(0.7, 1.9, 2.3, 1.2)
        grid = np.linspace(0.0, 12.0, 40)
        vals = [ml_eval(params, float(x)).value for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLaplace:
    def test_unit_parameters_give_simple_pole(self):
        for s in (1.5, 2.0, 3.0, 10.0):
            assert ml_laplace(UNIT_PARAMS, s) == pytest.approx(1.0 / (s - 1.0), rel=1e-12)

    def test_frozen_value(self):
        assert ml_laplace(MLParams(2.0, 3.0, 1.0, 1.0), 5.0) == pytest.approx(
            0.10725018479888073, rel=1e-12
        )

    def test_prefactor_discriminator(self):
        # value pinned by direct numerical transform; a spurious extra
        # 1/gamma(gamma/k) factor would shift it by 2x
        assert ml_laplace(MLParams(2.0, 3.0, 3.0, 1.0), 4.0) == pytest.approx(
            0.163837029167473763, rel=1e-11
        )

    def test_agrees_with_quadrature_route(self):
        cases = [
            (MLParams(2.0, 3.0, 1.0, 1.0), 5.0),
            (MLParams(1.0, 2.0, 1.0, 1.0), 3.0),
            (MLParams(0.8, 1.1, 2.0, 1.6), 4.5),
            (MLParams(2.5, 4.0, 1.2, 0.9), 2.0),
        ]
        cases += [(UNIT_PARAMS, s) for s in (2.0, 3.0, 5.0)]
        for anchor in ((2.0, 3.0, 1.5, 0.7), (1.0, 2.0, 3.0, 1.0), (1.5, 1.2, 0.6, 1.0)):
            params = MLParams(*anchor)
            cases += [(params, params.k / params.alpha * f) for f in (2.0, 3.0, 4.0)]
        for params, s in cases:
            closed = ml_laplace(params, s)
            quad = ml_laplace_quad(params, s)
            assert closed == pytest.approx(quad, rel=1e-12, abs=0), (params, s)

    def test_quadrature_route_survives_e_beyond_float64(self):
        # s sits 0.01 above k/alpha: the rule's nodes pass x ~ 2030, where
        # E(x) leaves float range, long before the tail is negligible; the
        # factor exp(-s x) is folded into the sums' power-of-two exponent
        assert ml_laplace_quad(F2, 0.36) == pytest.approx(ml_laplace(F2, 0.36), rel=1e-12, abs=0)
        # at unit parameters the transform is 1 / (s - 1)
        assert ml_laplace_quad(UNIT_PARAMS, 1.05) == pytest.approx(20.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("route", [ml_laplace, ml_laplace_quad])
    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, "2.0", 1.0])
    def test_both_routes_share_one_check_of_s(self, route, s):
        want = "must be a finite real" if s != 1.0 else "diverges for s <= k/alpha"
        with pytest.raises(DomainError, match=want):
            route(UNIT_PARAMS, s)

    def test_abscissa_is_enforced(self):
        params = MLParams(1.0, 2.0, 1.0, 3.0)
        with pytest.raises(DomainError):
            ml_laplace(params, 3.0)
        with pytest.raises(DomainError):
            ml_laplace(params, 2.9)
        assert ml_laplace(params, 3.1) > 0.0

    @given(alpha=PARAM, beta=PARAM, gamma=PARAM, k=PARAM)
    @settings(max_examples=40, deadline=None)
    def test_decreasing_in_s(self, alpha, beta, gamma, k):
        params = MLParams(alpha, beta, gamma, k)
        s0 = k / alpha
        lo = ml_laplace(params, s0 + 0.5)
        hi = ml_laplace(params, s0 + 2.5)
        assert lo > hi > 0.0
