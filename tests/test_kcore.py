"""Deformed gamma kernel: closed-form values, recurrences, overflow edges."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from mlcs import (
    CSLabel,
    DomainError,
    EnergyDensityState,
    LinearSpectrum,
    MLParams,
    ThermalConfig,
    UNIT_PARAMS,
    continuum_diagonal,
    continuum_measure_weight,
    continuum_partition,
    gen_gamma,
    k_gamma,
    k_pochhammer,
    log_gen_gamma,
    log_k_gamma,
    log_k_pochhammer,
    log_nu,
    nu_function,
    tilde_ml,
    verify_continuum_moments,
)
from mlcs.kcore import MAX_GAMMA_ARG, _gamma

POSITIVE = st.floats(min_value=0.05, max_value=50.0, allow_nan=False, allow_infinity=False)


class TestKGamma:
    def test_reduces_to_gamma_at_k_one(self):
        for x in (1.0, 2.0, 3.5, 5.0, 10.25):
            assert k_gamma(x, 1.0) == pytest.approx(math.gamma(x), rel=1e-14)

    def test_integer_values_at_unit_k(self):
        assert k_gamma(1.0, 1.0) == 1.0
        assert k_gamma(5.0, 1.0) == pytest.approx(24.0, rel=1e-14)

    @given(x=POSITIVE, k=st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=80, deadline=None)
    def test_recurrence_shift_by_k(self, x, k):
        # k_gamma refuses arguments where Gamma(x/k) alone leaves float64,
        # and both sides must stay inside float range themselves
        assume((x + k) / k < 170.0)
        assume(abs(log_k_gamma(x, k)) < 690.0)
        assume(abs(log_k_gamma(x + k, k)) < 690.0)
        # defining property: value at x + k is x times value at x
        lhs = k_gamma(x + k, k)
        rhs = x * k_gamma(x, k)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_matches_log_route(self):
        for x, k in ((0.4, 0.7), (3.0, 2.0), (12.0, 0.25), (90.0, 1.5)):
            assert math.log(k_gamma(x, k)) == pytest.approx(log_k_gamma(x, k), abs=1e-11)

    def test_small_k_avoids_spurious_underflow(self):
        # factors separately under/overflow here; the value is representable
        v = k_gamma(0.17, 0.001)
        assert v == pytest.approx(math.exp(log_k_gamma(0.17, 0.001)), rel=1e-10, abs=0)
        assert v > 0.0

    def test_overflow_is_reported(self):
        with pytest.raises(OverflowError):
            k_gamma(MAX_GAMMA_ARG + 1.0, 1.0)
        with pytest.raises(OverflowError):
            k_gamma(300.0, 1.0)

    def test_domain_validation(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                k_gamma(bad, 1.0)
            with pytest.raises(DomainError):
                k_gamma(1.0, bad)


class TestNamedGamma:
    def test_value_is_math_gamma(self):
        for x in (0.3, 1.0, 4.5, 171.0):
            assert _gamma(x) == math.gamma(x)

    def test_overflow_names_the_argument(self):
        want = r"^Gamma\(beta\) exceeds float64 range at beta = 200.0$"
        with pytest.raises(OverflowError, match=want):
            _gamma(200.0)
        with pytest.raises(OverflowError, match=r"^Gamma\(gamma/k\) .* at gamma/k = 180.5$"):
            _gamma(180.5, "gamma/k")


class TestKPochhammer:
    def test_small_products(self):
        assert k_pochhammer(2.0, 0, 0.5) == 1.0
        assert k_pochhammer(2.0, 3, 0.5) == pytest.approx(2.0 * 2.5 * 3.0, rel=1e-15)
        assert k_pochhammer(1.0, 4, 1.0) == pytest.approx(24.0, rel=1e-15)

    def test_zero_step_gives_pure_power(self):
        assert k_pochhammer(2.0, 3, 0.0) == 8.0
        assert k_pochhammer(0.5, 4, 0.0) == pytest.approx(0.0625, rel=1e-15)

    @given(x=POSITIVE, n=st.integers(min_value=0, max_value=40),
           k=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_recurrence_in_n(self, x, n, k):
        full = k_pochhammer(x, n + 1, k)
        assert full == pytest.approx(k_pochhammer(x, n, k) * (x + n * k), rel=1e-12, abs=0)

    @given(x=st.floats(min_value=0.1, max_value=30.0),
           n=st.integers(min_value=0, max_value=60),
           k=st.floats(min_value=0.05, max_value=8.0))
    @settings(max_examples=80, deadline=None)
    def test_log_route_agrees(self, x, n, k):
        direct = k_pochhammer(x, n, k)
        assert math.log(direct) == pytest.approx(log_k_pochhammer(x, n, k), abs=1e-10)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            k_pochhammer(-1.0, 2, 1.0)
        with pytest.raises(DomainError):
            k_pochhammer(1.0, -1, 1.0)
        with pytest.raises(DomainError):
            k_pochhammer(1.0, 2.5, 1.0)
        with pytest.raises(DomainError):
            k_pochhammer(1.0, 2, -0.5)

    def test_overflow_points_at_log_variant(self):
        with pytest.raises(OverflowError, match="log_k_pochhammer"):
            k_pochhammer(1e300, 1000, 1e300)


class TestGenGamma:
    def test_reduces_to_shifted_gamma_at_unit_alpha(self):
        params = MLParams(1.0, 2.0, 1.0, 1.0)
        for n in range(8):
            assert gen_gamma(params, n) == pytest.approx(math.gamma(2.0 + n), rel=1e-13)

    def test_product_and_gamma_ratio_routes_agree(self):
        # same quantity assembled two ways: iterated product vs lgamma ratios
        for params in (UNIT_PARAMS, MLParams(2, 3, 1, 1), MLParams(0.4, 1.7, 2.2, 0.9)):
            for n in (0, 1, 2, 5, 11, 25):
                direct = gen_gamma(params, n)
                via_logs = math.exp(log_gen_gamma(params, n))
                assert direct == pytest.approx(via_logs, rel=1e-11)

    @given(
        alpha=st.floats(min_value=0.2, max_value=5.0),
        beta=st.floats(min_value=0.2, max_value=5.0),
        n=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_route_agreement_random(self, alpha, beta, n):
        params = MLParams(alpha, beta, 1.0, 1.0)
        assert gen_gamma(params, n) == pytest.approx(
            math.exp(log_gen_gamma(params, n)), rel=1e-11
        )


class TestMLParams:
    def test_rejects_nonpositive_entries(self):
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                MLParams(bad, 1.0, 1.0, 1.0)
            with pytest.raises(DomainError):
                MLParams(1.0, bad, 1.0, 1.0)
            with pytest.raises(DomainError):
                MLParams(1.0, 1.0, bad, 1.0)
            with pytest.raises(DomainError):
                MLParams(1.0, 1.0, 1.0, bad)

    def test_ratio_accessors(self):
        p = MLParams(2.0, 3.0, 5.0, 4.0)
        assert p.beta_over_alpha == 1.5
        assert p.gamma_over_k == 1.25


class TestPositiveValidator:
    def test_every_positive_parameter_shares_one_check(self):
        # MLParams, both thermal configs and the continuum inputs go through
        # kcore._require_positive, so they reject the same values alike
        makers = [
            ("alpha", lambda v: MLParams(v, 1.0, 1.0, 1.0)),
            ("slope", LinearSpectrum),
            ("beta_b", lambda v: ThermalConfig(v, LinearSpectrum(1.0))),
            ("beta_b", continuum_partition),
            ("norm", lambda v: EnergyDensityState(CSLabel(1.0), v)),
        ]
        for name, make in makers:
            for bad in (0.0, -2.0, math.nan, math.inf, "1"):
                with pytest.raises(DomainError, match=f"{name} must be positive"):
                    make(bad)

    def test_every_nonnegative_input_shares_one_check(self):
        # the label modulus, the continuum x and the energy E go through
        # kcore._require_nonnegative: 0 passes, the same values fail alike
        state = EnergyDensityState(CSLabel(1.0), 1.0)
        makers = [
            ("modulus", CSLabel),
            ("x", log_nu),
            ("x", nu_function),
            ("x", continuum_measure_weight),
            ("x", lambda v: tilde_ml(UNIT_PARAMS, v)),
            ("E", state.amplitude),
            ("E", state.mass_density),
            ("E", lambda v: continuum_diagonal(v, 1.0)),
            ("E", lambda v: verify_continuum_moments([v])),
        ]
        for name, make in makers:
            make(0.0)
            for bad in (-2.0, math.nan, math.inf, "1"):
                with pytest.raises(DomainError, match=f"{name} must be finite and >= 0"):
                    make(bad)
