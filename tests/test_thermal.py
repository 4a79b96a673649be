"""Gibbs-state machinery: partition functions, resummation ansatz, Q and P."""

import math

import mpmath
import pytest

from mlcs import (
    CSLabel,
    DomainError,
    LinearSpectrum,
    MLParams,
    QuadraticSpectrum,
    ThermalConfig,
    UNIT_PARAMS,
    ansatz_error_curve,
    husimi_q,
    husimi_q_fock,
    improper_quad,
    measure_weight_h,
    ml_eval,
    p_function,
    partition_linear,
    partition_quadratic,
    partition_quadratic_direct,
    photon_distribution,
)


class TestSpectra:
    def test_linear_levels(self):
        sp = LinearSpectrum(1.5)
        assert [sp.energy(n) for n in range(4)] == [0.0, 1.5, 3.0, 4.5]

    def test_linear_from_params(self):
        assert LinearSpectrum.from_params(MLParams(2.0, 3.0, 1.0, 1.0)).slope == 3.0
        assert LinearSpectrum.from_params(UNIT_PARAMS).slope == 1.0

    def test_quadratic_levels(self):
        sp = QuadraticSpectrum(1.0, 0.05)
        assert sp.energy(3) == pytest.approx(3.0 + 0.45, rel=1e-15)

    def test_quadratic_from_params_splits_the_slope(self):
        sp = QuadraticSpectrum.from_params(MLParams(0.25, 2.0, 1.0, 1.0))
        assert sp.a_lin == pytest.approx(1.5, rel=1e-15)
        assert sp.b_quad == pytest.approx(0.5, rel=1e-15)
        # linear and quadratic parts exhaust the undeformed slope
        assert sp.a_lin + sp.b_quad == pytest.approx(2.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            LinearSpectrum(0.0)
        with pytest.raises(DomainError):
            LinearSpectrum(-1.0)
        with pytest.raises(DomainError):
            QuadraticSpectrum(math.nan, 0.0)
        with pytest.raises(DomainError):
            ThermalConfig(0.0, LinearSpectrum(1.0))
        with pytest.raises(DomainError):
            ThermalConfig(1.0, "linear")
        with pytest.raises(DomainError):
            ThermalConfig(1.0, LinearSpectrum(1.0), ansatz_terms=-1)


class TestPartitionLinear:
    def test_geometric_value(self):
        cfg = ThermalConfig(1.0, LinearSpectrum(1.0))
        assert partition_linear(cfg) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)),
                                                      rel=1e-15)

    def test_zero_temperature_limit(self):
        cfg = ThermalConfig(50.0, LinearSpectrum(1.0))
        assert partition_linear(cfg) == pytest.approx(1.0, abs=1e-10)

    def test_requires_linear_spectrum(self):
        cfg = ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.1))
        with pytest.raises(DomainError):
            partition_linear(cfg)

    def test_beyond_float64_is_an_overflow(self):
        # beta_b * slope underflows to 0, or 1 / (1 - exp(-it)) passes float max
        for beta_b, slope in ((1e-300, 1e-300), (1e-300, 1e-10)):
            with pytest.raises(OverflowError, match="partition function"):
                partition_linear(ThermalConfig(beta_b, LinearSpectrum(slope)))
        assert partition_linear(ThermalConfig(1e-300, LinearSpectrum(1.0))) == pytest.approx(
            1e300, rel=1e-15, abs=0)


class TestPartitionQuadratic:
    def test_direct_sum_matches_geometric_when_purely_linear(self):
        cfg = ThermalConfig(2.0, QuadraticSpectrum(1.0, 0.0))
        direct = partition_quadratic_direct(cfg)
        geo = partition_linear(ThermalConfig(2.0, LinearSpectrum(1.0)))
        assert direct == pytest.approx(geo, rel=1e-13)

    def test_ansatz_collapses_to_linear_at_zero_quadratic(self):
        cfg = ThermalConfig(2.0, QuadraticSpectrum(1.0, 0.0))
        res = partition_quadratic(cfg)
        assert res.converged
        assert res.value == pytest.approx(partition_quadratic_direct(cfg), rel=1e-13)

    def test_small_quadratic_coefficient_is_accurate(self):
        cfg = ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.005))
        res = partition_quadratic(cfg)
        assert res.converged
        assert res.tail_bound < 1e-9

    def test_moderate_coefficient_hits_the_asymptotic_floor(self):
        # at b = 0.05 the resummation bottoms out near 1e-3 relative error;
        # deeper truncations make it worse, not better
        cfg = ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.05), ansatz_terms=8)
        res = partition_quadratic(cfg, rel_tol=1e-5)
        assert not res.converged
        assert 5e-4 < res.tail_bound < 5e-2

    def test_error_curve_dips_then_rises(self):
        # b = 0.1 keeps a visible interior optimum (J = 2) before divergence
        cfg = ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.1))
        errors = ansatz_error_curve(cfg, 10)
        best = min(range(len(errors)), key=errors.__getitem__)
        assert 0 < best < 10
        assert errors[-1] > 10.0 * errors[best]

    def test_error_curve_diverges_immediately_at_strong_coupling(self):
        # at b = 0.5 even the first correction overshoots: the optimal
        # truncation is the bare geometric term and the tail explodes
        cfg = ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.5))
        errors = ansatz_error_curve(cfg, 10)
        assert all(b > a for a, b in zip(errors, errors[1:]))
        assert errors[-1] > 1e8 * errors[0]

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            partition_quadratic(ThermalConfig(1.0, LinearSpectrum(1.0)))
        with pytest.raises(DomainError):
            partition_quadratic(ThermalConfig(1.0, QuadraticSpectrum(-1.0, 0.1)))
        with pytest.raises(DomainError):
            partition_quadratic(ThermalConfig(1.0, QuadraticSpectrum(1.0, -0.1)))
        with pytest.raises(DomainError):
            partition_quadratic_direct(ThermalConfig(1.0, QuadraticSpectrum(-1.0, 0.0)))


def linear_cfg(beta_b, slope=1.0):
    return ThermalConfig(beta_b, LinearSpectrum(slope))


class TestHusimi:
    def test_unit_parameters_closed_form(self):
        # harmonic limit: Q(x) = (1 - e^{-b}) exp((e^{-b} - 1) x)
        cfg = linear_cfg(1.0)
        got = husimi_q(CSLabel(1.0), UNIT_PARAMS, cfg)
        want = (1.0 - math.exp(-1.0)) * math.exp(math.exp(-1.0) - 1.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(0.3359490712340276, rel=1e-13)

    def test_origin_value_is_reciprocal_partition(self):
        params = MLParams(2.0, 3.0, 1.4, 0.9)
        cfg = linear_cfg(0.7, slope=3.0 / 1.4)
        assert husimi_q(CSLabel(0.0), params, cfg) == pytest.approx(
            1.0 / partition_linear(cfg), rel=1e-13
        )

    def test_closed_and_fock_routes_agree(self):
        cases = [
            (UNIT_PARAMS, CSLabel(1.0), linear_cfg(1.0)),
            (MLParams(2.0, 3.0, 1.0, 1.0), CSLabel(1.7, 0.8), linear_cfg(0.5, 3.0)),
            (MLParams(0.6, 1.4, 2.8, 1.1), CSLabel(2.3), linear_cfg(2.0, 0.5)),
        ]
        for params, z, cfg in cases:
            closed = husimi_q(z, params, cfg)
            fock = husimi_q_fock(z, params, cfg)
            assert abs(closed - fock) <= 1e-9 * abs(closed)

    def test_array_fock_route_matches_the_element_loop(self):
        # numpy exp and summation order against math.exp in a loop: positive
        # terms, each within an ulp, so the two agree to a few size * eps
        params, z, cfg = MLParams(0.6, 1.4, 2.8, 1.1), CSLabel(2.3), linear_cfg(2.0, 0.5)
        p = photon_distribution(z, params).probs
        loop = sum(math.exp(-cfg.beta_b * 0.5 * n) * float(p[n]) for n in range(p.size))
        want = loop / partition_linear(cfg)
        assert husimi_q_fock(z, params, cfg) == pytest.approx(want, rel=4 * p.size * 2.0 ** -52,
                                                              abs=0)

    def test_cold_limit_is_vacuum_overlap(self):
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        z = CSLabel(1.3)
        cold = husimi_q(z, params, linear_cfg(50.0, 3.0))
        vacuum = (1.0 / math.gamma(3.0)) / ml_eval(params, 1.3**2).value
        assert cold == pytest.approx(vacuum, rel=1e-10, abs=0)

    def test_finite_where_the_normalization_overflows(self):
        # Q ~ 2e-277 at |z|^2 = 2100 while E(2100) ~ 5e320 leaves float64:
        # the two scaled sums are divided, and the Fock route agrees
        params = MLParams(2.0, 3.0, 1.5, 0.7)
        cfg = ThermalConfig(1.0, LinearSpectrum.from_params(params))
        z = CSLabel(math.sqrt(2100.0))
        x_num = math.exp(-cfg.beta_b * cfg.spectrum.slope) * 2100.0
        with mpmath.workdps(40):
            a = mpmath.mpf(params.gamma) / params.k
            b = mpmath.mpf(params.beta) / params.alpha
            w = mpmath.mpf(params.k) / params.alpha
            want = float(mpmath.hyp1f1(a, b, w * x_num) / mpmath.hyp1f1(a, b, w * 2100.0)
                         / partition_linear(cfg))
        got = husimi_q(z, params, cfg)
        assert got == pytest.approx(want, rel=1e-11, abs=0)
        assert husimi_q_fock(z, params, cfg) == pytest.approx(want, rel=1e-9, abs=0)

    def test_normalized_against_the_measure(self):
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        cfg = linear_cfg(1.0, 3.0)
        total, _ = improper_quad(
            lambda x: measure_weight_h(params, x) * husimi_q(CSLabel(math.sqrt(x)), params, cfg),
        )
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_requires_linear_spectrum(self):
        cfg = ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.1))
        with pytest.raises(DomainError):
            husimi_q(CSLabel(1.0), UNIT_PARAMS, cfg)


class TestPFunction:
    def test_unit_parameters_closed_form(self):
        # harmonic limit: P(x) = (e^b - 1) exp(-(e^b - 1) x)
        cfg = linear_cfg(1.0)
        rate = math.e - 1.0
        for x in (0.0, 0.4, 1.0, 2.5):
            got = p_function(CSLabel(math.sqrt(x)), UNIT_PARAMS, cfg)
            assert got == pytest.approx(rate * math.exp(-rate * x), rel=1e-12, abs=0)

    def test_origin_value(self):
        cfg = linear_cfg(0.8)
        want = math.exp(0.8) / partition_linear(cfg)
        assert p_function(CSLabel(0.0), UNIT_PARAMS, cfg) == pytest.approx(
            want, rel=1e-13
        )

    def test_reproduces_boltzmann_diagonals(self):
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        cfg = linear_cfg(1.0, 3.0)
        zpart = partition_linear(cfg)
        for n in range(4):
            def integrand(x, n=n):
                probs = photon_distribution(CSLabel(math.sqrt(x)), params).probs
                pn = float(probs[n]) if n < probs.size else 0.0
                return measure_weight_h(params, x) * p_function(
                    CSLabel(math.sqrt(x)), params, cfg) * pn

            value, _ = improper_quad(integrand)
            want = math.exp(-cfg.beta_b * 3.0 * n) / zpart
            assert value == pytest.approx(want, rel=1e-5, abs=0)

    def test_kernel_underflow_is_a_domain_error(self):
        with pytest.raises(DomainError):
            p_function(CSLabel(math.sqrt(800.0)), UNIT_PARAMS, linear_cfg(1.0))
