"""Continuous-spectrum limit: nu-function, measure, partition, Q and P."""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from mlcs import (
    CSLabel,
    ConvergenceError,
    DomainError,
    EnergyDensityState,
    MLParams,
    UNIT_PARAMS,
    continuum_diagonal,
    continuum_husimi,
    continuum_measure_weight,
    continuum_p_function,
    continuum_partition,
    log_nu,
    nu_function,
    tilde_ml,
    verify_continuum_moments,
)
from test_cli import heavy_imports_after


def reference_nu(x):
    """Independent oracle for the energy integral of x**E / Gamma(E+1)."""
    with mpmath.workdps(30):
        val = mpmath.quad(lambda e: mpmath.mpf(x) ** e / mpmath.gamma(e + 1),
                          [0, mpmath.inf])
        return float(val)


def reference_tilde(params, x):
    """mpmath value of tilde_ml, with breakpoints at the pole scale gamma/k of
    Gamma(gamma/k + E) and around the peak near E = (k/alpha) x.  40 digits,
    since mpmath's quad also stops at an absolute error near its epsilon."""
    a, b = params.gamma_over_k, params.beta_over_alpha
    with mpmath.workdps(40):
        w = mpmath.mpf(params.k) / params.alpha * x
        pref = mpmath.gamma(b) / (mpmath.gamma(a) * mpmath.gamma(params.beta))
        pts = sorted({0, a, 1, float(w), 2 * float(w) + 20})
        val = mpmath.quad(lambda e: w ** e * mpmath.gamma(a + e)
                          / (mpmath.gamma(b + e) * mpmath.gamma(e + 1)), pts + [mpmath.inf])
        return float(pref * val)


class TestNuFunction:
    def test_frozen_values(self):
        assert nu_function(1.0) == pytest.approx(2.2665345076998488, rel=1e-10, abs=0)
        assert nu_function(4.0) == pytest.approx(54.261333229427885, rel=1e-10, abs=0)
        assert nu_function(0.1) == pytest.approx(0.45699316087461237, rel=1e-10, abs=0)

    def test_matches_independent_oracle(self):
        for x in (0.3, 1.0, 2.7, 9.0):
            assert nu_function(x) == pytest.approx(reference_nu(x), rel=1e-9, abs=0)

    def test_vanishes_at_origin(self):
        assert nu_function(0.0) == 0.0
        assert log_nu(0.0) == -math.inf

    def test_monotone_increasing(self):
        grid = np.geomspace(0.05, 25.0, 18)
        vals = [nu_function(float(x)) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_tracks_exponential_growth(self):
        # relative gap to e^x closes as x grows
        gaps = [abs(1.0 - nu_function(x) * math.exp(-x)) for x in (5.0, 10.0, 20.0)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert abs(1.0 - nu_function(30.0) * math.exp(-30.0)) <= 1e-2

    def test_log_route_survives_overflowing_arguments(self):
        val = log_nu(2000.0)
        assert val == pytest.approx(2000.0, abs=1e-6)

    def test_beyond_float64_is_a_named_overflow(self):
        with pytest.raises(OverflowError,
                           match=r"^nu\(x\) exceeds float64 range at x = 1000.0; use log_nu$"):
            nu_function(1000.0)
        with pytest.raises(OverflowError,
                           match=r"^tilde_ml\(x\) exceeds float64 range at x = 1000.0$"):
            tilde_ml(UNIT_PARAMS, 1000.0)

    def test_schemes_agree(self):
        for x in np.geomspace(0.1, 30.0, 12):
            a = nu_function(float(x), scheme="adaptive")
            f = nu_function(float(x), scheme="fixed")
            assert abs(a - f) <= 1e-7 * abs(a)

    def test_domain(self):
        with pytest.raises(DomainError):
            nu_function(-1.0)
        with pytest.raises(DomainError):
            nu_function(math.inf)
        with pytest.raises(DomainError):
            nu_function(1.0, scheme="romberg")


class TestTildeML:
    def test_unit_parameters_reduce_to_nu(self):
        for x in (0.5, 1.0, 4.0, 11.0):
            assert tilde_ml(UNIT_PARAMS, x) == pytest.approx(nu_function(x), rel=1e-9, abs=0)

    def test_frozen_value(self):
        assert tilde_ml(MLParams(1.0, 2.0, 1.0, 1.0), 4.0) == pytest.approx(
            12.980640860219084, rel=1e-9
        , abs=0)

    def test_matches_independent_oracle(self):
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        x = 2.0
        a, b = params.gamma_over_k, params.beta_over_alpha
        w = params.k / params.alpha * x
        with mpmath.workdps(30):
            pref = mpmath.gamma(b) / (mpmath.gamma(a) * mpmath.gamma(params.beta))
            want = float(pref * mpmath.quad(
                lambda e: mpmath.mpf(w) ** e * mpmath.gamma(a + e)
                / (mpmath.gamma(b + e) * mpmath.gamma(e + 1)),
                [0, mpmath.inf],
            ))
        assert tilde_ml(params, x) == pytest.approx(want, rel=1e-8, abs=0)

    def test_vanishes_at_origin(self):
        assert tilde_ml(MLParams(2.0, 3.0, 1.0, 1.0), 0.0) == 0.0

    def test_schemes_agree(self):
        params = MLParams(0.8, 1.9, 1.3, 1.1)
        for x in (0.2, 1.5, 6.0):
            a = tilde_ml(params, x, scheme="adaptive")
            f = tilde_ml(params, x, scheme="fixed")
            assert abs(a - f) <= 1e-7 * abs(a)

    @pytest.mark.parametrize("gamma, x", [(0.05, 1.0), (0.3, 1.0), (0.05, 100.0)])
    def test_pole_near_zero_energy(self, gamma, x):
        # small gamma/k puts the pole of Gamma(gamma/k + E) just below E = 0,
        # where the integrand is steep; at x = 100 it falls from E = 0 before
        # it rises to its peak near E = 100
        params = MLParams(1.0, 1.0, gamma, 1.0)
        assert tilde_ml(params, x) == pytest.approx(reference_tilde(params, x), rel=1e-11, abs=0)


class TestPeakWindow:
    """The window returns only values that passed its error estimate and
    end-node check, widening or halving until they do."""

    @pytest.fixture
    def passes(self, monkeypatch):
        import mlcs.continuum as continuum_mod

        windows = []
        edges = continuum_mod._panel_edges

        def spy(lo, peak, hi, *rest):
            windows.append((lo, hi))
            return edges(lo, peak, hi, *rest)

        monkeypatch.setattr(continuum_mod, "_panel_edges", spy)
        return windows

    def test_widens_until_the_end_nodes_are_negligible(self, passes):
        # beta/alpha = 30 makes the integrand decay slowly from E = 0, past
        # the first window's end at E = 40
        params = MLParams(1.0, 30.0, 1.0, 1.0)
        value = tilde_ml(params, 20.0)
        assert passes[0] == (0.0, 40.0) and passes[-1][1] > 40.0
        assert value == pytest.approx(reference_tilde(params, 20.0), rel=1e-11, abs=0)

    def test_halves_the_panels_until_the_estimate_is_met(self, passes):
        params = MLParams(1.0, 1.0, 0.05, 1.0)
        value = tilde_ml(params, 1.0)
        assert len(passes) == 2 and passes[0] == passes[1]
        assert value == pytest.approx(reference_tilde(params, 1.0), rel=1e-11, abs=0)

    def test_an_unmet_estimate_raises(self, monkeypatch):
        # a check rule 1 % off can never agree with the value to 1e-12
        import mlcs.continuum as continuum_mod

        nodes, weights = continuum_mod._rule_pair()
        skewed = weights * [1.0, 1.01]
        monkeypatch.setattr(continuum_mod, "_rule_pair", lambda: (nodes, skewed))
        with pytest.raises(ConvergenceError, match="node budget"):
            log_nu(5.0)


class TestContinuumMeasure:
    def test_weight_is_damped_nu(self):
        for x in (0.3, 1.0, 5.0):
            assert continuum_measure_weight(x) == pytest.approx(
                math.exp(-x) * nu_function(x), rel=1e-11
            , abs=0)
        assert continuum_measure_weight(0.0) == 0.0

    def test_moment_identity_on_grid(self):
        report = verify_continuum_moments([0.0, 0.5, 1.0, 2.5, 7.0])
        assert report.max_rel_err <= 1e-7
        assert report.rhs[0] == 1.0
        assert report.rhs[-1] == pytest.approx(math.gamma(8.0), rel=1e-14, abs=0)

    def test_moment_identity_at_large_energy(self):
        report = verify_continuum_moments([30.0])
        assert report.max_rel_err <= 1e-12
        report = verify_continuum_moments([0.25, 1.5, 3.0, 5.0, 7.5, 30.0])
        assert report.max_rel_err <= 1e-12
        # Gamma(171.5) is 9.5e307: the halving step must not form twice it
        report = verify_continuum_moments([170.5])
        assert report.max_rel_err <= 1e-12

    def test_moment_grid_validation(self):
        with pytest.raises(DomainError):
            verify_continuum_moments([])
        with pytest.raises(DomainError):
            verify_continuum_moments([1.0, -0.5])
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                verify_continuum_moments([1.0, bad])

    def test_moment_beyond_float64_is_named_before_integrating(self, monkeypatch):
        import mlcs.continuum as continuum_mod

        def forbidden(*args):
            raise AssertionError("the rule ran")

        monkeypatch.setattr(continuum_mod, "half_line_quad", forbidden)
        with pytest.raises(OverflowError,
                           match=r"^Gamma\(E\+1\) exceeds float64 range at E\+1 = 201.0$"):
            verify_continuum_moments([1.0, 200.0])

    def test_suites_need_no_nu_quadrature(self, monkeypatch):
        # h / nu is exactly exp(-x): neither suite may compute nu
        import mlcs.continuum as continuum_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("identity suite called a nu quadrature")

        for name in ("log_nu", "nu_function", "continuum_measure_weight"):
            monkeypatch.setattr(continuum_mod, name, forbidden)
        assert verify_continuum_moments([0.0, 2.0]).max_rel_err <= 1e-12
        assert continuum_diagonal(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12, abs=0)

    def test_suites_load_no_scipy(self):
        # nor may they reach QUADPACK, a peak solve or any other scipy code:
        # in a fresh interpreter both suites leave no scipy module loaded
        code = ("from mlcs import continuum_diagonal, verify_continuum_moments\n"
                "verify_continuum_moments([0.0, 2.0])\n"
                "continuum_diagonal(1.0, 1.0)")
        assert heavy_imports_after(code) == {"numpy"}


class TestNuSecondRoutes:
    """nu against identities that share no code with the energy integral."""

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
    def test_ramanujan_integral(self, x):
        # nu(x) = e^x - int_R exp(-x e^u) / (pi^2 + u^2) du (Erdelyi et al.,
        # Higher Transcendental Functions III, 18.3); the integrand is 1 to
        # roundoff below u = -L, so that tail is taken in closed form
        low = 60.0
        high = math.log(750.0 / x)
        body, _ = integrate.quad(lambda u: math.exp(-x * math.exp(u)) / (math.pi ** 2 + u * u),
                                 -low, high, epsabs=0.0, epsrel=1e-13, limit=200)
        tail = (0.5 * math.pi - math.atan(low / math.pi)) / math.pi
        assert nu_function(x) == pytest.approx(math.exp(x) - body - tail, rel=1e-12, abs=0)

    @pytest.mark.parametrize("s", [1.5, 3.0])
    def test_laplace_transform(self, s):
        # int_0^inf e^{-s x} nu(x) dx = 1 / (s ln s)
        val, _ = integrate.quad(lambda x: math.exp(log_nu(x) - s * x), 0.0, 80.0 / (s - 1.0),
                                epsabs=0.0, epsrel=1e-13, limit=200)
        assert val == pytest.approx(1.0 / (s * math.log(s)), rel=1e-12, abs=0)


class TestContinuumPartition:
    def test_reciprocal_form(self):
        for beta_b in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0):
            assert continuum_partition(beta_b) * beta_b == 1.0

    def test_quadrature_cross_check(self):
        for beta_b in (0.1, 1.0, 10.0):
            val, _ = integrate.quad(lambda e: math.exp(-beta_b * e), 0.0, np.inf)
            assert continuum_partition(beta_b) == pytest.approx(val, rel=1e-10, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            continuum_partition(0.0)
        with pytest.raises(DomainError):
            continuum_partition(-2.0)


class TestContinuumHusimi:
    def test_frozen_value(self):
        assert continuum_husimi(CSLabel(2.0), 1.0) == pytest.approx(
            0.0725783711414998, rel=1e-9
        , abs=0)

    def test_origin_limit(self):
        assert continuum_husimi(CSLabel(0.0), 0.7) == 0.7

    def test_scaled_ratio_is_bounded_and_monotone(self):
        # Q * Z is nu(e^{-b} x)/nu(x): in (0, 1], decreasing in b
        x = 3.0
        ratios = [
            continuum_husimi(CSLabel(math.sqrt(x)), b) * continuum_partition(b)
            for b in (0.2, 0.7, 1.5, 4.0)
        ]
        assert all(0.0 < r <= 1.0 for r in ratios)
        assert all(hi > lo for hi, lo in zip(ratios, ratios[1:]))

    def test_log_space_route_survives_large_arguments(self):
        q = continuum_husimi(CSLabel(math.sqrt(800.0)), 1.0)
        assert q > 0.0 and math.isfinite(q)

    def test_domain(self):
        with pytest.raises(DomainError):
            continuum_husimi(CSLabel(1.0), 0.0)


class TestContinuumP:
    def test_origin_values(self):
        assert continuum_p_function(CSLabel(0.0), 1.0) == pytest.approx(
            math.e, rel=1e-14
        , abs=0)
        assert continuum_p_function(CSLabel(0.0), 0.5) == pytest.approx(
            0.5 * math.exp(0.5), rel=1e-14
        , abs=0)

    def test_default_convention_decays(self):
        vals = [continuum_p_function(CSLabel(math.sqrt(x)), 1.0) for x in (0.0, 1.0, 4.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_literal_variant_grows(self):
        lo = continuum_p_function(CSLabel(1.0), 1.0, literal_sign=True)
        hi = continuum_p_function(CSLabel(2.0), 1.0, literal_sign=True)
        assert hi > lo > 0.0

    def test_literal_variant_beyond_float64_is_an_overflow(self):
        # exp((e - 1) 900) is past float max; no value, not inf
        with pytest.raises(OverflowError, match="overflows float64"):
            continuum_p_function(CSLabel(30.0), 1.0, literal_sign=True)
        assert continuum_p_function(CSLabel(30.0), 1.0) == 0.0

    @pytest.mark.parametrize("beta_b", [705.0, 709.0])
    def test_weight_past_the_overflow_of_its_head(self, beta_b):
        # beta_b exp(beta_b) alone overflows float64 here, the weight only at
        # |z| = 0: elsewhere it is the log form, down to an underflowed 0
        assert continuum_p_function(CSLabel(1.0), beta_b) == 0.0
        x = 1e-304
        want = math.exp(math.log(beta_b) + beta_b - math.expm1(beta_b) * x)
        assert continuum_p_function(CSLabel(math.sqrt(x)), beta_b) == pytest.approx(
            want, rel=1e-15, abs=0)
        with pytest.raises(OverflowError, match="overflows float64"):
            continuum_p_function(CSLabel(0.0), beta_b)

    @pytest.mark.parametrize("beta_b", [709.8, 710.0, 800.0])
    def test_weight_past_float64_of_its_exponent(self, beta_b):
        # e^{beta_b} itself is beyond float64: the weight is 0 at any
        # |z| > 0, beyond float64 at |z| = 0, and the literal variant is
        # beta_b at |z| = 0 and beyond float64 elsewhere
        assert continuum_p_function(CSLabel(1.0), beta_b) == 0.0
        assert continuum_p_function(CSLabel(1e-150), beta_b) == 0.0
        with pytest.raises(OverflowError, match=r"^P weight at \|z\|\^2 = 0.0 overflows"):
            continuum_p_function(CSLabel(0.0), beta_b)
        assert continuum_p_function(CSLabel(0.0), beta_b, literal_sign=True) == beta_b
        with pytest.raises(OverflowError, match=r"^P weight at \|z\|\^2 = 1.0 overflows"):
            continuum_p_function(CSLabel(1.0), beta_b, literal_sign=True)

    @pytest.mark.parametrize("e, beta_b", [(0.0, 705.0), (1.0, 700.0), (1.0, 709.0), (0.0, 709.7)])
    def test_diagonal_where_its_integrand_leaves_float64(self, e, beta_b):
        # the integrand beta_b e^{beta_b} x**E e^{-x} ... exceeds float64 at
        # the nodes of (0, 705) and is subnormal at those of (1, 700)
        want = beta_b * math.exp(-beta_b * e)
        assert continuum_diagonal(e, beta_b) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_reproduces_boltzmann_diagonals(self):
        for beta_b in (0.5, 1.0):
            for e in (0.0, 1.0, 2.0):
                want = beta_b * math.exp(-beta_b * e)
                assert continuum_diagonal(e, beta_b) == pytest.approx(want, rel=1e-4, abs=0)

    def test_diagonal_at_large_energy(self):
        # (100, 5) is 3.6e-217: only a relative target certifies it, and only
        # abs=0 keeps approx's absolute default from passing it regardless
        for e, beta_b in ((20.0, 2.0), (1.0, 0.7), (3.0, 1.2), (5.0, 1.8), (100.0, 5.0)):
            want = beta_b * math.exp(-beta_b * e)
            assert continuum_diagonal(e, beta_b) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_diagonal_domain(self):
        with pytest.raises(DomainError):
            continuum_diagonal(-1.0, 1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                continuum_diagonal(bad, 1.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                continuum_diagonal(1.0, bad)


class TestEnergyDensityState:
    def test_build_uses_nu_norm(self):
        state = EnergyDensityState.build(CSLabel(2.0))
        assert state.norm == pytest.approx(nu_function(4.0), rel=1e-10, abs=0)

    def test_mass_normalization(self):
        state = EnergyDensityState.build(CSLabel(2.0))
        assert state.norm_mass() == pytest.approx(1.0, abs=1e-8)

    def test_literal_normalization_gap(self):
        # squared literal amplitudes integrate to well under 1
        state = EnergyDensityState.build(CSLabel(2.0))
        assert state.norm_literal() == pytest.approx(0.20308683187231728, rel=1e-8, abs=0)

    def test_amplitude_and_density_are_consistent(self):
        state = EnergyDensityState.build(CSLabel(1.5, 0.9))
        for e in (0.0, 0.5, 2.0, 7.5):
            amp = state.amplitude(e)
            assert abs(amp) ** 2 * math.gamma(e + 1.0) == pytest.approx(
                state.mass_density(e), rel=1e-12
            , abs=0)
        assert math.atan2(state.amplitude(2.0).imag, state.amplitude(2.0).real) == (
            pytest.approx(1.8 % (2.0 * math.pi), rel=1e-12, abs=0)
        )

    def test_density_integrates_to_one(self):
        state = EnergyDensityState.build(CSLabel(1.5))
        val, _ = integrate.quad(state.mass_density, 0.0, 50.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            EnergyDensityState.build(CSLabel(0.0))
        with pytest.raises(DomainError):
            EnergyDensityState(CSLabel(1.0), -2.0)
        state = EnergyDensityState.build(CSLabel(1.0))
        with pytest.raises(DomainError):
            state.amplitude(-0.5)
        with pytest.raises(DomainError):
            state.mass_density(-0.5)
