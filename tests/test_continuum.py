"""Continuous-spectrum limit: nu-function, measure, partition, Q and P."""

import inspect
import math
import warnings

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
from reference_quad import nu_quad, tilde_ml_quad
from test_cli import heavy_imports_after


def reference_nu(x):
    """Independent oracle for the energy integral of x**E / Gamma(E+1)."""
    with mpmath.workdps(30):
        val = mpmath.quad(lambda e: mpmath.mpf(x) ** e / mpmath.gamma(e + 1),
                          [0, mpmath.inf])
        return float(val)


def reference_tilde(params, x):
    """mpmath value of tilde_ml, with breakpoints at the pole scale gamma/k of
    Gamma(gamma/k + E), around the peak near E = (k/alpha) x and every 1/2 up
    to E = 2, where at large beta/alpha the integrand falls tenfold per unit
    of E.  log Gamma(beta/alpha) of the prefactor is subtracted inside the
    integrand, so no ratio of huge gammas is formed.  40 digits, since
    mpmath's quad also stops at an absolute error near its epsilon."""
    a, b = params.gamma_over_k, params.beta_over_alpha
    with mpmath.workdps(40):
        lw = mpmath.log(mpmath.mpf(params.k) / params.alpha * x)
        w = params.k / params.alpha * x
        lgb = mpmath.loggamma(b)
        pts = sorted({0, 0.5, 1, 1.5, 2, a, w, 2 * w + 20})
        val = mpmath.quad(lambda e: mpmath.exp(e * lw + mpmath.loggamma(a + e) - (mpmath.loggamma(b + e) - lgb)
                                               - mpmath.loggamma(e + 1)), pts + [mpmath.inf])
        return float(val / (mpmath.gamma(a) * mpmath.gamma(params.beta)))


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
        # the library against the tests' QUADPACK referee
        for x in np.geomspace(0.1, 30.0, 12):
            a = nu_quad(float(x))
            f = nu_function(float(x))
            assert abs(a - f) <= 1e-7 * abs(a)

    def test_domain(self):
        with pytest.raises(DomainError):
            nu_function(-1.0)
        with pytest.raises(DomainError):
            nu_function(math.inf)
        with pytest.raises(DomainError):
            nu_function(1.0, scheme="romberg")
        # "fixed" is the only scheme: QUADPACK is a referee of the tests,
        # and no other continuum function takes a scheme at all
        for fn in (nu_function, log_nu):
            assert fn(1.0, scheme="fixed") == fn(1.0)
            with pytest.raises(DomainError, match=r"^scheme must be \"fixed\", got 'adaptive'$"):
                fn(1.0, scheme="adaptive")
        for fn in (tilde_ml, continuum_measure_weight, continuum_husimi):
            assert "scheme" not in inspect.signature(fn).parameters


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
        # the library against the tests' QUADPACK referee
        params = MLParams(0.8, 1.9, 1.3, 1.1)
        for x in (0.2, 1.5, 6.0):
            a = tilde_ml_quad(params, x)
            f = tilde_ml(params, x)
            assert abs(a - f) <= 1e-7 * abs(a)

    @pytest.mark.parametrize("params, x", [
        # small gamma/k puts the pole of Gamma(gamma/k + E) just below E = 0,
        # where the integrand is steep; at x = 100 it falls from E = 0 before
        # it rises to its peak near E = 100
        (MLParams(1.0, 1.0, 0.05, 1.0), 1.0),
        (MLParams(1.0, 1.0, 0.3, 1.0), 1.0),
        (MLParams(1.0, 1.0, 0.05, 1.0), 100.0),
        # gamma/k = 600 and beta/alpha = 120 put a+E and b+E far above 8
        # while E+1 runs from below 8 up: one log Gamma pass shifts some of
        # its arguments and not others
        (MLParams(0.5, 60.0, 30.0, 0.05), 1e-300),
        (MLParams(0.5, 60.0, 30.0, 0.05), 1.0),
        (MLParams(0.5, 60.0, 30.0, 0.05), 300.0),
        # beta/alpha = 624 and 711, where the integrand falls tenfold per
        # unit of E from E = 0 and the prefactor holds Gamma(beta/alpha)
        (MLParams(0.11745853305666618, 73.3382393015883, 0.16429304285265406, 0.09944030451108081),
         3.882968408200024e-06),
        (MLParams(0.10266868991489658, 73.00239974474468, 76.3075132106058, 3.677482804553488),
         0.018293709092585732),
        # beta/alpha = 1e4: the prefactor's rounding bound is 1.5e-10, below
        # the 1e-9 that tilde_ml refuses, and the value is 1.9e-12 off
        (MLParams(1e-4, 1.0, 1.0, 1.0), 0.5),
    ])
    def test_pole_near_zero_energy(self, params, x):
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

    @pytest.mark.parametrize("x", [1e-3, 1e-2, 1e-1])
    def test_no_peak_where_the_integrand_falls_from_zero(self, passes, x):
        # at b = beta/alpha = 0.01 the closed form of E* has a root near 0.49,
        # but L(E) falls from E = 0 there.  The window of E* = 0 needs no
        # halving pass, except at x = 1e-3, where the pole at E = -0.001
        # takes one as well
        import mlcs.continuum as continuum_mod

        params = MLParams(1.0, 0.01, 0.001, 1.0)
        kernel = continuum_mod._Kernel(math.log(params.k / params.alpha * x),
                                       a=params.gamma_over_k, b=params.beta_over_alpha)
        assert kernel.peak() == 0.0
        fixed = tilde_ml(params, x)
        assert passes == [(0.0, 40.0)] * (2 if x == 1e-3 else 1)
        quadpack = tilde_ml_quad(params, x)
        assert abs(fixed - quadpack) <= 1e-12 * abs(quadpack)

    @pytest.mark.parametrize("params, x, match", [
        # E* = 1e306, where L(E*) is beyond float64: gamma/k < 1/2 asks for
        # a probe of L there, which must not run
        (MLParams(1.0, 1.0, 1e-300, 1.0), 1e306, "narrower than the float spacing"),
        # beta/alpha = 1e200 overflows the closed form of E*
        (MLParams(1e-100, 1e100, 1e-3, 1.0), 1e-300, "narrower than the float spacing"),
        # gamma/k = 2.557e305 puts a + E where (z - 1/2) log z overflows,
        # though log Gamma(gamma/k) itself is finite
        (MLParams(1.0, 1.0, 2.557e305, 1.0), 1e-300, "log Gamma argument of the window passes"),
    ])
    def test_an_unreachable_peak_raises(self, params, x, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match=match):
                tilde_ml(params, x)

    def test_an_unmet_estimate_raises(self, monkeypatch):
        # a check rule 1 % off can never agree with the value to 1e-12
        import mlcs.continuum as continuum_mod
        import mlcs.quadrature as quadrature_mod

        nodes, weights = quadrature_mod._rule(continuum_mod._ORDERS)
        skewed = weights * [1.0, 1.01]
        monkeypatch.setattr(quadrature_mod, "_rule", lambda orders: (nodes, skewed))
        with pytest.raises(ConvergenceError, match="node budget"):
            continuum_mod._log_nu_gamma2(5.0)

    @pytest.mark.parametrize("alpha", [1e-200, 1e-50, 1e-5])
    def test_a_prefactor_beyond_its_rounding_raises(self, alpha):
        # log Gamma(beta/alpha) of the prefactor cancels against the window's
        # log Gamma(beta/alpha + E): at alpha = 1e-50 and 1e-200 the value
        # came out 1.0 and 0.0 where mpmath gives 1.442695040888963, at
        # 1e-5 8e-11 off with a rounding bound of 1.9e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="log prefactor .* rounds beyond 1e-9 at x = 0.5"):
                tilde_ml(MLParams(alpha, 1.0, 1.0, 1.0), 0.5)

    def test_an_overflow_beyond_the_rounding_is_named(self):
        # at beta/alpha = 1e10 and x = 300 the log of the value is 2.9e12,
        # its rounding 3.9e-4: the value overflows whatever that rounding is
        with pytest.raises(OverflowError, match="tilde_ml\\(x\\) exceeds float64 range at x = 300.0"):
            tilde_ml(MLParams(1e-10, 1.0, 1.0, 1.0), 300.0)


class TestWindowLogGamma:
    """The window's numpy log Gamma against mpmath, and the Gamma**2 kernel
    on a window whose E+1 runs across its shift boundary z = 8."""

    def test_matches_mpmath(self):
        # a grid from 1e-3 to 1e5, the edges of the shift and one array that
        # spans it up to 4e3, each evaluated as one call
        import mlcs.continuum as continuum_mod

        arrays = [np.geomspace(1e-3, 1e5, 161), np.array([1.0, 2.0, 8.0 - 1e-12, 8.0, 8.0 + 1e-12]),
                  np.linspace(0.25, 4e3, 97)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [continuum_mod._lgamma(z) for z in arrays]
        with mpmath.workdps(30):
            for z, values in zip(arrays, got):
                for zi, value in zip(z.tolist(), values.tolist()):
                    # the log is formed from terms of size z log z, z shifted
                    # up to >= 8: the bound of the contour referee's log Gamma
                    size = zi + 8.0
                    want = mpmath.loggamma(mpmath.mpf(zi))
                    assert abs(value - want) <= 5e-16 * size * math.log(size), zi
        # the shift's product stays finite and nonzero when one array mixes
        # subnormal and huge arguments: within 2 ulp of the value
        z = np.array([5e-324, 1e-300, 1e40, 1e300, 2e305])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = continuum_mod._lgamma(z)
        for zi, value in zip(z.tolist(), got.tolist()):
            assert value == pytest.approx(float(mpmath.loggamma(mpmath.mpf(zi))), rel=4.5e-16, abs=0), zi

    def test_gamma2_kernel_across_the_shift(self):
        # E* = 99.5, so E+1 runs from 1 to about 240 on one window
        import mlcs.continuum as continuum_mod

        x = 1e4
        with mpmath.workdps(40):
            lx = mpmath.log(x)
            pts = [0, 40, 80, 99.5, 120, 160, 250]
            want = float(mpmath.log(mpmath.quad(
                lambda e: mpmath.exp(e * lx - 2 * mpmath.loggamma(e + 1)), pts + [mpmath.inf])))
        # within 1e-11 of the value
        assert abs(continuum_mod._log_nu_gamma2(x) - want) <= 1e-11


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


def reference_log_nu(x):
    """mpmath log nu(x) on the defining energy integral at 40 digits, with
    breakpoints at multiples of the decay length 1/|log x| below x = 1 and
    around the peak E ~ x above it."""
    with mpmath.workdps(40):
        lx = mpmath.log(mpmath.mpf(x))
        if x < 1.0:
            s = 1.0 / abs(float(lx))
            pts = [0, s, 5 * s, 30 * s, 200 * s + 20]
        else:
            w = math.sqrt(x + 1.0)
            pts = sorted({0.0, max(0.0, x - 30 * w), max(0.0, x - 8 * w), x, x + 8 * w, x + 30 * w + 10})
        val = mpmath.quad(lambda e: mpmath.exp(e * lx - mpmath.loggamma(e + 1)), pts + [mpmath.inf])
        return float(mpmath.log(val))


class TestNuTable:
    """The default nu: Ramanujan's integral on its cached node table, held to
    mpmath and to the peak window on the defining integral."""

    # 1e-17 .. 1e-9 put log x near the table's lower end, where a shorter
    # table would drop mass of order e**-|log x|
    @pytest.mark.parametrize("x", np.geomspace(1e-300, 1e4, 31).tolist()
                             + [1e-17, 1e-13, 1e-9, 0.3, 1.0, 10.0, 42.5])
    def test_matches_mpmath(self, x):
        want = reference_log_nu(x)
        assert abs(log_nu(x) - want) <= 2e-14 * max(1.0, abs(want))

    def test_frozen_value(self):
        # mpmath gives 22026.189460481057; the peak window gave ...102
        assert nu_function(10.0) == 22026.189460481062

    def test_matches_the_peak_window(self):
        # the window integrates x**E / Gamma(E+1) on its own numpy log Gamma:
        # it shares no node, weight or function value with the table
        import mlcs.continuum as continuum_mod

        for x in np.geomspace(1e-300, 1e4, 240).tolist():
            window = continuum_mod._window(continuum_mod._Kernel(math.log(x)))
            got = log_nu(x)
            assert abs(got - window) <= 1e-13 * max(1.0, abs(got)), x

    def test_check_rule_meets_its_target_everywhere(self):
        # log x from -745 (x = 5e-324) to 10 at step 0.01: no call raises
        for lx in np.arange(-745.0, 10.0, 0.01).tolist():
            assert math.isfinite(log_nu(math.exp(lx)))

    def test_tiny_and_huge_arguments(self):
        # nu vanishes like 1/|log x|: at 5e-324 it is about K alone, near
        # 1/745; at 1e308, (1 - K) e^{-x} underflows and log nu is x
        assert log_nu(5e-324) == pytest.approx(reference_log_nu(5e-324), rel=2e-15, abs=0)
        assert log_nu(1e308) == 1e308

    def test_makes_no_lgamma_call(self, monkeypatch):
        import mlcs.continuum as continuum_mod

        def forbidden(*args):
            raise AssertionError("lgamma called")

        monkeypatch.setattr(math, "lgamma", forbidden)
        monkeypatch.setattr(continuum_mod, "_lgamma", forbidden)
        for x in (1e-300, 0.5, 7.0, 800.0):
            assert math.isfinite(log_nu(x))
        assert continuum_husimi(CSLabel(2.0), 1.0) == pytest.approx(0.0725783711414998, rel=1e-9, abs=0)
        assert continuum_measure_weight(1.0) > 0.0
        assert EnergyDensityState.build(CSLabel(2.0)).norm_mass() == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(AssertionError, match="lgamma called"):
            tilde_ml(MLParams(1.0, 2.0, 1.0, 1.0), 4.0)

    def test_loads_no_scipy(self):
        assert heavy_imports_after("from mlcs import log_nu\nlog_nu(5.0)") == {"numpy"}
        # the window's log Gamma reads its coefficients from kcore: neither
        # route loads the measure module, whose import a nu scan would pay for
        code = ("import sys\nfrom mlcs import MLParams, log_nu, tilde_ml\nlog_nu(5.0)\n"
                "assert 'mlcs.measure' not in sys.modules\n"
                "tilde_ml(MLParams(0.8, 1.9, 1.3, 1.1), 4.0)\n"
                "assert 'mlcs.measure' not in sys.modules")
        assert heavy_imports_after(code) == {"numpy"}

    def test_a_missed_check_raises(self, monkeypatch):
        # a check rule 1 % off can never agree with the value to 1e-12
        import mlcs.continuum as continuum_mod

        nodes, weights = continuum_mod._ramanujan_table()
        skewed = weights * [1.0, 1.01]
        monkeypatch.setattr(continuum_mod, "_ramanujan_table", lambda: (nodes, skewed))
        with pytest.raises(ConvergenceError, match="check missed its target at x = 5.0"):
            log_nu(5.0)

    def test_table_is_read_only(self):
        import mlcs.continuum as continuum_mod

        for a in continuum_mod._ramanujan_table():
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestNuSecondRoutes:
    """nu against identities other than the one the table sums."""

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
    def test_ramanujan_integral(self, x):
        # nu(x) = e^x - int_R exp(-x e^u) / (pi^2 + u^2) du (Erdelyi et al.,
        # Higher Transcendental Functions III, 18.3), the identity the table
        # sums: this holds the table to QUADPACK on the same identity.  The
        # integrand is 1 to roundoff below u = -L, so that tail is taken in
        # closed form
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

    @pytest.mark.parametrize("e, beta_b, rel", [
        (0.0, 745.0, 1e-14), (0.0, 800.0, 1e-13), (1e-3, 740.0, 1e-13)])
    def test_diagonal_where_the_peak_is_subnormal(self, e, beta_b, rel):
        # the peak c = max(1, E) e^{-beta_b} is subnormal or 0 in float64;
        # the rounding of log c ~ -beta_b sets the tolerance
        want = beta_b * math.exp(-beta_b * e)
        assert continuum_diagonal(e, beta_b) == pytest.approx(want, rel=rel, abs=0.0)

    @pytest.mark.parametrize("e, beta_b", [(5.0, 740.0), (2.0, 730.0)])
    def test_diagonal_below_float64_is_zero(self, e, beta_b):
        # beta_b exp(-beta_b E) underflows; the rule still converges
        assert continuum_diagonal(e, beta_b) == 0.0

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
