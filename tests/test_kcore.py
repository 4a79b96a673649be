"""Shared core: the parameter quadruple, the named Gamma and the package's
one validator per kind of input (positive, nonnegative, finite real,
integer count)."""

import math

import numpy as np
import pytest

from mlcs import (
    CSLabel,
    DomainError,
    EnergyDensityState,
    EvalConfig,
    FockExpansion,
    LinearSpectrum,
    MLParams,
    QuadraticSpectrum,
    ThermalConfig,
    UNIT_PARAMS,
    ansatz_error_curve,
    continuum_diagonal,
    continuum_measure_weight,
    continuum_partition,
    expectation_ordered_power,
    log_nu,
    ml_laplace,
    nu_function,
    ordered_moment_fock,
    resolution_identity_matrix,
    structure_e,
    tilde_ml,
    verify_continuum_moments,
    verify_resolution,
)
from mlcs.kcore import _gamma


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
            # a bool is refused too: nu_function(True) and log_nu(False) were numbers
            for bad in (-2.0, math.nan, math.inf, "1", True, False):
                with pytest.raises(DomainError, match=f"{name} must be finite and >= 0"):
                    make(bad)
        # the label phase, the Laplace variable s and the quadratic spectrum's
        # coefficients go through kcore._require_finite, bools refused alike
        makers = [
            ("phase", -2.0, lambda v: CSLabel(1.0, v)),
            ("s", 2.0, lambda v: ml_laplace(UNIT_PARAMS, v)),
            ("a_lin", -2.0, lambda v: QuadraticSpectrum(v, 0.0)),
            ("b_quad", -2.0, lambda v: QuadraticSpectrum(1.0, v)),
        ]
        for name, good, make in makers:
            make(good)
            for bad in (math.nan, math.inf, "1", True, False):
                with pytest.raises(DomainError, match=f"{name} must be a finite real"):
                    make(bad)

    def test_every_count_shares_one_check(self):
        # the ten integer counts go through kcore._require_count: the least
        # value passes, a bool, a float, a smaller int and a string fail alike
        z = CSLabel(1.0)
        curve_cfg = ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.1))
        makers = [
            ("n", 1, lambda v: structure_e(UNIT_PARAMS, v)),
            ("m", 0, lambda v: expectation_ordered_power(z, UNIT_PARAMS, v)),
            ("m", 0, lambda v: ordered_moment_fock(z, UNIT_PARAMS, v)),
            ("n", 0, lambda v: FockExpansion.basis(v, UNIT_PARAMS)),
            ("size", 2, lambda v: FockExpansion.basis(1, UNIT_PARAMS, size=v)),
            ("s_max", 1, lambda v: verify_resolution(UNIT_PARAMS, v)),
            ("n_max", 0, lambda v: resolution_identity_matrix(UNIT_PARAMS, v)),
            ("ansatz_terms", 0,
             lambda v: ThermalConfig(1.0, LinearSpectrum(1.0), ansatz_terms=v)),
            ("j_max", 0, lambda v: ansatz_error_curve(curve_cfg, v)),
            ("max_terms", 10, lambda v: EvalConfig(max_terms=v)),
        ]
        for name, least, make in makers:
            make(least)
            for bad in (True, 2.5, least - 1, "1"):
                with pytest.raises(DomainError, match=f"{name} must be an integer >= {least}"):
                    make(bad)
        np.testing.assert_array_equal(FockExpansion.basis(1, UNIT_PARAMS).coeffs, [0, 1])
