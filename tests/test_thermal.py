"""Gibbs-state machinery: partition functions, resummation ansatz, Q and P."""

import ast
import math
import re
import sys
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from mlcs import (
    CSLabel,
    ConvergenceError,
    DomainError,
    LinearSpectrum,
    MLParams,
    QuadraticSpectrum,
    ThermalConfig,
    UNIT_PARAMS,
    ansatz_error_curve,
    husimi_q,
    husimi_q_fock,
    measure_weight_h,
    ml_eval,
    p_function,
    partition_linear,
    partition_quadratic,
    partition_quadratic_direct,
    photon_distribution,
)
from mlcs import thermal
from mlcs.thermal import _ansatz_sums, _bose_power_sums
from reference_quad import improper_quad


def power_sum_reference(m, y):
    """S_m(y) = sum_{n>=0} n**m e**(-n y) at 40 digits: mpmath's polylog, or
    from y = 20 the sum over n itself, since there polylog stops before the
    n = 2 term of a high order (S_400(300) comes out 1.3e-10 low)."""
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        if y < 20:
            return mpmath.polylog(-m, mpmath.exp(-y)) + (m == 0)
        return mpmath.fsum(mpmath.mpf(n) ** m * mpmath.exp(-n * y) for n in range(m // 10 + 40))


def array_block_sum(beta_b, sp):
    """The direct Boltzmann sum in blocks of 128 levels with a 0-d numpy
    total, tested by np.isfinite(...).all(); inf where the total overflows."""
    peak = max(0.0, -sp.a_lin / (2.0 * sp.b_quad)) if sp.b_quad > 0.0 else 0.0
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, 10_000_000, 128):
            n = np.arange(start, start + 128, dtype=float)
            block = np.exp(-beta_b * (sp.a_lin * n + sp.b_quad * n * n))
            total = total + block.sum(axis=-1)
            if not np.isfinite(total).all():
                return math.inf
            if n[-1] > peak and (block[..., -1] <= 1e-18 * total).all():
                return float(total)


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


class TestBlockSums:
    def test_power_sums_match_the_polylog(self):
        # S_m(y) = Li_{-m}(e^-y), plus the n = 0 term 1 at m = 0: the Eulerian
        # form for orders up to 170, the terms around their peak past that.
        # One call for all finite orders, as the ansatz makes it; where S_m(y)
        # is beyond float64 the named overflow, for that order alone and as
        # the lowest of them all; no RuntimeWarning on the way
        orders = (*range(0, 21, 2), 168, 170, 172, 200, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in (1e-6, 1e-3, 0.05, 0.64, 1.0, 1.44, 20.0, 300.0, 700.0, 800.0):
                want = {m: power_sum_reference(m, y) for m in orders}
                finite = [m for m in orders if want[m] <= sys.float_info.max]
                for m, got in zip(finite, _bose_power_sums(finite, y)):
                    assert got == pytest.approx(float(want[m]), rel=1e-14 if m <= 170 else 1e-12, abs=0), (m, y)
                beyond = [m for m in orders if m not in finite]
                for m in beyond:
                    with pytest.raises(OverflowError, match=re.escape(f"power sum S_{m}({y}) exceeds")):
                        _bose_power_sums([m], y)
                if beyond:
                    with pytest.raises(OverflowError, match=re.escape(f"power sum S_{beyond[0]}({y}) exceeds")):
                        _bose_power_sums(orders, y)

    @pytest.mark.parametrize("beta_b, a_lin, b_quad",
                             [(1.0, 1.0, 0.05), (1.0, 1.0, 0.005), (1.3, 0.6, 0.02), (2.0, 1.5, 0.1)])
    def test_ansatz_partial_sums_match_mpmath(self, beta_b, a_lin, b_quad):
        got = _ansatz_sums(ThermalConfig(beta_b, QuadraticSpectrum(a_lin, b_quad)), 20)
        with mpmath.workdps(40):
            y, coupling = mpmath.mpf(beta_b) * a_lin, -mpmath.mpf(beta_b) * b_quad
            total = 0
            for j in range(21):
                total += coupling ** j / mpmath.factorial(j) * power_sum_reference(2 * j, y)
                assert got[j] == pytest.approx(float(total), rel=1e-13, abs=0), j

    def test_ansatz_partial_sums_follow_the_sequential_loop(self):
        # coefficients (-beta_b b)**j / j! built one factor at a time and the
        # partial sums added in order: the array path carries the same bits
        cfg = ThermalConfig(0.9, QuadraticSpectrum(1.1, 0.007), 8)
        powers = _bose_power_sums(range(0, 17, 2), 0.9 * 1.1)
        coeff, total, want = 1.0, 0.0, []
        for j in range(9):
            if j > 0:
                coeff *= -0.9 * 0.007 / j
            total += coeff * float(powers[j])
            want.append(total)
        assert _ansatz_sums(cfg, 8) == want

    def test_direct_sum_is_the_array_block_loop_bit_for_bit(self):
        # the scalar loop against the same blocks summed into a 0-d numpy
        # total, on 3,000 seeded spectra: equal values, or an overflow in both
        rng = np.random.default_rng(3)
        for _ in range(3000):
            beta_b = 10.0 ** rng.uniform(-1.5, 1.0)
            kind = rng.integers(4)
            a_lin = [1.0, -1.0, 1.0, 0.0][kind] * 10.0 ** rng.uniform(-1.5, 2.5)
            b_quad = 0.0 if kind == 2 else 10.0 ** rng.uniform(-4.0, 0.5)
            sp = QuadraticSpectrum(a_lin, b_quad)
            want = array_block_sum(beta_b, sp)
            if math.isfinite(want):
                assert partition_quadratic_direct(ThermalConfig(beta_b, sp)) == want, (beta_b, sp)
            else:
                with pytest.raises(OverflowError, match="direct Boltzmann sum exceeds float64"):
                    partition_quadratic_direct(ThermalConfig(beta_b, sp))

    def test_direct_sum_matches_fsum_of_its_terms(self):
        cases = [(1.0, QuadraticSpectrum(1.0, 0.05)), (0.3, QuadraticSpectrum(0.1, 1e-3)),
                 (2.0, QuadraticSpectrum(0.5, 0.0)), (1.0, QuadraticSpectrum(-3.0, 0.5)),
                 (0.05, QuadraticSpectrum(2.0, 0.5))]
        for beta_b, sp in cases:
            # every case is below e**-700 of its sum by n = 2000
            terms = [math.exp(-beta_b * sp.energy(n)) for n in range(2000)]
            got = partition_quadratic_direct(ThermalConfig(beta_b, sp))
            assert got == pytest.approx(math.fsum(terms), rel=1e-14, abs=0), (beta_b, sp)

    def test_beyond_float64_is_a_named_overflow(self):
        # the peak term of S_400(1) is about e**1996; no inf comes back and
        # no RuntimeWarning is raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"power sum S_400\(1\.0\) exceeds float64"):
                _bose_power_sums([400], 1.0)
            with pytest.raises(OverflowError, match=r"power sum S_\d+\(1\.0\) exceeds float64"):
                ansatz_error_curve(ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.1)), 100)
            with pytest.raises(OverflowError, match="direct Boltzmann sum exceeds float64"):
                partition_quadratic_direct(ThermalConfig(1.0, QuadraticSpectrum(-2000.0, 1.0)))

    @pytest.mark.parametrize("beta_b, a_lin, want", [
        (1.0, 1.0, r"power sum S_172\(1\.0\) exceeds float64"),
        (100.0, 100.0, r"power sum S_27954\(10000\.0\) exceeds float64"),
        (100.0, 1000.0, None),
    ])
    def test_deep_ansatz_sums_its_orders_in_bounded_passes(self, beta_b, a_lin, want):
        # y = 1: S_172 ~ 172! ~ 1.25e312 is the lowest order beyond float64,
        # and past it no order is summed; y = 1e4: S_m first leaves float64 at
        # m = 27,954 (its n = 3 term); y = 1e5: no order up to 40,000 does.
        # Each order past 170 sums its terms n < 2m/y + 41, 64 orders a pass
        cfg = ThermalConfig(beta_b, QuadraticSpectrum(a_lin, 0.1))
        tracemalloc.start()
        start = time.perf_counter()
        try:
            if want is None:
                assert len(ansatz_error_curve(cfg, 20_000)) == 20_001
            else:
                with pytest.raises(OverflowError, match=want):
                    ansatz_error_curve(cfg, 20_000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert elapsed < 10.0

    def test_unreachable_budget_fails_before_summing(self, monkeypatch):
        # no block can be formed with _BLOCK = None: the error comes first;
        # the power sums have a closed form and no budget
        monkeypatch.setattr(thermal, "_BLOCK", None)
        y = 1e-6
        assert _bose_power_sums([0], y)[0] == pytest.approx(-1.0 / math.expm1(-y), rel=1e-15, abs=0)
        with pytest.raises(ConvergenceError, match="direct Boltzmann sum did not settle"):
            partition_quadratic_direct(ThermalConfig(1e-7, QuadraticSpectrum(1.0, 0.0)))
        with pytest.raises(ConvergenceError, match="direct Boltzmann sum did not settle"):
            partition_quadratic_direct(ThermalConfig(1.0, QuadraticSpectrum(0.0, 1e-17)))

    def test_budget_bound_rejects_only_sums_that_cannot_settle(self, monkeypatch):
        # at a budget of 10,000 terms the Gaussian sum at beta_b b = 4e-7
        # settles after about 9,300 terms; at 3e-7 the bound already shows the
        # budget is too small.  S_0 has a closed form and takes no budget
        monkeypatch.setattr(thermal, "_BUDGET", 10_000)
        y = 3.7e-3
        assert _bose_power_sums([0], y)[0] == pytest.approx(-1.0 / math.expm1(-y), rel=1e-15, abs=0)
        gauss = partition_quadratic_direct(ThermalConfig(1.0, QuadraticSpectrum(0.0, 4e-7)))
        assert gauss == pytest.approx(0.5 + math.sqrt(math.pi / 4e-7) / 2, rel=1e-12)
        monkeypatch.setattr(thermal, "_BLOCK", None)
        y = 3.1e-3
        assert _bose_power_sums([0], y)[0] == pytest.approx(-1.0 / math.expm1(-y), rel=1e-15, abs=0)
        with pytest.raises(ConvergenceError):
            partition_quadratic_direct(ThermalConfig(1.0, QuadraticSpectrum(0.0, 3e-7)))

    def test_rel_tol_is_validated(self):
        cfg = ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.005))
        for bad in (-1.0, math.nan, 0.0, "1e-5"):
            with pytest.raises(DomainError, match="rel_tol must be positive"):
                partition_quadratic(cfg, bad)


class TestRoutesApart:
    def test_resummation_reaches_no_block_sum(self):
        # criterion 9 compares the resummation with the direct sum, so the
        # power sums and the ansatz must not reach the direct route's loop
        # or budget through any function of the module
        with open(thermal.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        seen, todo = set(), ["_ansatz_sums", "_bose_power_sums"]
        while todo:
            name = todo.pop()
            seen.add(name)
            names = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            todo += [n for n in names if n in functions and n not in seen]
        assert {"_bose_power_sums", "_eulerian_table"} <= seen
        assert not seen & {"_settled_sum", "_require_budget", "partition_quadratic_direct"}


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
