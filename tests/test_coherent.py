"""Lowering-operator eigenstates: ladder algebra, overlaps, photon statistics."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mlcs import (
    CSLabel,
    DomainError,
    EvalConfig,
    FockExpansion,
    MLParams,
    TruncationOverflowError,
    UNIT_PARAMS,
    cs_build,
    expansion_distance,
    expectation_ordered_power,
    ladder_lower,
    ladder_raise,
    ordered_moment_fock,
    overlap,
    overlap_from_coeffs,
    photon_distribution,
    structure_e,
)
from mlcs.coherent import _series_terms
from mlcs.kcore import _gamma
from mlcs.mlfunc import _BIG, _DOWN

PARAM = st.floats(min_value=0.2, max_value=5.0, allow_nan=False)


class TestLabel:
    def test_phase_is_wrapped(self):
        lab = CSLabel(1.0, 3.0 * math.pi)
        assert lab.phase == pytest.approx(math.pi)
        assert CSLabel(2.0, -math.pi / 2).phase == pytest.approx(1.5 * math.pi)

    def test_round_trip_through_complex(self):
        w = 1.3 - 0.4j
        lab = CSLabel.from_complex(w)
        assert lab.value == pytest.approx(w, rel=1e-15)

    def test_negative_modulus_rejected(self):
        with pytest.raises(DomainError):
            CSLabel(-0.1, 0.0)
        with pytest.raises(DomainError):
            CSLabel(math.nan, 0.0)


class TestStructure:
    def test_unit_parameters_recover_harmonic_ladder(self):
        for n in range(1, 12):
            assert structure_e(UNIT_PARAMS, n) == pytest.approx(float(n), rel=1e-15)

    def test_rational_closed_form(self):
        # (alpha,beta,gamma,k)=(2,3,1,1) telescopes to e_n = 2n+1
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        for n in range(1, 10):
            assert structure_e(params, n) == pytest.approx(2.0 * n + 1.0, rel=1e-14)

    def test_ground_spacing(self):
        params = MLParams(0.7, 1.9, 2.3, 1.2)
        assert structure_e(params, 1) == pytest.approx(1.9 / 2.3, rel=1e-15)

    def test_integer_domain(self):
        with pytest.raises(DomainError):
            structure_e(UNIT_PARAMS, 0)
        with pytest.raises(DomainError):
            structure_e(UNIT_PARAMS, 1.5)


class TestLadders:
    def test_lower_on_basis_state(self):
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        out = ladder_lower(FockExpansion.basis(3, params))
        assert out.coeffs[2] == pytest.approx(math.sqrt(7.0), rel=1e-15)
        assert np.count_nonzero(out.coeffs) == 1

    def test_raise_on_basis_state(self):
        params = MLParams(2.0, 3.0, 1.0, 1.0)
        out = ladder_raise(FockExpansion.basis(2, params, size=5))
        assert out.coeffs[3] == pytest.approx(math.sqrt(7.0), rel=1e-15)

    def test_number_composition_is_diagonal(self):
        # raise(lower |n>) = e_n |n>
        params = MLParams(1.3, 0.8, 2.4, 1.9)
        for n in range(1, 7):
            state = FockExpansion.basis(n, params, size=9)
            out = ladder_raise(ladder_lower(state))
            assert out.coeffs[n] == pytest.approx(structure_e(params, n), rel=1e-14)
            mask = np.ones(9, dtype=bool)
            mask[n] = False
            assert np.all(out.coeffs[mask] == 0.0)

    def test_raise_guards_the_truncation_edge(self):
        state = FockExpansion.basis(4, UNIT_PARAMS)
        with pytest.raises(TruncationOverflowError):
            ladder_raise(state)

    def test_coeffs_are_read_only(self):
        state = FockExpansion.basis(1, UNIT_PARAMS)
        with pytest.raises(ValueError):
            state.coeffs[0] = 5.0


class TestEigenstates:
    def test_normalization(self):
        for params, mod in [
            (UNIT_PARAMS, 2.0),
            (MLParams(2.0, 3.0, 1.0, 1.0), 3.5),
            (MLParams(0.3, 4.2, 4.8, 0.4), 1.2),
        ]:
            state = cs_build(CSLabel(mod, 0.7), params)
            assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
            assert state.tail_mass < 1e-12

    def test_zero_label_is_vacuum(self):
        state = cs_build(CSLabel(0.0), MLParams(1.1, 2.2, 3.3, 0.9))
        assert state.coeffs.size == 1
        assert state.coeffs[0] == 1.0

    def test_eigenvalue_relation(self):
        params = MLParams(0.9, 2.6, 1.7, 1.3)
        z = CSLabel(1.8, 2.1)
        state = cs_build(z, params)
        lowered = ladder_lower(state)
        scaled = FockExpansion(z.value * state.coeffs, params)
        assert expansion_distance(lowered, scaled) < 1e-12

    @given(alpha=PARAM, beta=PARAM, gamma=PARAM, k=PARAM,
           mod=st.floats(min_value=0.0, max_value=3.0),
           phase=st.floats(min_value=0.0, max_value=6.28))
    @settings(max_examples=60, deadline=None)
    def test_eigenvalue_relation_random(self, alpha, beta, gamma, k, mod, phase):
        params = MLParams(alpha, beta, gamma, k)
        z = CSLabel(mod, phase)
        state = cs_build(z, params)
        lowered = ladder_lower(state)
        scaled = FockExpansion(z.value * state.coeffs, params)
        assert expansion_distance(lowered, scaled) <= 1e-9

    def test_array_ladders_match_the_element_loop(self):
        # same arithmetic per element as a loop over structure_e: equal values
        params = MLParams(1.4, 2.8, 0.6, 1.9)
        state = cs_build(CSLabel(2.4, 5.9), params)
        c = state.coeffs
        lowered, raised = np.zeros_like(c), np.zeros_like(c)
        for n in range(1, c.size):
            lowered[n - 1] = math.sqrt(structure_e(params, n)) * c[n]
            raised[n] = math.sqrt(structure_e(params, n)) * c[n - 1]
        assert np.array_equal(ladder_lower(state).coeffs, lowered)
        assert np.array_equal(ladder_raise(state).coeffs, raised)

    def test_raise_applies_to_fresh_states(self):
        # the builder cuts deep enough that the window edge is legally quiet
        state = cs_build(CSLabel(2.5, 0.3), MLParams(1.5, 2.0, 0.8, 1.1))
        ladder_raise(state)  # must not raise


class TestOverlaps:
    def test_self_overlap_is_exactly_one(self):
        z = CSLabel(1.7, 0.4)
        assert overlap(z, z, MLParams(2.0, 3.0, 1.0, 1.0)) == 1.0 + 0.0j

    def test_unit_parameters_match_gaussian_law(self):
        # harmonic limit: |<z1|z2>|^2 = exp(-|z1-z2|^2)
        z1 = CSLabel.from_complex(0.9 + 0.4j)
        z2 = CSLabel.from_complex(-0.3 + 1.1j)
        # each series stops once its tail bound is below rel_tol, so the
        # three of them need a tighter one than the 1e-12 asked of the ratio
        got = abs(overlap(z1, z2, UNIT_PARAMS, EvalConfig(rel_tol=1e-14))) ** 2
        want = math.exp(-abs(z1.value - z2.value) ** 2)
        assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_closed_and_coefficient_routes_agree(self):
        params = MLParams(1.4, 2.8, 0.6, 1.9)
        cases = [
            (params, CSLabel(1.0, 0.0), CSLabel(2.0, 1.0)),
            (params, CSLabel(0.5, 3.0), CSLabel(0.5, 0.1)),
            (params, CSLabel(2.4, 5.9), CSLabel(1.1, 2.2)),
            # E(1100) ~ 1e167: the product of the two normalizations overflows
            (MLParams(2.0, 3.0, 1.5, 0.7), CSLabel(math.sqrt(1100.0)),
             CSLabel(math.sqrt(1100.0), 0.1)),
        ]
        for params, z1, z2 in cases:
            closed = overlap(z1, z2, params)
            direct = overlap_from_coeffs(cs_build(z1, params), cs_build(z2, params))
            assert closed == pytest.approx(direct, abs=1e-10)

    def test_overlap_beyond_float64_matches_mpmath(self):
        # E(2100) ~ 1e321 leaves float64, while the overlap is about 0.025
        params = MLParams(2.0, 3.0, 1.5, 0.7)
        z1, z2 = CSLabel(math.sqrt(2100.0)), CSLabel(math.sqrt(2100.0), 0.1)
        with mpmath.workdps(40):
            a = mpmath.mpf(params.gamma) / params.k
            b = mpmath.mpf(params.beta) / params.alpha

            def e(w):
                return mpmath.hyp1f1(a, b, mpmath.mpf(params.k) / params.alpha * w)

            w = mpmath.mpc(z1.value.conjugate() * z2.value)
            want = complex(e(w) / mpmath.sqrt(e(mpmath.mpf(z1.modulus) ** 2)
                                              * e(mpmath.mpf(z2.modulus) ** 2)))
        got = overlap(z1, z2, params)
        assert abs(got - want) <= 1e-11 * abs(want)
        direct = overlap_from_coeffs(cs_build(z1, params), cs_build(z2, params))
        assert abs(direct - want) <= 1e-11 * abs(want)

    @given(alpha=PARAM, beta=PARAM, gamma=PARAM, k=PARAM,
           m1=st.floats(min_value=0.0, max_value=3.0),
           m2=st.floats(min_value=0.0, max_value=3.0),
           ph=st.floats(min_value=0.0, max_value=6.28))
    @settings(max_examples=60, deadline=None)
    def test_overlap_never_exceeds_one(self, alpha, beta, gamma, k, m1, m2, ph):
        params = MLParams(alpha, beta, gamma, k)
        val = abs(overlap(CSLabel(m1, 0.0), CSLabel(m2, ph), params))
        assert val <= 1.0 + 1e-12

    def test_label_continuity(self):
        params = MLParams(0.8, 1.6, 2.9, 1.1)
        base = cs_build(CSLabel(1.5, 1.0), params)
        dists = []
        for eps in (0.1, 0.01, 0.001):
            moved = cs_build(CSLabel(1.5 + eps, 1.0), params)
            dists.append(expansion_distance(base, moved))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 0.01


class TestMoments:
    def test_ordered_powers_have_closed_form(self):
        z = CSLabel(1.3, 0.2)
        for m in range(5):
            assert expectation_ordered_power(z, UNIT_PARAMS, m) == pytest.approx(
                1.3 ** (2 * m), rel=1e-14
            )

    def test_fock_route_reproduces_closed_form(self):
        cases = [
            (MLParams(2.0, 3.0, 1.0, 1.0), CSLabel(1.5, 0.0)),
            (MLParams(0.7, 1.2, 3.4, 2.1), CSLabel(2.2, 1.3)),
            (UNIT_PARAMS, CSLabel(2.0, 0.5)),
        ]
        for params, z in cases:
            for m in (1, 2, 3):
                closed = expectation_ordered_power(z, params, m)
                summed = ordered_moment_fock(z, params, m)
                assert summed == pytest.approx(closed, rel=1e-10, abs=0)

    def test_array_moment_matches_the_element_loop(self):
        # summation order differs from the loop: positive terms, so the two
        # agree to size * eps
        params, z = MLParams(0.7, 1.2, 3.4, 2.1), CSLabel(2.2, 1.3)
        p = photon_distribution(z, params).probs
        for m in (0, 1, 2, 3):
            loop = sum(p[n] * math.prod(structure_e(params, n - j) for j in range(m))
                       for n in range(m, p.size))
            got = ordered_moment_fock(z, params, m)
            assert got == pytest.approx(loop, rel=p.size * 2.0 ** -52, abs=0)

    # the window cut at N holds p_0..p_N; the moment's summands at n = m..N+m
    # carry them through p_n e_n = x p_{n-1}, so m near or past the window
    # needs the m terms past the cut
    @pytest.mark.parametrize("params, mod, window, m", [
        (UNIT_PARAMS, 0.01, 8, 7),
        (UNIT_PARAMS, 0.01, 8, 8),
        (UNIT_PARAMS, 0.01, 8, 9),
        (UNIT_PARAMS, 1.0, 30, 24),
        (UNIT_PARAMS, 1.0, 30, 29),
        (UNIT_PARAMS, 1.0, 30, 30),
        (UNIT_PARAMS, 1.0, 30, 31),
        (MLParams(2.0, 3.0, 1.5, 0.7), 3.0, 43, 37),
        (MLParams(2.0, 3.0, 1.5, 0.7), 3.0, 43, 43),
        (MLParams(2.0, 3.0, 1.5, 0.7), 3.0, 43, 44),
        # far past the cut p_n itself leaves float64 (p_200 ~ 1e-375 at |z| = 1);
        # the summands past the cut come from the window's top, so m = 10**8 is
        # cheap.  At (7, 0.1, 9, 0.05), gamma/beta = 90 far above k/alpha, the
        # tail bound follows the falling term ratio and the window stops at 23;
        # at |z|^2 = 1e-294 its top p_1 ~ 9e-293 is below 2**-960, so the cut
        # falls inside the window
        (UNIT_PARAMS, 1.0, 30, 200),
        (UNIT_PARAMS, 1.0, 30, 10 ** 8),
        (UNIT_PARAMS, 0.01, 8, 70),
        (MLParams(7.0, 0.1, 9.0, 0.05), 1.5, 23, 200),
        (MLParams(7.0, 0.1, 9.0, 0.05), 1.5, 23, 800),
        (MLParams(7.0, 0.1, 9.0, 0.05), 1e-147, 2, 1),
    ])
    def test_moment_near_and_past_the_window_edge(self, params, mod, window, m):
        z = CSLabel(mod, 0.4)
        assert photon_distribution(z, params).probs.size == window
        want = float(Fraction(mod) ** (2 * m))
        assert ordered_moment_fock(z, params, m) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("params", [UNIT_PARAMS, MLParams(2.0, 3.0, 1.5, 0.7),
                                        MLParams(0.7, 1.2, 3.4, 2.1)])
    @pytest.mark.parametrize("mod", [0.05, 1.3, 3.5])
    def test_moment_grid_up_to_window_plus_five(self, params, mod):
        z = CSLabel(mod, 2.0)
        window = photon_distribution(z, params).probs.size
        for m in range(window + 6):
            got = ordered_moment_fock(z, params, m)
            assert got == pytest.approx(mod ** (2 * m), rel=1e-12, abs=0), m

    def test_moment_beyond_float64_is_named(self):
        want = r"^\|z\|\^\(2m\) exceeds float64 range at \|z\|\^2 = 100.0, m = 155$"
        for route in (expectation_ordered_power, ordered_moment_fock):
            with pytest.raises(OverflowError, match=want):
                route(CSLabel(10.0), UNIT_PARAMS, 155)

    def test_moment_domain(self):
        with pytest.raises(DomainError):
            expectation_ordered_power(CSLabel(1.0), UNIT_PARAMS, -1)
        with pytest.raises(DomainError):
            ordered_moment_fock(CSLabel(1.0), UNIT_PARAMS, 1.5)


def log_space_probs(params, x, n_max):
    """p_n = (a)_n w^n / ((b)_n n! 1F1(a; b; w)), w = (k/alpha) x, from logs."""
    with mpmath.workdps(40):
        a = mpmath.mpf(params.gamma) / params.k
        b = mpmath.mpf(params.beta) / params.alpha
        w = mpmath.mpf(params.k) / params.alpha * x
        log_norm = mpmath.log(mpmath.hyp1f1(a, b, w))
        return np.array([float(mpmath.exp(
            mpmath.loggamma(a + n) - mpmath.loggamma(a) + n * mpmath.log(w)
            - mpmath.loggamma(b + n) + mpmath.loggamma(b) - mpmath.loggamma(n + 1)
            - log_norm)) for n in range(n_max + 1)])


class TestBeyondFloatRange:
    def test_state_where_the_normalization_overflows(self):
        # E(2100) ~ 5e320: the kept terms carry a power-of-two scale, where
        # they used to sum to inf and give NaN amplitudes
        params = MLParams(2.0, 3.0, 1.5, 0.7)
        z = CSLabel(math.sqrt(2100.0), 0.4)
        state = cs_build(z, params)
        probs = np.abs(state.coeffs) ** 2
        assert state.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert state.tail_mass <= 1e-12
        want = log_space_probs(params, 2100.0, probs.size - 1)
        np.testing.assert_allclose(probs, want, rtol=1e-11, atol=1e-300)
        phases = np.exp(1j * z.phase * np.arange(probs.size))
        np.testing.assert_allclose(state.coeffs, np.sqrt(probs) * phases, rtol=1e-15, atol=0)


class TestSeriesWindow:
    @pytest.mark.parametrize("x, window", [(200.0, 303), (1000.0, 862)])
    def test_window_follows_the_falling_term_ratio(self, x, window):
        # at (1, 3, 50, 0.5) gamma/beta = 16.7 is far above k/alpha = 0.5: the
        # term ratio falls toward its limit, so the tail past n is bounded by
        # the ratio at n, not at 0 (the window was 3,334 terms at x = 200, and
        # 10,000 terms did not settle it at x = 1000)
        params = MLParams(1.0, 3.0, 50.0, 0.5)
        dist = photon_distribution(CSLabel(math.sqrt(x)), params)
        assert dist.probs.size == window
        want = log_space_probs(params, x, window + 100)
        np.testing.assert_allclose(dist.probs, want[:window], rtol=1e-11, atol=1e-300)
        # the reported tail mass bounds the mass past the window
        assert want[window:].sum() <= dist.tail_mass <= 1e-12


    def test_window_carries_the_bits_of_the_every_term_loop(self):
        # the window forms q and its tail bound only where a term can end it or
        # rescale it; this loop forms them at every term: the stop index, the
        # terms, the total and the tail carry the same bits on a grid like the
        # benchmark's and at |z|^2 = 2100, where the terms pass 2**960
        def every_term(params, x):
            a, b, g, k = params.alpha, params.beta, params.gamma, params.k
            t = 1.0 / _gamma(b)
            terms, total = [t], t
            ratio, rate = x * g / b, x * k / a
            for n in range(1, 10000):
                t *= ratio
                terms.append(t)
                total += t
                ratio = x * (g + n * k) / ((b + n * a) * (n + 1))
                q = max(rate / (n + 1), ratio)
                if q < 1.0:
                    tail = t * q / (1.0 - q)
                    if tail <= 1e-13 * total and t <= 1e-30 * total:
                        return terms, total, tail
                elif t > _BIG:
                    terms = [v * _DOWN for v in terms]
                    t, total = t * _DOWN, total * _DOWN
            raise AssertionError("no stop")

        rng = np.random.default_rng(7)
        cases = [(MLParams(2.0, 3.0, 1.5, 0.7), 2100.0)]
        for cap in np.geomspace(1e-3, 250.0, 48):
            alpha = rng.uniform(0.5, 2.5)
            k = alpha * math.exp(rng.uniform(math.log(max(0.05, cap / 2000.0)), 0.0))
            spread = math.log(0.3), math.log(4.0)
            params = MLParams(alpha, alpha * math.exp(rng.uniform(*spread)), k * math.exp(rng.uniform(*spread)), k)
            x = CSLabel(math.sqrt(cap / max(params.gamma / params.beta, params.k / params.alpha))).modulus ** 2
            cases += [(params, x), (params, x * rng.uniform(0.3, 1.0))]
        for params, x in cases:
            assert _series_terms(params, x) == every_term(params, x), (params, x)
        assert _series_terms(*cases[0])[0][0] < 1.0 / _gamma(3.0)  # rescaled past 2**960


class TestPhotonStatistics:
    def test_unit_parameters_give_poisson(self):
        x = 2.25
        dist = photon_distribution(CSLabel(1.5, 0.9), UNIT_PARAMS)
        for n in range(min(dist.probs.size, 20)):
            want = math.exp(-x) * x**n / math.factorial(n)
            assert dist.probs[n] == pytest.approx(want, rel=1e-12, abs=0)

    def test_probabilities_sum_to_one(self):
        dist = photon_distribution(CSLabel(2.0, 0.0), MLParams(0.5, 3.0, 2.0, 0.7))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.probs >= 0.0)

    def test_ground_probability_closed_form(self):
        from mlcs import ml_eval

        params = MLParams(2.0, 3.0, 1.4, 0.9)
        x = 2.25
        dist = photon_distribution(CSLabel(1.5, 0.0), params)
        want = (1.0 / math.gamma(3.0)) / ml_eval(params, x).value
        assert dist.probs[0] == pytest.approx(want, rel=1e-12, abs=0)

    def test_neighbor_ratio_recursion(self):
        # p_{n+1}/p_n carries the series ratio (gamma + n k) x / ((beta + n alpha)(n+1))
        params = MLParams(1.8, 0.9, 2.5, 1.4)
        x = 4.0
        dist = photon_distribution(CSLabel(2.0, 0.0), params)
        for n in range(10):
            want = dist.probs[n] * (params.gamma + n * params.k) * x / (
                (params.beta + n * params.alpha) * (n + 1)
            )
            assert dist.probs[n + 1] == pytest.approx(want, rel=1e-12, abs=0)


class TestProbabilityPath:
    def test_probability_routes_build_no_amplitudes(self, monkeypatch):
        import mlcs.coherent
        from mlcs import LinearSpectrum, ThermalConfig, husimi_q_fock

        def refuse(*args):
            raise AssertionError("amplitudes built")

        monkeypatch.setattr(mlcs.coherent, "cs_build", refuse)
        monkeypatch.setattr(FockExpansion, "__post_init__", refuse)
        params, z = MLParams(2.0, 3.0, 1.5, 0.7), CSLabel(1.7, 0.6)
        assert photon_distribution(z, params).probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert ordered_moment_fock(z, params, 2) == pytest.approx(1.7 ** 4, rel=1e-12)
        cfg = ThermalConfig(0.8, LinearSpectrum.from_params(params))
        assert husimi_q_fock(z, params, cfg) > 0.0

    @pytest.mark.parametrize("params", [UNIT_PARAMS, MLParams(2.0, 3.0, 1.5, 0.7)])
    @pytest.mark.parametrize("z", [CSLabel(0.0), CSLabel(0.3, 1.1), CSLabel(1.2),
                                   CSLabel(2.7, 4.0), CSLabel(math.sqrt(2100.0), 0.4)])
    def test_probabilities_are_squared_amplitudes(self, params, z):
        dist = photon_distribution(z, params)
        state = cs_build(z, params)
        np.testing.assert_allclose(dist.probs, np.abs(state.coeffs) ** 2,
                                   rtol=4 * 2.0 ** -52, atol=0)
        assert dist.tail_mass == state.tail_mass
