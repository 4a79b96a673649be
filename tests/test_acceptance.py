"""Acceptance gate: eleven numbered criteria, one test and one printed
PASS/FAIL line each.  Tolerances are stated inline next to each assert.

Criterion 9 is known not to hold as stated: the quadratic-spectrum
resummation is an asymptotic series whose error floor at B = 0.05 sits near
3e-3, far above the demanded 1e-5.  The test asserts the stated tolerance
anyway and is expected to fail; the module test suite pins the actual
behavior instead.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

from mlcs import (
    CSLabel,
    FockExpansion,
    MLParams,
    QuadraticSpectrum,
    ThermalConfig,
    UNIT_PARAMS,
    ansatz_error_curve,
    continuum_partition,
    cs_build,
    expansion_distance,
    husimi_q,
    husimi_q_fock,
    ladder_lower,
    LinearSpectrum,
    measure_weight_h,
    ml_eval,
    ml_eval_via_1f1,
    ml_laplace,
    ml_laplace_quad,
    nu_function,
    overlap,
    overlap_from_coeffs,
    p_function,
    partition_linear,
    partition_quadratic,
    photon_distribution,
    resolution_identity_matrix,
    verify_continuum_moments,
    verify_resolution,
)
from mlcs import mlfunc
from reference_quad import improper_quad, nu_quad

SEED = 20260814

# unit, the shifted-exponential case, and a genuinely four-parameter case
REFERENCE_SETS = (
    UNIT_PARAMS,
    MLParams(1.0, 2.0, 1.0, 1.0),
    MLParams(2.0, 3.0, 1.0, 1.0),
)

# one set per route of the Meijer kernel, for the moment and Gram criteria
KERNEL_ROUTE_SETS = (
    MLParams(2.0, 3.0, 1.5, 0.7),  # the plain Laplace form
    MLParams(1.5, 1.2, 0.6, 1.0),  # Kummer's transformation, the subtracted form
    MLParams(2.0, 3.0, 0.3, 1.0),  # the backward recurrence
    MLParams(1.0, 0.8, 1.2, 1.0),  # the connection formula
    MLParams(1.0, 0.5, 0.4, 1.0),  # second index b2 < 0
)


def report(num: int, label: str, ok: bool) -> None:
    # bypass capture so the per-criterion line always reaches the console
    print(f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}",
          file=sys.__stdout__, flush=True)


def draw_params(rng) -> MLParams:
    vals = 5.0 - rng.uniform(0.0, 4.8, size=4)
    return MLParams(*map(float, vals))


def test_criterion_01_exponential_reduction():
    worst = 0.0
    for z in (-5.0, -1.0, 0.0, 1.0, 5.0, 20.0):
        res = ml_eval(UNIT_PARAMS, z)
        worst = max(worst, abs(res.value - math.exp(z)) / math.exp(z))
    ok = worst <= 1e-12
    report(1, "unit parameters reduce to exp(z)", ok)
    assert ok, f"worst relative deviation {worst:.3e}"


def test_criterion_02_series_vs_confluent_route():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    pairs = 0  # draws where ml_eval takes the large-|w| expansion, the referee the series
    for _ in range(200):
        params = draw_params(rng)
        z = float(rng.uniform(-20.0, 20.0))
        direct = ml_eval(params, z)
        via = ml_eval_via_1f1(params, z)
        assert direct.converged and via.converged
        worst = max(worst, abs(direct.value - via.value) / abs(direct.value))
        w = params.k / params.alpha * z
        pairs += (abs(w) >= mlfunc._ASYMPTOTIC_FROM
                  and mlfunc._asymptotic(params, w, mlfunc._DEFAULT_CONFIG) is not None)
    ok = worst <= 1e-9
    report(2, f"series route equals confluent route on 200 draws, {pairs} of them "
              "the large-|w| expansion against the series", ok)
    assert ok, f"worst relative disagreement {worst:.3e}"


def test_criterion_03_measure_moments():
    worst = 0.0
    for params in REFERENCE_SETS + KERNEL_ROUTE_SETS:
        rep = verify_resolution(params, s_max=10)
        worst = max(worst, rep.max_rel_err)
    ok = worst <= 1e-6
    report(3, "kernel moments match the gamma-ratio closed form", ok)
    assert ok, f"worst max_rel_err {worst:.3e}"


def test_criterion_04_resolution_of_identity():
    worst = 0.0
    for params in REFERENCE_SETS + KERNEL_ROUTE_SETS:
        mat = resolution_identity_matrix(params, n_max=10)
        worst = max(worst, float(np.max(np.abs(mat - np.eye(11)))))
    ok = worst <= 1e-6
    report(4, "coefficient-space Gram matrix is the identity", ok)
    assert ok, f"worst deviation from identity {worst:.3e}"


def test_criterion_05_lowering_eigenstates():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        params = draw_params(rng)
        z = CSLabel(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.0, 2.0 * math.pi)))
        state = cs_build(z, params)
        lowered = ladder_lower(state)
        scaled = FockExpansion(z.value * state.coeffs, params)
        worst = max(worst, float(np.max(np.abs(lowered.coeffs - scaled.coeffs))))
    ok = worst <= 1e-9
    report(5, "eigenstates of the lowering operator on 50 draws", ok)
    assert ok, f"worst coefficient-wise residual {worst:.3e}"


def test_criterion_06_overlaps():
    self_ok = all(
        overlap(z, z, params) == 1.0 + 0.0j
        for params in REFERENCE_SETS
        for z in (CSLabel(0.0), CSLabel(1.0), CSLabel(2.3, 1.1))
    )
    glauber = overlap(CSLabel(1.0), CSLabel(2.0), UNIT_PARAMS)
    gl_err = abs(glauber - math.exp(-0.5))
    # the closed form E(conj(z1) z2) / sqrt(E(|z1|^2) E(|z2|^2)) against the
    # coefficient sum over two built states, at general parameters (each
    # log-uniform in [0.2, 10], |z| <= 4) and at |z|^2 = 1100
    rng = np.random.default_rng(SEED)
    pairs = []
    for _ in range(300):
        params = MLParams(*map(float, np.exp(rng.uniform(math.log(0.2), math.log(10.0), 4))))
        labels = [CSLabel(4.0 * math.sqrt(u), 2.0 * math.pi * v) for u, v in rng.uniform(size=(2, 2))]
        pairs.append((params, *labels))
    deep = math.sqrt(1100.0)
    pairs.append((MLParams(2.0, 3.0, 1.5, 0.7), CSLabel(deep), CSLabel(deep, 0.05)))
    cross_err = self_err = 0.0
    for params, z1, z2 in pairs:
        a, b = cs_build(z1, params), cs_build(z2, params)
        cross_err = max(cross_err, abs(overlap(z1, z2, params) - overlap_from_coeffs(a, b)))
        self_err = max(self_err, abs(overlap_from_coeffs(a, a) - 1.0),
                       abs(overlap_from_coeffs(b, b) - 1.0))
    ok = self_ok and gl_err <= 1e-10 and cross_err <= 1e-10 and self_err <= 1e-14
    report(6, f"self-overlap is exactly 1, the harmonic cross-overlap matches, and the "
              f"closed form equals the coefficient sum on {len(pairs)} pairs", ok)
    assert self_ok, "self-overlap deviated from exact unity"
    assert gl_err <= 1e-10, f"cross-overlap error {gl_err:.3e}"
    assert cross_err <= 1e-10, f"closed form vs coefficient sum {cross_err:.3e}"
    assert self_err <= 1e-14, f"coefficient self-overlap off 1 by {self_err:.3e}"


def test_criterion_07_laplace_transform():
    worst = 0.0
    for s in (2.0, 3.0, 5.0):
        closed = ml_laplace(UNIT_PARAMS, s)
        worst = max(worst, abs(closed - 1.0 / (s - 1.0)) * (s - 1.0))
        worst = max(worst, abs(closed - ml_laplace_quad(UNIT_PARAMS, s)) / closed)
    params = MLParams(2.0, 3.0, 1.0, 1.0)
    closed = ml_laplace(params, 5.0)
    worst = max(worst, abs(closed - ml_laplace_quad(params, 5.0)) / closed)
    ok = worst <= 1e-8
    report(7, "transform closed form agrees with direct quadrature", ok)
    assert ok, f"worst relative deviation {worst:.3e}"


def test_criterion_08_thermal_distributions():
    params = MLParams(2.0, 3.0, 1.0, 1.0)
    cfg = ThermalConfig(0.4, LinearSpectrum.from_params(params))
    abs_tol = 1e-13

    route_gap = 0.0
    for z in (CSLabel(0.0), CSLabel(0.8, 0.5), CSLabel(1.7), CSLabel(2.4, 3.0)):
        closed = husimi_q(z, params, cfg)
        route_gap = max(route_gap, abs(closed - husimi_q_fock(z, params, cfg)) / closed)

    norm, _ = improper_quad(
        lambda x: measure_weight_h(params, x)
        * husimi_q(CSLabel(math.sqrt(x)), params, cfg),
        abs_tol,
    )
    norm_err = abs(norm - 1.0)

    zpart = partition_linear(cfg)
    diag_err = 0.0
    for n in range(9):
        def integrand(x, n=n):
            probs = photon_distribution(CSLabel(math.sqrt(x)), params).probs
            pn = float(probs[n]) if n < probs.size else 0.0
            return measure_weight_h(params, x) * p_function(
                CSLabel(math.sqrt(x)), params, cfg) * pn

        value, _ = improper_quad(integrand, abs_tol)
        want = math.exp(-cfg.beta_b * cfg.spectrum.slope * n) / zpart
        diag_err = max(diag_err, abs(value - want) / want)

    ok = route_gap <= 1e-9 and norm_err <= 1e-5 and diag_err <= 1e-5
    report(8, "Husimi routes, Husimi normalization, P diagonals", ok)
    assert route_gap <= 1e-9, f"Husimi route gap {route_gap:.3e}"
    assert norm_err <= 1e-5, f"Husimi normalization error {norm_err:.3e}"
    assert diag_err <= 1e-5, f"worst Boltzmann-diagonal error {diag_err:.3e}"


def test_criterion_09_quadratic_resummation():
    # part 1: asymptotic signature at B = 0.5 (holds; the optimal truncation
    # here is J = 0 and every deeper truncation diverges away from the sum)
    curve = ansatz_error_curve(ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.5)), 10)
    best = min(range(len(curve)), key=curve.__getitem__)
    signature_ok = (
        best < 10
        and all(b > a for a, b in zip(curve[best:], curve[best + 1:]))
        and curve[-1] > 100.0 * curve[best]
    )

    # part 2: stated accuracy at B = 0.05, J = 8 (does not hold; the series
    # is asymptotic and its floor here is ~3e-3, so this is expected to fail)
    res = partition_quadratic(
        ThermalConfig(1.0, QuadraticSpectrum(1.0, 0.05), ansatz_terms=8),
        rel_tol=1e-5,
    )
    accuracy_ok = res.converged and res.tail_bound <= 1e-5

    report(9, "quadratic-spectrum resummation accuracy and signature",
           signature_ok and accuracy_ok)
    assert signature_ok, "error-vs-depth curve lacks the asymptotic minimum"
    assert accuracy_ok, (
        f"J=8 relative error {res.tail_bound:.3e} exceeds 1e-5; "
        "the expansion's error floor at B=0.05 is ~3e-3"
    )


def test_criterion_10_continuum_limit():
    exact_ok = all(
        continuum_partition(b) * b == 1.0
        for b in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0)
    )

    moments = verify_continuum_moments([0.0, 0.5, 1.0, 2.5, 7.0])
    moments_ok = moments.max_rel_err <= 1e-7

    growth_err = abs(1.0 - nu_function(30.0) * math.exp(-30.0))
    growth_ok = growth_err <= 1e-2

    quadpack_gap = 0.0
    for x in np.geomspace(0.1, 30.0, 12):
        a = nu_quad(float(x))
        f = nu_function(float(x))
        quadpack_gap = max(quadpack_gap, abs(a - f) / abs(a))
    quadpack_ok = quadpack_gap <= 1e-7

    ok = exact_ok and moments_ok and growth_ok and quadpack_ok
    report(10, "continuum partition, moments, growth, QUADPACK agreement", ok)
    assert exact_ok, "partition function times beta_b deviated from exact 1"
    assert moments_ok, f"moment identity error {moments.max_rel_err:.3e}"
    assert growth_ok, f"growth-tracking error {growth_err:.3e}"
    assert quadpack_ok, f"nu disagrees with QUADPACK by {quadpack_gap:.3e}"


def run_cli(*argv):
    # the child runs this source tree whether or not PYTHONPATH names it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return subprocess.run(
        [sys.executable, "-m", "mlcs", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )


def test_criterion_11_cli_contract():
    eval_argv = ("ml-eval", "--alpha", "2", "--beta", "3", "--z", "4.5")
    nu_argv = ("scan", "--quantity", "nu", "--x-min", "0.5", "--x-max", "10",
               "--x-steps", "5", "--format", "csv")
    deterministic = all(
        run_cli(*argv).stdout == run_cli(*argv).stdout
        for argv in (eval_argv, nu_argv)
    )

    good = run_cli("verify", "laplace", "--s", "3")
    bad_input = run_cli("ml-eval", "--alpha", "-1", "--z", "1")
    failed_check = run_cli("verify", "ansatz", "--B", "0.5")
    codes_ok = (
        good.returncode == 0
        and bad_input.returncode == 1
        and bad_input.stdout == ""
        and bad_input.stderr.startswith("mlcs:")
        and failed_check.returncode == 2
        and json.loads(failed_check.stdout)["results"]["passed"] is False
    )

    ok = deterministic and codes_ok
    report(11, "CLI determinism and exit-code contract", ok)
    assert deterministic, "repeated invocations were not byte-identical"
    assert codes_ok, "exit-code contract violated"
