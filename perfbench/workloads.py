"""The four workloads: inputs made from the seed, the operations of one
round, and the check each operation's output must pass.

A round is one pass over a fixed list of operations; every run repeats
whole rounds, so known faulty operations are always the same share of the
operations attempted.  The faulty operations (F1-F4 in README.md) use fixed
inputs that do not depend on the seed; every other input comes from the
seed through numpy's default generator.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracles as orc

NAMES = ("pointwise", "kernel_identities", "continuum", "cli_cold")

# (alpha, beta, gamma, k) anchors for the quadrature workloads; the seed
# moves each coordinate by up to 3 %.  They span gamma/k above 1, far above
# 1, and below 1 (the backward-recurrence branch of the Tricomi kernel).
ANCHORS = ((2.0, 3.0, 1.5, 0.7), (1.0, 2.0, 3.0, 1.0), (1.5, 1.2, 0.6, 1.0))
FAULT_PARAMS = (2.0, 3.0, 1.5, 0.7)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    fault: str | None = None  # F1-F4 when the operation is known to fail


def build(name, seed, root):
    builders = {
        "pointwise": _pointwise,
        "kernel_identities": _kernel_identities,
        "continuum": _continuum,
        "cli_cold": _cli_cold,
    }
    return builders[name](np.random.default_rng(seed), root)


# -------------------------------------------------------------- helpers


def _strata(rng, lo, hi, n):
    """n log-uniform draws, one in each of n equal log-width strata of [lo, hi]."""
    edges = np.linspace(math.log(lo), math.log(hi), n + 1)
    return [math.exp(edges[i] + rng.uniform() * (edges[i + 1] - edges[i])) for i in range(n)]


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _jittered(m, rng, anchor, rel=0.03):
    return m.MLParams(*(v * (1.0 + rel * rng.uniform(-1.0, 1.0)) for v in anchor))


def _scattered_params(m, rng, cap):
    """Parameters with alpha in [0.5, 2.5], gamma/k and beta/alpha in [0.3, 4]
    and k/alpha in [max(0.05, cap/2000), 1]."""
    alpha = rng.uniform(0.5, 2.5)
    k = alpha * _loguniform(rng, max(0.05, cap / 2000.0), 1.0)
    return m.MLParams(alpha, alpha * _loguniform(rng, 0.3, 4.0), k * _loguniform(rng, 0.3, 4.0), k)


def _label_for(p, cap):
    """|z|^2 at which the series of E has the term-ratio bound
    |z|^2 max(gamma/beta, k/alpha) = cap; the number of terms summed grows
    with cap, and (k/alpha) |z|^2 <= cap keeps E(|z|^2) below 1e150."""
    return cap / max(p.gamma / p.beta, p.k / p.alpha)


def _rel(value_fn, rtol, atol=0.0):
    return lambda out: orc.check_close(out, complex(value_fn()) if isinstance(out, complex)
                                       else float(value_fn()), rtol, atol)


def _series_value(out):
    if not out.converged:
        return f"not converged after {out.terms_used} terms (value {out.value!r})"
    return None


def _check_series(p, z, rtol):
    return lambda out: orc.first_problem(
        _series_value(out), orc.check_close(out.value, float(orc.ml_value(p, z)), rtol))


def _check_state(p, label, rtol):
    """cs_build: unit norm, tiny tail mass, and c_n = sqrt(p_n) e^{i n phase}
    against the Gamma-ratio probabilities."""

    def check(state):
        c = state.coeffs
        if not np.all(np.isfinite(c)):
            return "non-finite amplitudes"
        norm = float(np.sum(np.abs(c) ** 2))
        probs = orc.photon_probs(p, label.modulus ** 2, c.size - 1)
        phase = np.exp(1j * label.phase * np.arange(c.size))
        return orc.first_problem(
            orc.check_close(norm, 1.0, 1e-12),
            None if state.tail_mass <= 1e-12 else f"tail mass {state.tail_mass:.3e}",
            orc.check_array(c, np.sqrt(probs) * phase, rtol, 1e-14),
        )

    return check


def _check_probs(p, x, rtol):
    def check(dist):
        probs = np.asarray(dist.probs)
        return orc.first_problem(
            orc.check_close(float(np.sum(probs)), 1.0, 1e-12),
            orc.check_array(probs, orc.photon_probs(p, x, probs.size - 1), rtol, 1e-15),
        )

    return check


def _overlap_ref(p, z1, z2):
    w = z1.value.conjugate() * z2.value
    m = orc.mp()
    return complex(orc.ml_value(p, w) / m.sqrt(orc.ml_value(p, z1.modulus ** 2)
                                               * orc.ml_value(p, z2.modulus ** 2)))


def _husimi_ref(p, x, beta_b):
    slope = p.beta / p.gamma
    return (orc.ml_value(p, math.exp(-beta_b * slope) * x) / orc.ml_value(p, x)
            * -math.expm1(-beta_b * slope))


def run_cli_inprocess(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _arg(v):
    return repr(float(v))


def _param_flags(p):
    return ["--alpha", _arg(p.alpha), "--beta", _arg(p.beta), "--gamma", _arg(p.gamma),
            "--kpar", _arg(p.k)]


def _check_cli(check_payload):
    """CLI output: exit code 0, one JSON document, then the payload check."""

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return f"output is not JSON: {exc}"
        return check_payload(payload["results"])

    return check


def _check_rows(ref_fn, rtol, atol=0.0):
    """Scan rows [[x, value], ...] against ref_fn(x)."""

    def check(results):
        rows = results["rows"]
        got = np.array([r[1] for r in rows], dtype=float)
        want = np.array([float(ref_fn(r[0])) for r in rows])
        return orc.check_array(got, want, rtol, atol)

    return check


def _check_pn(p, zmod):
    def check(results):
        got = np.array([r[1] for r in results["rows"]], dtype=float)
        return orc.first_problem(
            orc.check_close(float(np.sum(got)), 1.0, 1e-12),
            orc.check_array(got, orc.photon_probs(p, zmod ** 2, got.size - 1), 1e-11, 1e-15),
        )

    return check


def _check_report(rhs_fn, rtol, rhs_rtol=1e-12):
    """MomentReport / verify output: each lhs within rtol of the reference,
    and each rhs within rhs_rtol of it."""

    def check(report):
        s_values = report["s_values"] if isinstance(report, dict) else report.s_values
        lhs = report["lhs"] if isinstance(report, dict) else report.lhs
        rhs = report["rhs"] if isinstance(report, dict) else report.rhs
        want = np.array([float(rhs_fn(s)) for s in s_values])
        return orc.first_problem(
            orc.check_array(np.array(lhs), want, rtol),
            orc.check_array(np.array(rhs), want, rhs_rtol),
        )

    return check


# ------------------------------------------------------------- pointwise


def _pointwise(rng, root):
    import mlcs as m
    import mlcs.cli

    ops = []
    # the series cost is set on a fixed log grid, so every seed costs about
    # the same while |z|^2 spans about 1e-4 to 2e3
    for i, cap in enumerate(np.geomspace(1e-3, 250.0, 48)):
        cap *= rng.uniform(0.95, 1.05)
        p = _scattered_params(m, rng, cap)
        x = _label_for(p, cap)
        z = m.CSLabel(math.sqrt(x), rng.uniform(0.0, 2.0 * math.pi))
        z2 = m.CSLabel(math.sqrt(x * rng.uniform(0.3, 1.0)), rng.uniform(0.0, 2.0 * math.pi))
        # complex arguments stay where the series is well conditioned
        wc = cmath.rect(_loguniform(rng, 1e-2, 10.0) * p.alpha / p.k, rng.uniform(-math.pi, math.pi))
        order = 1 + i % 3
        thermal = m.ThermalConfig(rng.uniform(0.2, 2.0), m.LinearSpectrum.from_params(p))
        a_lin = rng.uniform(0.8, 1.2)
        quad_cfg = m.ThermalConfig(rng.uniform(0.8, 1.2),
                                   m.QuadraticSpectrum(a_lin, a_lin * rng.uniform(1e-3, 1e-2)), 4 + i % 5)
        s1 = m.cs_build(z, p)
        s2 = m.cs_build(z2, p)
        q_ref = lambda p=p, x=x, b=thermal.beta_b: _husimi_ref(p, x, b)
        o_ref = lambda p=p, z=z, z2=z2: _overlap_ref(p, z, z2)
        ops += [
            Op("ml_eval", lambda p=p, x=x: m.ml_eval(p, x), _check_series(p, x, 1e-11)),
            Op("ml_eval", lambda p=p, x=x: m.ml_eval(p, -x), _check_series(p, -x, 1e-11)),
            Op("ml_eval_via_1f1", lambda p=p, x=x: m.ml_eval_via_1f1(p, x), _check_series(p, x, 1e-11)),
            Op("ml_eval_via_1f1", lambda p=p, x=x: m.ml_eval_via_1f1(p, -x), _check_series(p, -x, 1e-11)),
            Op("ml_eval_complex", lambda p=p, w=wc: m.ml_eval_complex(p, w),
               _rel(lambda p=p, w=wc: orc.ml_value(p, w), 1e-11)),
            Op("cs_build", lambda p=p, z=z: m.cs_build(z, p), _check_state(p, z, 1e-11)),
            Op("overlap", lambda p=p, z=z, z2=z2: m.overlap(z, z2, p), _rel(o_ref, 1e-11, 1e-12)),
            Op("overlap_from_coeffs", lambda a=s1, b=s2: m.overlap_from_coeffs(a, b),
               _rel(o_ref, 1e-11, 1e-12)),
            Op("photon_distribution", lambda p=p, z=z: m.photon_distribution(z, p),
               _check_probs(p, x, 1e-11)),
            Op("ordered_moment_fock", lambda p=p, z=z, o=order: m.ordered_moment_fock(z, p, o),
               _rel(lambda x=x, o=order: x ** o, 1e-11)),
            Op("ladder_lower", lambda s=s1: m.ladder_lower(s), _check_lowered(s1, z)),
            Op("ladder_raise", lambda s=s1: m.ladder_raise(s), _check_raised(s1, p)),
            Op("husimi_q", lambda p=p, z=z, c=thermal: m.husimi_q(z, p, c), _rel(q_ref, 1e-11)),
            Op("husimi_q_fock", lambda p=p, z=z, c=thermal: m.husimi_q_fock(z, p, c),
               _rel(q_ref, 1e-11)),
            Op("partition_quadratic", lambda c=quad_cfg: m.partition_quadratic(c),
               _check_ansatz(quad_cfg)),
        ]
    for x in (rng.uniform(1.0, 40.0), -rng.uniform(1.0, 40.0)):
        ops.append(Op("ml_eval", lambda x=x: m.ml_eval(m.UNIT_PARAMS, x),
                      lambda out, x=x: orc.first_problem(_series_value(out),
                                                         orc.check_close(out.value, math.exp(x), 1e-11))))

    p0 = _scattered_params(m, rng, 2.0)
    zmod = rng.uniform(0.5, 2.0)
    pn_argv = ["scan", "--quantity", "pn", "--zmod", _arg(zmod)] + _param_flags(p0)
    p1 = _scattered_params(m, rng, 10.0)
    beta_b = rng.uniform(0.3, 1.5)
    husimi_argv = (["scan", "--quantity", "husimi", "--x-max", _arg(rng.uniform(5.0, 20.0)),
                    "--x-steps", "9", "--betaB", _arg(beta_b)] + _param_flags(p1))
    ops += [
        Op("cli.main", lambda: run_cli_inprocess(mlcs.cli, pn_argv), _check_cli(_check_pn(p0, zmod))),
        Op("cli.main", lambda: run_cli_inprocess(mlcs.cli, husimi_argv),
           _check_cli(_check_rows(lambda x: _husimi_ref(p1, x, beta_b), 1e-11))),
    ]

    # F2: E(z) and what is built on it at |z|^2 = 2100 (see README.md)
    pf = m.MLParams(*FAULT_PARAMS)
    big = m.CSLabel(math.sqrt(2100.0))
    hot = m.ThermalConfig(1.0, m.LinearSpectrum.from_params(pf))
    ops += [
        Op("ml_eval", lambda: m.ml_eval(pf, -2100.0), _check_series(pf, -2100.0, 1e-11), "F2"),
        Op("cs_build", lambda: m.cs_build(big, pf), _check_state(pf, big, 1e-11), "F2"),
        Op("husimi_q", lambda: m.husimi_q(big, pf, hot),
           _rel(lambda: _husimi_ref(pf, 2100.0, 1.0), 1e-11), "F2"),
    ]
    # F3: overlap once E(|z|^2) passes ~1.3e154
    za, zb = m.CSLabel(math.sqrt(1100.0)), m.CSLabel(math.sqrt(1100.0), 0.1)
    ops.append(Op("overlap", lambda: m.overlap(za, zb, pf),
                  _rel(lambda: _overlap_ref(pf, za, zb), 1e-11, 1e-12), "F3"))
    # F4: the complex series cancels on the imaginary axis, (k/alpha) |w| = 60
    wf = 60j * pf.alpha / pf.k
    ops.append(Op("ml_eval_complex", lambda: m.ml_eval_complex(pf, wf),
                  _rel(lambda: orc.ml_value(pf, wf), 1e-11), "F4"))
    return ops


def _check_lowered(state, z):
    """Eigenvalue property: (lower c)_n = z c_n below the top slot."""

    def check(out):
        c = state.coeffs
        got = out.coeffs[:-1]
        return orc.check_array(got, z.value * c[:-1], 0.0, 1e-12 * max(1.0, z.modulus))

    return check


def _check_raised(state, p):
    """(raise c)_{n+1} = sqrt(e_{n+1}) c_n with e_n in closed form."""

    def check(out):
        c = state.coeffs
        want = np.zeros_like(c)
        want[1:] = np.sqrt(orc.structure_values(p, np.arange(1, c.size))) * c[:-1]
        return orc.check_array(out.coeffs, want, 1e-13, 1e-300)

    return check


def _check_ansatz(cfg):
    """Resummed value against mpmath polylogs; the reported deviation against
    the benchmark's own direct Boltzmann sum."""

    def check(out):
        sp = cfg.spectrum
        direct = orc.boltzmann_direct(cfg.beta_b, sp.a_lin, sp.b_quad)
        value = float(orc.resummation(cfg.beta_b, sp.a_lin, sp.b_quad, cfg.ansatz_terms))
        return orc.first_problem(
            orc.check_close(out.value, value, 1e-11),
            orc.check_close(out.tail_bound, abs(out.value - direct) / direct, 0.0, 1e-13),
        )

    return check


# ----------------------------------------------------- kernel_identities


def _kernel_identities(rng, root):
    import mlcs as m

    ops = []
    for anchor in ANCHORS:
        p = _jittered(m, rng, anchor)
        to_x = p.alpha / p.k  # x = y * alpha / k for kernel argument y
        cfg = m.ThermalConfig(rng.uniform(0.3, 1.0), m.LinearSpectrum.from_params(p))
        for y in _strata(rng, 0.05, 30.0, 5):
            ops.append(Op("meijer_g_weight", lambda p=p, x=y * to_x: m.meijer_g_weight(p, x),
                          _rel(lambda p=p, x=y * to_x: orc.kernel_value(p, x), 1e-12)))
        for y in _strata(rng, 0.2, 10.0, 2):
            ops.append(Op("meijer_g_weight_mb", lambda p=p, x=y * to_x: m.meijer_g_weight_mb(p, x),
                          _rel(lambda p=p, x=y * to_x: orc.kernel_value(p, x), 1e-10)))
        for y in _strata(rng, 0.05, 20.0, 3):
            ops.append(Op("measure_weight_h", lambda p=p, x=y * to_x: m.measure_weight_h(p, x),
                          _rel(lambda p=p, x=y * to_x: orc.measure_weight(p, x), 1e-10)))
        for y in _strata(rng, 0.05, 5.0, 12):
            z = m.CSLabel(math.sqrt(y * to_x), rng.uniform(0.0, 2.0 * math.pi))
            boost = math.exp(cfg.beta_b * cfg.spectrum.slope)
            ref = (lambda p=p, x=y * to_x, b=boost, c=cfg:
                   b * orc.kernel_value(p, b * x) / orc.kernel_value(p, x) * -math.expm1(-c.beta_b * c.spectrum.slope))
            ops.append(Op("p_function", lambda p=p, z=z, c=cfg: m.p_function(z, p, c), _rel(ref, 1e-11)))
        s = p.k / p.alpha * rng.uniform(2.0, 4.0)
        ops += [
            Op("verify_resolution", lambda p=p: m.verify_resolution(p, s_max=8),
               _check_report(lambda s, p=p: orc.moment_closed_form(p, s), 1e-10)),
            Op("resolution_identity_matrix", lambda p=p: m.resolution_identity_matrix(p, n_max=10),
               lambda mat: orc.check_array(mat, np.eye(11), 0.0, 1e-10)),
            Op("ml_laplace_quad", lambda p=p, s=s: m.ml_laplace_quad(p, s),
               _rel(lambda p=p, s=s: orc.laplace_value(p, s), 1e-9)),
        ]
    # F1: the fast Tricomi route for 0 < gamma/k - 1 <~ 0.01 (see README.md)
    for params, x in (((1.0, 1.0, 2.1171875, 2.11328125), 1.0), ((1.0, 3.0, 1.001, 1.0), 0.1),
                      ((1.0, 3.0, 1.002, 1.0), 0.1)):
        pf = m.MLParams(*params)
        ops.append(Op("meijer_g_weight", lambda p=pf, x=x: m.meijer_g_weight(p, x),
                      _rel(lambda p=pf, x=x: orc.kernel_value(p, x), 1e-12), "F1"))
    return ops


# ------------------------------------------------------------- continuum


def _continuum(rng, root):
    import mlcs as m

    params = [_jittered(m, rng, a) for a in ANCHORS[:2]]
    ops = []
    for i, x in enumerate(np.geomspace(1e-2, 5e2, 12) * rng.uniform(0.95, 1.05, 12)):
        x = float(x)
        p = params[i % 2]
        beta_b = rng.uniform(0.3, 2.0)
        z = m.CSLabel(math.sqrt(x), rng.uniform(0.0, 2.0 * math.pi))
        state = m.EnergyDensityState.build(z)
        nu = lambda x=x: orc.nu_value(x)
        # 2e-12: rounding of the peak scale, up to log nu ~ 500, alone reaches 3e-13
        log_check = (lambda out, x=x: orc.check_close(out, float(orc.mp().log(orc.nu_value(x))), 0.0, 2e-12))
        ops += [
            Op("log_nu", lambda x=x: m.log_nu(x), log_check),
            Op("log_nu", lambda x=x: m.log_nu(x, scheme="fixed"), log_check),
            Op("nu_function", lambda x=x: m.nu_function(x), _rel(nu, 2e-12)),
            Op("nu_function", lambda x=x: m.nu_function(x, scheme="fixed"), _rel(nu, 2e-12)),
            Op("tilde_ml", lambda p=p, x=x: m.tilde_ml(p, x), _rel(lambda p=p, x=x: orc.tilde_ml_value(p, x), 1e-11)),
            Op("continuum_husimi", lambda z=z, b=beta_b: m.continuum_husimi(z, b),
               _rel(lambda x=x, b=beta_b: b * orc.nu_value(math.exp(-b) * x) / orc.nu_value(x), 1e-11)),
            Op("EnergyDensityState.build", lambda z=z: m.EnergyDensityState.build(z),
               lambda out, nu=nu: orc.check_close(out.norm, float(nu()), 2e-12)),
            Op("EnergyDensityState.norm_mass", lambda s=state: s.norm_mass(),
               lambda out: orc.check_close(out, 1.0, 0.0, 1e-12)),
            Op("EnergyDensityState.norm_literal", lambda s=state: s.norm_literal(),
               _rel(lambda x=x: orc.nu_gamma2_value(x) / orc.nu_value(x), 1e-11)),
        ]
    # The suites' cost jumps with the number of subdivisions QUADPACK picks for
    # a given E and beta_b, so they run on a fixed grid; one E per moment check
    # keeps each timed call short.
    for e in (0.25, 1.5, 3.0, 5.0, 7.5):
        ops.append(Op("verify_continuum_moments", lambda e=e: m.verify_continuum_moments([e]),
                      _check_report(lambda e: math.gamma(e + 1.0), 1e-11)))
    for e, beta_b in ((1.0, 0.7), (3.0, 1.2), (5.0, 1.8)):
        ops.append(Op("continuum_diagonal", lambda e=e, b=beta_b: m.continuum_diagonal(e, b),
                      _rel(lambda e=e, b=beta_b: b * math.exp(-b * e), 1e-9)))
    return ops


# -------------------------------------------------------------- cli_cold


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv, root, env):
    proc = subprocess.run([sys.executable, "-m", "mlcs", *argv], capture_output=True, text=True,
                          env=env, cwd=root, timeout=120)
    return proc.returncode, proc.stdout


Params = namedtuple("Params", "alpha beta gamma k")


@dataclass
class CliOp(Op):
    argv: tuple = ()


def _cli_cold(rng, root):
    # plain records stand in for MLParams: this workload's process never imports mlcs
    def params(anchor=None):
        if anchor is None:
            a = rng.uniform(0.5, 2.5)
            k = a * rng.uniform(0.1, 1.0)
            return Params(a, a * _loguniform(rng, 0.3, 4.0), k * _loguniform(rng, 0.3, 4.0), k)
        return Params(*(v * (1.0 + 0.03 * rng.uniform(-1.0, 1.0)) for v in anchor))

    env = cli_env(root)
    specs = []
    p = params()
    z = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 30.0) * p.alpha / p.k
    specs.append(("ml-eval", ["ml-eval", "--z", _arg(z)] + _param_flags(p),
                  lambda r, p=p, z=z: orc.first_problem(
                      None if r["converged"] else "not converged",
                      orc.check_close(r["value"], float(orc.ml_value(p, z)), 1e-11))))
    p = params()
    zmod = rng.uniform(0.5, 2.0)
    specs.append(("scan pn", ["scan", "--quantity", "pn", "--zmod", _arg(zmod)] + _param_flags(p),
                  _check_pn(p, zmod)))
    p = params()
    beta_b = rng.uniform(0.5, 1.5)
    specs.append(("scan husimi", ["scan", "--quantity", "husimi", "--x-max", _arg(rng.uniform(4.0, 12.0)),
                                  "--x-steps", "6", "--betaB", _arg(beta_b)] + _param_flags(p),
                  _check_rows(lambda x, p=p, b=beta_b: _husimi_ref(p, x, b), 1e-11)))
    specs.append(("scan nu", ["scan", "--quantity", "nu", "--x-min", _arg(rng.uniform(0.1, 1.0)),
                              "--x-max", _arg(rng.uniform(5.0, 30.0)), "--x-steps", "5"],
                  _check_rows(orc.nu_value, 1e-12)))
    p = params(ANCHORS[0])
    s = p.k / p.alpha * rng.uniform(2.0, 4.0)
    specs.append(("verify laplace", ["verify", "laplace", "--s", _arg(s)] + _param_flags(p),
                  # rhs is ml_laplace's 2F1 series: the series tolerance
                  _check_verify(lambda _s, p=p, s=s: orc.laplace_value(p, s), 1e-9, 1e-11)))
    a_lin, b_quad, beta_b = rng.uniform(0.8, 1.5), rng.uniform(1e-3, 3e-3), rng.uniform(0.8, 1.5)
    specs.append(("verify ansatz", ["verify", "ansatz", "--A", _arg(a_lin), "--B", _arg(b_quad),
                                    "--betaB", _arg(beta_b), "--J", "8"],
                  _check_ansatz_report(a_lin, b_quad, beta_b, 8)))
    return [CliOp(kind, lambda argv=argv: run_cli_subprocess(argv, root, env), _check_cli(check),
                  argv=tuple(argv))
            for kind, argv, check in specs]


def _check_verify(ref_fn, rtol, rhs_rtol):
    report = _check_report(ref_fn, rtol, rhs_rtol)
    return lambda r: orc.first_problem(None if r["passed"] else "verification reported failure", report(r))


def _check_ansatz_report(a_lin, b_quad, beta_b, depth):
    def check(r):
        ansatz = float(orc.resummation(beta_b, a_lin, b_quad, depth))
        direct = orc.boltzmann_direct(beta_b, a_lin, b_quad)
        return orc.first_problem(
            None if r["passed"] else "verification reported failure",
            orc.check_close(r["lhs"][0], ansatz, 1e-11),
            orc.check_close(r["rhs"][0], direct, 1e-12),
        )

    return check
