"""Command-line front end: evaluation (ml-eval), identity verification
(verify {resolution, moments-continuum, laplace, ansatz}) and grid scans
(scan) with machine-readable, byte-deterministic output.

Exit codes: 0 success, 1 invalid input (one-line diagnostic on stderr),
2 verification or convergence failure (the report is still emitted) or a
value beyond float64 (one-line diagnostic).
Floats are printed with 17 significant digits so identical flags always
produce identical bytes; there are no timestamps in the payload.

main runs every command one way: it parses the arguments, calls the
command's handler from _COMMANDS and writes one OutputRecord as JSON or as
the CSV table the handler names; diagnostics (an unconverged series, a failed
check) exit 2, as does a route mismatch.  --help prints the paragraphs above.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field

from .errors import ConvergenceError, DomainError, RouteMismatchError
from .kcore import MLParams

# Each command imports the modules it computes with, so `ml-eval` loads no
# numpy; no module of the package imports scipy.

__all__ = ["OutputRecord", "main", "entry"]

SCHEMA_VERSION = "1"


@dataclass
class OutputRecord:
    """Everything one invocation emits: echoed inputs, results, diagnostics."""

    command: str
    inputs: dict
    results: dict
    diagnostics: list = field(default_factory=list)
    schema_version: str = SCHEMA_VERSION

    def to_json(self) -> str:
        return _canonical_json(vars(self))


def _canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float text, no whitespace drift."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format(float(obj), ".17g") if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(k)}:{_canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(v) -> str:
    """A CSV cell: a string as it is, any other value as its JSON text."""
    return v if isinstance(v, str) else _canonical_json(v)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


_PARAM_FLAGS = ("alpha", "beta", "gamma", "kpar")


def _add_flags(p: _Parser, specs) -> None:
    """The four parameter flags, a --name flag per (name, type, default) of
    specs (required where default is None), then --format."""
    for name, kind, default in [(name, float, 1.0) for name in _PARAM_FLAGS] + specs:
        p.add_argument(f"--{name}", type=kind, default=default, required=default is None)
    p.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache  # parse_args keeps no state on the parser: build it once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="mlcs", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    _add_flags(sub.add_parser("ml-eval", help="evaluate the series function"),
               [("z", float, None), ("rel-tol", float, 1e-12), ("max-terms", int, 10000)])

    p_verify = sub.add_parser("verify", help="run an identity-verification suite")
    p_verify.add_argument("suite", choices=tuple(_SUITES))
    _add_flags(p_verify, [("s-max", int, 8), ("s", float, 2.0), ("e-values", str, "0,0.5,1,2.5,7"),
                          ("A", float, 1.0), ("B", float, 0.05), ("betaB", float, 1.0),
                          ("J", int, 8)])

    p_scan = sub.add_parser("scan", help="tabulate a quantity over a grid")
    p_scan.add_argument("--quantity", required=True, choices=(
        "pn", "husimi", "pfn", "nu", "husimi-cont", "p-cont"))
    _add_flags(p_scan, [("x-min", float, 0.0), ("x-max", float, 10.0), ("x-steps", int, 21),
                        ("zmod", float, 1.0), ("betaB", float, 1.0)])
    return parser


def _params_from(args) -> MLParams:
    return MLParams(args.alpha, args.beta, args.gamma, args.kpar)


def _echo(args, *names) -> dict:
    """The inputs of a record: the parsed value of each named flag."""
    return {name: getattr(args, name) for name in names}


def _ml_eval(args):
    from .mlfunc import EvalConfig, ml_eval

    params = _params_from(args)
    result = ml_eval(params, args.z, EvalConfig(rel_tol=args.rel_tol, max_terms=args.max_terms))
    inputs = _echo(args, *_PARAM_FLAGS, "z", "rel_tol", "max_terms")
    return inputs, asdict(result), [] if result.converged else ["series did not converge"], None


def _resolution(args):
    from .measure import verify_resolution

    return verify_resolution(_params_from(args), args.s_max), _echo(args, *_PARAM_FLAGS, "s_max")


def _laplace(args):
    from .measure import MomentReport
    from .mlfunc import ml_laplace, ml_laplace_quad

    params = _params_from(args)
    closed = ml_laplace(params, args.s)
    report = MomentReport((args.s,), (ml_laplace_quad(params, args.s),), (closed,))
    return report, _echo(args, *_PARAM_FLAGS, "s")


def _moments_continuum(args):
    from .continuum import verify_continuum_moments

    try:
        e_values = [float(tok) for tok in args.e_values.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"--e-values must be comma-separated reals: {exc}")
    if not e_values or any(v < 0 for v in e_values):
        raise DomainError("--e-values must be a nonempty list of E >= 0")
    return verify_continuum_moments(e_values), {"e_values": e_values}


def _ansatz(args):  # the library checks A, B, betaB and J
    from .measure import MomentReport
    from .thermal import (
        QuadraticSpectrum,
        ThermalConfig,
        partition_quadratic,
        partition_quadratic_direct,
    )

    cfg = ThermalConfig(args.betaB, QuadraticSpectrum(args.A, args.B), args.J)
    ansatz = partition_quadratic(cfg).value
    report = MomentReport((float(args.J),), (ansatz,), (partition_quadratic_direct(cfg),))
    return report, _echo(args, "A", "B", "betaB", "J")


# suite -> (the suite, returning (MomentReport, inputs), its tolerance)
_SUITES = {
    "resolution": (_resolution, 1e-6),
    "moments-continuum": (_moments_continuum, 1e-7),
    "laplace": (_laplace, 1e-8),
    "ansatz": (_ansatz, 1e-5),
}


def _verify(args):
    suite, tol = _SUITES[args.suite]
    report, inputs = suite(args)
    passed = report.max_rel_err <= tol
    diagnostics = [] if passed else [
        f"max_rel_err {report.max_rel_err:.3e} exceeds tolerance {tol:.1e}"]
    results = {**report.to_dict(), "tolerance": tol, "passed": passed}
    table = ["s", "lhs", "rhs"], list(zip(report.s_values, report.lhs, report.rhs))
    return inputs, results, diagnostics, table


def _scan(args):
    from .coherent import CSLabel

    quantity = args.quantity
    if quantity == "pn":
        from .coherent import photon_distribution

        dist = photon_distribution(CSLabel(args.zmod), _params_from(args))
        header = ["n", "p"]
        rows = [[n, float(p)] for n, p in enumerate(dist.probs)]
        inputs = _echo(args, "quantity", *_PARAM_FLAGS, "zmod")
    else:
        import numpy as np

        if args.x_steps < 1:
            raise DomainError("--x-steps must be >= 1")
        if args.x_max < args.x_min:
            raise DomainError("--x-max must be >= --x-min")
        if args.x_min < 0:
            raise DomainError("--x-min must be >= 0")
        xs = np.linspace(args.x_min, args.x_max, args.x_steps)
        header = ["x", "value"]
        if quantity in ("husimi", "pfn"):
            from .thermal import LinearSpectrum, ThermalConfig, husimi_q, p_function

            params = _params_from(args)
            cfg = ThermalConfig(args.betaB, LinearSpectrum.from_params(params))
            weight = husimi_q if quantity == "husimi" else p_function
            values = [weight(CSLabel(math.sqrt(x)), params, cfg) for x in xs]
            extra = (*_PARAM_FLAGS, "betaB")
        elif quantity == "nu":
            from .continuum import nu_function

            values = [nu_function(float(x)) for x in xs]
            extra = ()
        else:
            from .continuum import continuum_husimi, continuum_p_function

            weight = continuum_husimi if quantity == "husimi-cont" else continuum_p_function
            values = [weight(CSLabel(math.sqrt(x)), args.betaB) for x in xs]
            extra = ("betaB",)
        rows = [[float(x), float(v)] for x, v in zip(xs, values)]
        inputs = _echo(args, "quantity", *extra, "x_min", "x_max", "x_steps")
    return inputs, {"header": header, "rows": rows}, [], (header, rows)


# command -> (handler, the flag that completes the record's command name); a
# handler returns (inputs, results, diagnostics, CSV table): the table as
# (header, rows), or None for key,value rows of the results
_COMMANDS = {"ml-eval": (_ml_eval, None), "verify": (_verify, "suite"), "scan": (_scan, "quantity")}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        handler, topic = _COMMANDS[args.command]
        inputs, results, diagnostics, table = handler(args)
    except (_UsageError, DomainError, ValueError) as exc:
        print(f"mlcs: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, RouteMismatchError, OverflowError) as exc:
        print(f"mlcs: {exc}", file=sys.stderr)
        return 2
    command = f"{args.command} {getattr(args, topic)}" if topic else args.command
    record = OutputRecord(command, inputs, results, diagnostics)
    if args.format == "json":
        sys.stdout.write(record.to_json() + "\n")
    else:
        header, rows = table or (["key", "value"], sorted(results.items()))
        lines = [",".join(header), *(",".join(map(_csv_cell, row)) for row in rows)]
        sys.stdout.write("\n".join(lines) + "\n")
    return 2 if diagnostics else 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
