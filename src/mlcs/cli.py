"""Command-line front end: evaluation (ml-eval), identity verification
(verify {resolution, moments-continuum, laplace, ansatz}) and grid scans
(scan) with machine-readable, byte-deterministic output.

Exit codes: 0 success, 1 invalid input (one-line diagnostic on stderr),
2 verification or convergence failure (the report is still emitted) or a
value beyond float64 (one-line diagnostic).
Floats are printed with 17 significant digits so identical flags always
produce identical bytes; there are no timestamps in the payload.
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

__all__ = ["OutputRecord", "cmd_ml_eval", "cmd_verify", "cmd_scan", "main", "entry"]

SCHEMA_VERSION = "1"

VERIFY_TOLERANCES = {
    "resolution": 1e-6,
    "moments-continuum": 1e-7,
    "laplace": 1e-8,
    "ansatz": 1e-5,
}


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


def _format_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        return "null"
    return format(float(v), ".17g")


def _canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float text, no whitespace drift."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _format_float(v)
    return str(v)


def _table_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


_PARAM_FLAGS = ("alpha", "beta", "gamma", "kpar")


def _add_param_flags(p: _Parser):
    for name in _PARAM_FLAGS:
        p.add_argument(f"--{name}", type=float, default=1.0)


@functools.cache  # parse_args keeps no state on the parser: build it once per process
def _build_parser() -> _Parser:
    parser = _Parser(prog="mlcs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("ml-eval", help="evaluate the series function")
    _add_param_flags(p_eval)
    p_eval.add_argument("--z", type=float, required=True)
    p_eval.add_argument("--rel-tol", type=float, default=1e-12)
    p_eval.add_argument("--max-terms", type=int, default=10000)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")

    p_verify = sub.add_parser("verify", help="run an identity-verification suite")
    p_verify.add_argument("suite", choices=tuple(VERIFY_TOLERANCES))
    _add_param_flags(p_verify)
    p_verify.add_argument("--s-max", type=int, default=8)
    p_verify.add_argument("--s", type=float, default=2.0)
    p_verify.add_argument("--e-values", type=str, default="0,0.5,1,2.5,7")
    p_verify.add_argument("--A", type=float, default=1.0)
    p_verify.add_argument("--B", type=float, default=0.05)
    p_verify.add_argument("--betaB", type=float, default=1.0)
    p_verify.add_argument("--J", type=int, default=8)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")

    p_scan = sub.add_parser("scan", help="tabulate a quantity over a grid")
    p_scan.add_argument(
        "--quantity",
        required=True,
        choices=("pn", "husimi", "pfn", "nu", "husimi-cont", "p-cont"),
    )
    _add_param_flags(p_scan)
    p_scan.add_argument("--x-min", type=float, default=0.0)
    p_scan.add_argument("--x-max", type=float, default=10.0)
    p_scan.add_argument("--x-steps", type=int, default=21)
    p_scan.add_argument("--zmod", type=float, default=1.0)
    p_scan.add_argument("--betaB", type=float, default=1.0)
    p_scan.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _params_from(args) -> MLParams:
    return MLParams(args.alpha, args.beta, args.gamma, args.kpar)


def _param_inputs(args) -> dict:
    return {name: getattr(args, name) for name in _PARAM_FLAGS}


def cmd_ml_eval(args) -> tuple[OutputRecord, int]:
    from .mlfunc import EvalConfig, ml_eval

    params = _params_from(args)
    cfg = EvalConfig(rel_tol=args.rel_tol, max_terms=args.max_terms)
    result = ml_eval(params, args.z, cfg)
    inputs = _param_inputs(args)
    inputs.update({"z": args.z, "rel_tol": args.rel_tol, "max_terms": args.max_terms})
    record = OutputRecord(
        command="ml-eval",
        inputs=inputs,
        results=asdict(result),
        diagnostics=[] if result.converged else ["series did not converge"],
    )
    return record, (0 if result.converged else 2)


def _parse_e_values(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"--e-values must be comma-separated reals: {exc}")
    if not values or any(v < 0 for v in values):
        raise DomainError("--e-values must be a nonempty list of E >= 0")
    return values


def cmd_verify(args) -> tuple[OutputRecord, int]:
    tol = VERIFY_TOLERANCES[args.suite]
    diagnostics: list[str] = []

    if args.suite == "resolution":
        from .measure import verify_resolution

        report = verify_resolution(_params_from(args), args.s_max)
        inputs = _param_inputs(args)
        inputs["s_max"] = args.s_max
    elif args.suite == "laplace":
        from .measure import MomentReport
        from .mlfunc import ml_laplace, ml_laplace_quad

        params = _params_from(args)
        closed = ml_laplace(params, args.s)
        quad = ml_laplace_quad(params, args.s)
        report = MomentReport((args.s,), (quad,), (closed,))
        inputs = _param_inputs(args)
        inputs["s"] = args.s
    elif args.suite == "moments-continuum":
        from .continuum import verify_continuum_moments

        e_values = _parse_e_values(args.e_values)
        report = verify_continuum_moments(e_values)
        inputs = {"e_values": e_values}
    else:  # ansatz: the library checks A, B, betaB and J
        from .measure import MomentReport
        from .thermal import (
            QuadraticSpectrum,
            ThermalConfig,
            partition_quadratic,
            partition_quadratic_direct,
        )

        cfg = ThermalConfig(args.betaB, QuadraticSpectrum(args.A, args.B), args.J)
        ansatz = partition_quadratic(cfg, rel_tol=tol)
        direct = partition_quadratic_direct(cfg)
        report = MomentReport((float(args.J),), (ansatz.value,), (direct,))
        inputs = {"A": args.A, "B": args.B, "betaB": args.betaB, "J": args.J}

    passed = report.max_rel_err <= tol
    if not passed:
        diagnostics.append(
            f"max_rel_err {report.max_rel_err:.3e} exceeds tolerance {tol:.1e}"
        )
    results = report.to_dict()
    results["tolerance"] = tol
    results["passed"] = passed
    record = OutputRecord(
        command=f"verify {args.suite}",
        inputs=inputs,
        results=results,
        diagnostics=diagnostics,
    )
    return record, (0 if passed else 2)


def _scan_grid(args):
    """The x grid of a scan, as a numpy array."""
    import numpy as np

    if args.x_steps < 1:
        raise DomainError("--x-steps must be >= 1")
    if args.x_max < args.x_min:
        raise DomainError("--x-max must be >= --x-min")
    if args.x_min < 0:
        raise DomainError("--x-min must be >= 0")
    return np.linspace(args.x_min, args.x_max, args.x_steps)


def cmd_scan(args) -> tuple[OutputRecord, int]:
    from .coherent import CSLabel

    quantity = args.quantity
    inputs = {"quantity": quantity}

    if quantity == "pn":
        from .coherent import photon_distribution

        dist = photon_distribution(CSLabel(args.zmod), _params_from(args))
        header = ["n", "p"]
        rows = [[n, float(p)] for n, p in enumerate(dist.probs)]
        inputs.update(_param_inputs(args))
        inputs["zmod"] = args.zmod
    else:
        xs = _scan_grid(args)
        header = ["x", "value"]
        if quantity in ("husimi", "pfn"):
            from .thermal import LinearSpectrum, ThermalConfig, husimi_q, p_function

            params = _params_from(args)
            cfg = ThermalConfig(args.betaB, LinearSpectrum.from_params(params))
            if quantity == "husimi":
                values = [husimi_q(CSLabel(math.sqrt(x)), params, cfg) for x in xs]
            else:
                values = [p_function(CSLabel(math.sqrt(x)), params, cfg) for x in xs]
            inputs.update(_param_inputs(args))
            inputs["betaB"] = args.betaB
        elif quantity == "nu":
            from .continuum import nu_function

            values = [nu_function(float(x)) for x in xs]
        elif quantity == "husimi-cont":
            from .continuum import continuum_husimi

            values = [continuum_husimi(CSLabel(math.sqrt(x)), args.betaB) for x in xs]
            inputs["betaB"] = args.betaB
        else:  # p-cont
            from .continuum import continuum_p_function

            values = [continuum_p_function(CSLabel(math.sqrt(x)), args.betaB) for x in xs]
            inputs["betaB"] = args.betaB
        rows = [[float(x), float(v)] for x, v in zip(xs, values)]
        inputs.update({"x_min": args.x_min, "x_max": args.x_max, "x_steps": args.x_steps})

    record = OutputRecord(
        command=f"scan {quantity}",
        inputs=inputs,
        results={"header": header, "rows": rows},
    )
    return record, 0


def _emit(record: OutputRecord, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(record.to_json() + "\n")
        return
    results = record.results
    if "rows" in results and "header" in results:
        stream.write(_table_csv(results["header"], results["rows"]))
        return
    if "s_values" in results:
        rows = list(zip(results["s_values"], results["lhs"], results["rhs"]))
        stream.write(_table_csv(["s", "lhs", "rhs"], rows))
        return
    stream.write(_table_csv(["key", "value"], sorted(results.items())))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"mlcs: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "ml-eval":
            record, code = cmd_ml_eval(args)
        elif args.command == "verify":
            record, code = cmd_verify(args)
        else:
            record, code = cmd_scan(args)
    except (DomainError, ValueError) as exc:
        print(f"mlcs: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, RouteMismatchError, OverflowError) as exc:
        print(f"mlcs: {exc}", file=sys.stderr)
        return 2
    _emit(record, args.format, sys.stdout)
    return code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
