"""Run one workload in this process and print one JSON line.

Set-up (import, inputs from the seed, one untimed warm-up call of each
operation kind), then whole rounds of the workload's operations until
--seconds have passed, one caller and no think time, then the checks.
Started by run.py; `--setup-only` stops after set-up and reports when it
ended.  Times that cross processes use time.monotonic(), which on Linux is
CLOCK_MONOTONIC and so shared with the parent.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from time import perf_counter

import numpy as np


def fingerprint(out):
    """Exact, comparable image of an operation's output (NaN included)."""
    if isinstance(out, BaseException):
        return ("raised", type(out).__name__, str(out))
    if isinstance(out, np.ndarray):
        return (out.dtype.str, out.shape, out.tobytes())
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, complex):
        return (out.real.hex(), out.imag.hex())
    if isinstance(out, (tuple, list)):
        return tuple(fingerprint(v) for v in out)
    if dataclasses.is_dataclass(out):
        return (type(out).__name__,) + tuple(fingerprint(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, (str, int, bool, type(None))):
        return out
    return repr(out)


def timed_phase(ops, seconds, speed, usage):
    """Whole rounds until `seconds` have passed, with calibration slices in
    between; returns per-operation start and end times, round-0 outputs
    and their fingerprints, the round count, how many outputs of later
    rounds differed from round 0, and the peak resident memory in MB after
    round 0 (later rounds repeat its work; only the benchmark's own timing
    records grow)."""
    starts, ends = [], []
    first, outputs = [], []
    mismatches = 0
    rounds = 0
    speed.tick(force=True)
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            speed.tick()
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failing operation is a measured outcome
                out = exc
            ends.append(perf_counter())
            starts.append(t0)
            fp = fingerprint(out)
            if rounds == 0:
                first.append(fp)
                outputs.append(out)
            elif fp != first[i]:
                mismatches += 1
        if rounds == 0:
            peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
        rounds += 1
        if perf_counter() - start >= seconds:
            speed.tick(force=True)
            return np.array(starts), np.array(ends), outputs, first, rounds, mismatches, peak_rss_mb


def check_outputs(ops, outputs):
    """Reasons, per operation, why its output is rejected (None: accepted)."""
    reasons = []
    for op, out in zip(ops, outputs):
        if isinstance(out, BaseException):
            reasons.append(f"raised {type(out).__name__}: {out}")
            continue
        try:
            reasons.append(op.check(out))
        except Exception as exc:  # a check that cannot read the output rejects it
            reasons.append(f"check could not read the output: {type(exc).__name__}: {exc}")
    return reasons


def _child_seconds(code, env):
    """Median over three runs of `python -c code`; the child prints a float
    or, when it prints nothing, its wall time is used."""
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                             check=True, timeout=120).stdout.strip()
        samples.append(float(out) if out else perf_counter() - t0)
    return statistics.median(samples)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    warnings.simplefilter("ignore")
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = workloads.build(args.workload, args.seed, args.root)
    warm = ops[:1] if args.workload == "cli_cold" else list({op.kind: op for op in reversed(ops)}.values())
    for op in warm:
        try:
            op.call()
        except Exception:  # faulty operations are warmed up too; their errors show in the checks
            pass
    ready = time.monotonic()
    import calibration  # after set-up: it is the benchmark's, not the program's, import

    at_ready = calibration.SpeedLog()
    at_ready.tick(force=True)
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_slices_s": at_ready.took}))
        return 0

    in_process = tracer is not None and args.workload != "cli_cold"
    if in_process:
        tracer.enabled = True
    speed = calibration.SpeedLog()
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    starts, ends, outputs, first, rounds, mismatches, peak_rss_mb = timed_phase(
        ops, args.seconds, speed, usage)
    if tracer is not None:
        tracer.enabled = False

    trace_rounds = rounds
    if tracer is not None and not in_process:
        # the children are not traced: replay the same argv once through cli.main here
        import mlcs.cli

        tracer.enabled = True
        traced_out = [workloads.run_cli_inprocess(mlcs.cli, op.argv) for op in ops]
        tracer.enabled = False
        trace_rounds = 1
        mismatches += sum(fingerprint(o) != f for o, f in zip(traced_out, first))

    reasons = check_outputs(ops, outputs)
    failing = [i for i, r in enumerate(reasons) if r is not None]
    unexpected = [i for i in failing if ops[i].fault is None]
    for i in failing:
        tag = ops[i].fault or "UNEXPECTED"
        print(f"[{args.workload}] {tag} {ops[i].kind}: {reasons[i]}", file=sys.stderr)
    if mismatches:
        print(f"[{args.workload}] {mismatches} outputs differed from round 0", file=sys.stderr)

    raw = ends - starts
    durations = raw * speed.scale(starts)
    round_s = durations.reshape(rounds, len(ops)).sum(axis=1)
    kinds = {}
    for i, d in enumerate(durations):
        kinds.setdefault(ops[i % len(ops)].kind, []).append(d)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ready": ready,
        "ready_slices_s": at_ready.took,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": len(durations),
        "failed": rounds * len(failing),
        "correct": not unexpected and not mismatches,
        "ops_per_s": len(ops) / float(np.median(round_s)),
        "op_p50_ms": float(np.median(durations)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "raw_ops_per_s": len(raw) / math.fsum(raw),
        "raw_op_p50_ms": float(np.median(raw)) * 1e3,
        "calibration_slices": len(speed.took),
        "calibration_median_s": float(np.median(speed.took)),
        "per_kind_p50_ms": {k: float(np.median(v)) * 1e3 for k, v in sorted(kinds.items())},
        "digest": hashlib.sha256(repr(first).encode()).hexdigest(),
    }
    if tracer is not None:
        env = workloads.cli_env(args.root)
        interpreter_s = _child_seconds("pass", env)
        import_s = _child_seconds("import time; t = time.perf_counter(); import mlcs; "
                                  "print(time.perf_counter() - t)", env)
        result["layers"] = tracer.layer_metrics(trace_rounds, interpreter_s, import_s)
        os.makedirs(args.out, exist_ok=True)
        tracer.write_spans(os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.csv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
