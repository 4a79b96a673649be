"""Benchmark of mlcs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Without --workload it runs
all four workloads in turn and prints a line for each.  Run it from the root
of a source tree; it imports mlcs from ./src.  See perfbench/README.md.

Each workload runs in a fresh interpreter (worker.py), one at a time.  With
--trace 0 the workload is set up SETUP_SAMPLES times, each in its own
interpreter, and setup_s is the median; the last of them also runs the
timed phase.  Every run's full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import calibration  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_SAMPLES = 3
BUDGET_S = 170.0  # one workload must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _worker(name, seed, seconds, trace, setup_only, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", ROOT, "--out", OUT]
    if setup_only:
        cmd.append("--setup-only")
    before = calibration.SpeedLog()
    before.tick(force=True)
    spawned = time.monotonic()
    # own session, so that a worker past its budget is stopped with its children
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{name}: worker did not finish within the time budget")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    record = json.loads(stdout.strip().splitlines()[-1])
    setup = record["ready"] - spawned
    # calibration slices taken just before the spawn and by the worker just after set-up
    slices = before.took + record["ready_slices_s"]
    return record, setup, setup * calibration.NOMINAL_S / statistics.median(slices)


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + BUDGET_S
    raw, scaled = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            _, r, s = _worker(name, seed, seconds, 0, True, deadline)
            raw.append(r)
            scaled.append(s)
    record, r, s = _worker(name, seed, seconds, trace, False, deadline)
    raw.append(r)
    scaled.append(s)
    record["raw_setup_samples_s"] = raw
    record["setup_samples_s"] = scaled
    record["setup_s"] = statistics.median(scaled)
    if trace:
        metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in PER_LAYER}
    else:
        metrics = {k: {"value": record[k], "unit": u} for k, u in END_TO_END}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mlcs", "__init__.py")):
        print("run.py: no src/mlcs beside perfbench/; run it from an mlcs source tree", file=sys.stderr)
        return 2
    try:
        if args.workload:
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
            return 0
        results = {}
        for name in NAMES:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in res["metrics"].items())
            print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}  {shown}", flush=True)
            results[name] = res
        print(json.dumps(results))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
