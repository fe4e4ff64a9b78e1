"""explab benchmark: one command, named workloads, exact-output gate.

    python3 perfbench/run.py --workload poly_ladder --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing:

* ``wall_s``: one pass over the workload's operations, as the sum of each
  operation's median latency in reference seconds (see ``worker.py``:
  wall clock divided by an adjacent calibration loop, times 5 ms);
* ``op_s_p50``: median latency of one operation, in reference seconds;
* ``setup_s``: median time from spawning a workload process to its first
  timed operation (interpreter start, imports, input generation), over
  several processes spread before and after the measuring one, in
  reference seconds against calibration loops run right after set-up;
* ``peak_rss_mib``: peak resident memory of the measuring process.

``--trace 1`` runs an untraced and then a traced workload process, each
for half of ``--seconds``, and prints per-layer metrics per pass from the
traced one (see ``tracer.py``) together with the tracing overhead.

Every output is checked for exactness after the timed loop (see
``workloads.py``); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give the raw wall-clock medians and tails with sample counts, the failure
fraction and the environment stamp; the full record, raw samples
included, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("poly_ladder", "projection_ladder", "certify_cli")
SETUP_SAMPLES = 9
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, *extra: str) -> dict:
    """Run one workload process and return its JSON result line."""
    launched = time.monotonic()
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--launched", repr(launched),
        *extra,
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("workload process ran past the benchmark deadline")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    index = n - 11
    return {"pct": 100.0 * (index + 1) / n, "value": sorted(samples)[index]}


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    git_sha = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):  # the benchmark may run from a plain export
        with open(head, encoding="utf-8") as fh:
            git_sha = fh.read().strip()
        if git_sha.startswith("ref: "):
            ref = os.path.join(ROOT, ".git", git_sha[5:])
            git_sha = None
            if os.path.isfile(ref):
                with open(ref, encoding="utf-8") as fh:
                    git_sha = fh.read().strip()
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "explab", "*.py"))):
        with open(path, "rb") as fh:
            source.update(fh.read())
    return {
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def ref_pass(run: dict) -> float:
    """One pass in reference seconds: the sum of each operation's median."""
    return sum(statistics.median(samples) for samples in run["op_ref_s"])


def end_to_end(args, deadline: float) -> tuple:
    # Set-up samples are taken before and after the measuring process so
    # their median spans the whole run.
    setups = [spawn(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES // 2)]
    run = spawn(args, deadline, "--seconds", str(args.seconds))
    setups.append(run)
    setups += [spawn(args, deadline, "--setup-only") for _ in range(SETUP_SAMPLES // 2)]
    metrics = {
        "wall_s": (ref_pass(run), "s"),
        "op_s_p50": (statistics.median(t for op in run["op_ref_s"] for t in op), "s"),
        "setup_s": (statistics.median(r["setup_ref_s"] for r in setups), "s"),
        "peak_rss_mib": (run["peak_rss_kib"] / 1024.0, "MiB"),
    }
    run["setup_samples"] = [{k: r[k] for k in ("setup_s", "setup_ref_s")} for r in setups]
    return metrics, [run]


LAYER_UNITS = {
    "pairs": "count", "cells": "count", "calls": "count", "requests": "count",
    "enclosures": "count", "oracle_calls": "count", "us_per_pair": "us/pair",
    "us_per_cell": "us/cell", "us_per_call": "us/call", "hit_frac": "ratio",
    "reuse_frac": "ratio", "accounted_frac": "ratio",
}


def per_layer(args, deadline: float) -> tuple:
    half = str(args.seconds / 2.0)
    plain = spawn(args, deadline, "--seconds", half)
    traced = spawn(args, deadline, "--seconds", half, "--trace")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = ref_pass(traced) - ref_pass(plain)
    op_wall = sum(sum(op) for op in traced["op_s"]) / len(traced["pass_s"])
    layers["trace.accounted_frac"] = layers.pop("trace.layer_s") / op_wall
    metrics = {
        name: (value, LAYER_UNITS.get(name.rsplit(".", 1)[1], "s"))
        for name, value in layers.items()
    }
    return metrics, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "explab", "__init__.py")):
        print(f"explab sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        metrics, runs = (per_layer if args.trace else end_to_end)(args, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": dict(environment(args.seed), numpy=runs[0]["numpy"]),
        "sizes": runs[0]["sizes"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "runs": runs,
    }
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for run in runs:
        samples = {
            "pass wall clock": run["pass_s"],
            "operation wall clock": [t for op in run["op_s"] for t in op],
            "operation reference": [t for op in run["op_ref_s"] for t in op],
        }
        for what, values in samples.items():
            t = tail(values)
            extra = f", p{t['pct']:.0f} = {t['value']:.6g} s" if t else ", no percentile has 10 samples beyond it"
            print(f"{what}: n = {len(values)}, median = {statistics.median(values):.6g} s{extra}")
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} attempts)")
    for message in [m for r in runs for m in r["failures"]][:20]:
        print(f"FAILURE {message}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"sizes: {json.dumps(record['sizes'])}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    correct = failed == 0 and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
