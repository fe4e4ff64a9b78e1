"""One workload process of the explab benchmark.

Started by ``run.py``; imports explab from the checkout's ``src``, builds
the workload's inputs from the seed, runs passes over its operations in a
closed loop for about ``--seconds``, then checks every output outside the
timed region and prints one JSON result line.

    python3 perfbench/worker.py --workload poly_ladder --seed 1 \
        --seconds 20 --launched <time.monotonic() at spawn> [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")

Attempt = Tuple[int, Optional[str], Optional[str]]  # op index, output digest, error


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# A shared virtual machine (measured on 2 vCPUs of an Intel Xeon) can
# alternate between two speeds about 2x apart for stretches of seconds
# to minutes, so raw wall clock spreads by tens of percent between runs.
# Every operation is therefore also timed against a fixed pure-Python
# calibration loop run just before and just after it; its latency in
# reference seconds is its wall clock divided by the mean of those two
# loop times, times REFERENCE_S.
REFERENCE_S = 0.005


def calibrate() -> float:
    """Wall clock of a fixed loop of Fraction and dict work, the kind of
    work explab's kernels do."""
    start = time.perf_counter()
    total, counts = Fraction(0), {}
    for i in range(1, 1200):
        total += Fraction(1, i % 61 + 1) * Fraction(i, 7)
        counts[i % 17] = counts.get(i % 17, 0) + i
    return time.perf_counter() - start


@dataclass
class Passes:
    pass_s: List[float] = field(default_factory=list)
    op_s: List[List[float]] = field(default_factory=list)  # per operation, one per pass
    op_ref_s: List[List[float]] = field(default_factory=list)  # the same in reference seconds
    scale: List[float] = field(default_factory=list)  # reference seconds per second, per attempt
    attempts: List[Attempt] = field(default_factory=list)
    first: Dict[int, str] = field(default_factory=dict)  # first output of every operation


def run_passes(ops, seconds: float, tracer=None) -> Passes:
    """Closed loop over whole passes; stops once another pass would end
    after ``seconds``.  Attempt ``i`` is traced as operation ``i``."""
    run = Passes(op_s=[[] for _ in ops], op_ref_s=[[] for _ in ops])
    clock = time.perf_counter
    began = clock()
    while True:
        outputs = []
        pass_start = clock()
        before = calibrate()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(len(run.attempts) + index)
            start = clock()
            try:
                out, error = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, f"{op.name}: {exc!r}"
            elapsed = clock() - start
            after = calibrate()
            scale = 2 * REFERENCE_S / (before + after)
            before = after
            run.op_s[index].append(elapsed)
            run.op_ref_s[index].append(elapsed * scale)
            run.scale.append(scale)
            outputs.append((index, out, error))
        run.pass_s.append(clock() - pass_start)
        for index, out, error in outputs:
            run.attempts.append((index, None if out is None else digest(out), error))
            if out is not None:
                run.first.setdefault(index, out)
        if clock() - began + statistics.median(run.pass_s) > seconds:
            return run


def verify(ops, first: Dict[int, str]) -> Dict[int, List[str]]:
    """Oracle and golden-digest mismatches per operation.  An oracle that
    raises is a mismatch too: nothing here may end the run."""
    bad: Dict[int, List[str]] = {}
    for index, out in sorted(first.items()):
        op = ops[index]
        try:
            errors = list(op.check(out))
        except Exception as exc:
            errors = [f"oracle raised {exc!r}"]
        if op.golden is not None and digest(out) != op.golden:
            errors.append("canonical digest differs from the golden digest")
        if errors:
            bad[index] = errors
    return bad


def count_failures(ops, attempts: List[Attempt], bad: Dict[int, List[str]]) -> Tuple[int, List[str]]:
    """An attempt fails when it raised, when its operation failed an oracle,
    or when its output differs from that operation's first output."""
    reference: Dict[int, str] = {}
    for index, out_digest, _ in attempts:
        if out_digest is not None:
            reference.setdefault(index, out_digest)
    failed = 0
    messages = [f"{ops[i].name}: {m}" for i, errors in sorted(bad.items()) for m in errors]
    for index, out_digest, error in attempts:
        if error is not None:
            messages.append(error)
        elif out_digest != reference[index]:
            messages.append(f"{ops[index].name}: output changed between passes")
        elif index not in bad:
            continue
        failed += 1
    return failed, messages


def import_explab():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import explab

    expected = os.path.join(ROOT, "src", "explab")
    if os.path.dirname(os.path.abspath(explab.__file__)) != expected:
        raise SystemExit(f"explab imported from {explab.__file__}, not from {expected}")
    return explab


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    explab = import_explab()
    import numpy
    import workloads

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - args.launched
        # Set-up in reference seconds too, against loops run right after it.
        setup_ref_s = setup_s * REFERENCE_S / statistics.median(calibrate() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
            return 0

        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer(explab)
            tracer.install()
        try:
            run = run_passes(workload.ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        # The gate runs once after the timed loop, e.g. a builtin scenario
        # against its golden digest; its attempts count like any other.
        all_ops = workload.ops + workload.gate
        offset = len(workload.ops)
        gate = run_passes(workload.gate, 0.0)
        attempts = run.attempts + [(offset + i, d, e) for i, d, e in gate.attempts]
        first = {**run.first, **{offset + i: out for i, out in gate.first.items()}}
        failed, messages = count_failures(all_ops, attempts, verify(all_ops, first))
        result = {
            "setup_s": setup_s,
            "setup_ref_s": setup_ref_s,
            "pass_s": run.pass_s,
            "op_s": run.op_s,
            "op_ref_s": run.op_ref_s,
            "attempted": len(attempts),
            "failed": failed,
            "failures": messages[:50],
            "gate": [op.name for op in workload.gate],
            "peak_rss_kib": rss_kib,
            "sizes": workload.sizes(),
            "numpy": numpy.__version__,
        }
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer, len(run.pass_s), run.scale)
            result["notes"] = sorted(set(tracer.notes))
            spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(spans_path)
            result["spans_file"] = os.path.relpath(spans_path, ROOT)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
