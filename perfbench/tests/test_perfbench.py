"""Tests of the benchmark's own machinery: span arithmetic, failure
counting and the tracer's install/uninstall.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import explab  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from explab import cli, gridset, polyexpr  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402
from workloads import Op  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("b.child", 5.0, 6.0, 3, 0),
        Span("b.child", 7.5, 9.0, 3, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]
    # Self times of a tree add up to its root's duration.
    assert sum(self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("c", 2.0, 6.0, 0, 0),
        Span("c", 4.0, 8.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def _ops():
    def boom(text):
        raise RuntimeError("oracle crashed")

    return [
        Op("ok", lambda: "1", lambda text: []),
        Op("mismatch", lambda: "2", lambda text: ["2 != 3"]),
        Op("raises", lambda: "3", boom),
        Op("golden", lambda: "4", lambda text: [], golden=worker.digest("not 4")),
    ]


def test_oracle_mismatch_is_counted_not_raised():
    ops = _ops()
    run = worker.run_passes(ops, seconds=0.0)
    bad = worker.verify(ops, run.first)
    assert sorted(bad) == [1, 2, 3]
    assert "oracle raised" in bad[2][0]
    failed, messages = worker.count_failures(ops, run.attempts, bad)
    assert (len(run.attempts), failed) == (4, 3)
    assert any("golden" in m for m in messages)


def test_failed_call_and_changed_output_are_counted():
    outputs = iter(["a", "b"])
    ops = [
        Op("flaky", lambda: next(outputs), lambda text: []),
        Op("error", lambda: 1 / 0, lambda text: []),
    ]
    first = worker.run_passes(ops, seconds=0.0)
    attempts = first.attempts + worker.run_passes(ops, seconds=0.0).attempts
    failed, messages = worker.count_failures(ops, attempts, worker.verify(ops, first.first))
    assert failed == 3  # two ZeroDivisionErrors and one changed output
    assert any("changed between passes" in m for m in messages)


def _snapshot():
    modules = [explab] + [getattr(explab, m) for m in tracer.MODULES]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_traced_run_leaves_module_attributes_unchanged():
    before = _snapshot()
    t = Tracer(explab)
    t.install()
    try:
        assert cli.band_partition is not before[("explab.geomdecomp", "band_partition")]
        assert gridset.interval_range is polyexpr.interval_range
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["whitney", "--region", "poly-pos:x^2 + y^2 - 1/4", "--kmax", "3"]) == 0
        A = gridset.gen_ap(0.5, 0.0, gridset.Scale(6))
        gridset.image_set(polyexpr.parse_poly("x + y"), A, A)
        gridset.energy_count(polyexpr.parse_poly("x + y"), A, A)
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    names = [s.name for s in t.spans]
    assert names[0] == "cli.main"
    assert "geomdecomp.whitney_decompose" in names
    assert "polyexpr.interval_range" in names
    metrics = tracer.layer_metrics(t, passes=1)
    assert metrics["geomdecomp.whitney_decompose.oracle_calls"] > 0
    assert metrics["gridset.image_set.pairs"] == len(A.cells) ** 2
    assert metrics["gridset.pair_table.reuse_frac"] == 0.5
    assert abs(metrics["trace.layer_s"] - sum(s.end - s.start for s in t.spans if s.parent is None)) < 1e-9


def test_missing_target_is_skipped_with_a_note():
    fake = types.SimpleNamespace(
        polyexpr=types.SimpleNamespace(),
        gridset=types.SimpleNamespace(),
        geomdecomp=types.SimpleNamespace(),
        expharness=types.SimpleNamespace(),
        cli=types.SimpleNamespace(main=lambda argv=None: 0),
    )
    t = Tracer(fake)
    t.install()
    assert fake.cli.main([]) == 0
    t.uninstall()
    assert "skipped missing gridset.energy_count" in t.notes
    assert [s.name for s in t.spans] == ["cli.main"]
