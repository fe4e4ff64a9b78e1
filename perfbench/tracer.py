"""Outside-in tracer for the explab benchmark.

Spans are recorded around calls into explab's public functions by
replacing those functions at every explab module attribute that holds
them (``cli.band_partition`` as well as ``geomdecomp.band_partition``),
so no line of the program itself changes.  The wrappers exist only
between ``install`` and ``uninstall`` of a traced worker; an untraced
run never imports this module.

Private helpers and names that the ROADMAP schedules for deletion are
never wrapped (``_pair_interval_table``, ``exponent_regression``,
``polyexpr.partial``, ``gridset.refine``, ``nonconcentration_exponent_2d``),
so their time lands in the caller's self time.  A target missing from
the program is skipped with a note instead of failing the run.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

MODULES = ("polyexpr", "gridset", "geomdecomp", "expharness", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One public function to wrap.

    ``describe(args, kwargs, result)`` returns work counters for the span;
    ``name_for(args, kwargs)`` may refine the span name per call.
    """

    module: str
    attr: str
    name: str
    describe: Optional[Callable] = None
    name_for: Optional[Callable] = None


def _pairs(args, kwargs, result):
    return {"pairs": len(args[1].cells) * len(args[2].cells)}


def _energy_name(args, kwargs):
    hf_min = kwargs.get("hf_min", args[3] if len(args) > 3 else None)
    return "gridset.energy_count" if hf_min is None else "gridset.energy_count_hf"


def _nonconc_cells(args, kwargs, result):
    return {"cells": len(args[0].cells)}


def _preimage(args, kwargs, result):
    window, scale = args[2], args[3]
    d = scale.delta
    width = _floor(window.x1 / d) - _ceil(window.x0 / d)
    height = _floor(window.y1 / d) - _ceil(window.y0 / d)
    tested = max(0, width) * max(0, height)
    return {"cells": tested, "hits": len(result.cells)}


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _map_image(args, kwargs, result):
    return {"cells": len(args[1].cells)}


TARGETS = (
    Target("gridset", "energy_count", "gridset.energy_count", _pairs, _energy_name),
    Target("gridset", "image_set", "gridset.image_set", _pairs),
    Target("gridset", "nonconcentration_exponent", "gridset.nonconc", _nonconc_cells),
    Target("gridset", "fit_exponent", "gridset.fit_exponent"),
    Target("gridset", "gen_ap", "gridset.gen"),
    Target("gridset", "gen_cantor", "gridset.gen"),
    Target("geomdecomp", "preimage_cells", "geomdecomp.preimage_cells", _preimage),
    Target("geomdecomp", "map_image", "geomdecomp.map_image", _map_image),
    Target("geomdecomp", "band_partition", "geomdecomp.band_partition"),
    Target("geomdecomp", "whitney_decompose", "geomdecomp.whitney_decompose"),
    Target("geomdecomp", "select_level", "geomdecomp.select_level"),
    Target("geomdecomp", "zero_nbhd_covering", "geomdecomp.zero_nbhd_covering"),
    Target("polyexpr", "interval_range", "polyexpr.interval_range"),
    Target("polyexpr", "classify_special_form", "polyexpr.symbolic"),
    Target("polyexpr", "mp_numerator", "polyexpr.symbolic"),
    Target("polyexpr", "hf_poly", "polyexpr.symbolic"),
    Target("polyexpr", "hf_general", "polyexpr.symbolic"),
    Target("polyexpr", "parse_poly", "polyexpr.parse_poly"),
    Target("expharness", "run_scenario", "expharness.run_scenario"),
    Target("expharness", "report_to_json", "expharness.report_to_json"),
    Target("cli", "main", "cli.main"),
)

PAIR_TABLE_SPANS = ("gridset.energy_count", "gridset.energy_count_hf", "gridset.image_set")


class Tracer:
    """Holds spans in memory; ``install`` wraps the targets in place."""

    def __init__(self, package):
        self.package = package
        self.spans: List[Span] = []
        self.notes: List[str] = []
        self.op = 0
        self._stack: List[int] = []
        self._saved: list = []
        self._tabled: Dict[tuple, set] = {}
        self.pair_calls = 0
        self.pair_reused = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [getattr(self.package, m, None) for m in MODULES]
        modules = [self.package] + [m for m in modules if m is not None]
        for target in TARGETS:
            home = getattr(self.package, target.module, None)
            original = getattr(home, target.attr, None) if home else None
            if not callable(original):
                self.notes.append(f"skipped missing {target.module}.{target.attr}")
                continue
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def begin_op(self, op: int) -> None:
        self.op = op
        self._tabled.clear()

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            name = target.name_for(args, kwargs) if target.name_for else target.name
            if name in PAIR_TABLE_SPANS:
                tracer._guard(tracer._note_pair_table, args)
            if name == "geomdecomp.whitney_decompose":
                args, counter = _count_oracle_calls(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, tracer.op)
            if target.describe:
                spans[index].attrs = tracer._guard(target.describe, args, kwargs, result) or {}
            if name == "geomdecomp.whitney_decompose":
                spans[index].attrs = {"oracle_calls": counter[0]}
            return result

        traced.__wrapped__ = fn
        return traced

    def _guard(self, fn, *args):
        """Counters read positional arguments; a call shaped otherwise is
        noted and left uncounted rather than failing the traced run."""
        try:
            return fn(*args)
        except (IndexError, AttributeError, TypeError) as exc:
            self.notes.append(f"uncounted call: {fn.__name__}: {exc!r}")
            return None

    def _note_pair_table(self, args) -> None:
        """Count a pair-table call as reused when the same (P, A, B) was
        already tabled at the same scale within the current operation."""
        P, A, B = args[0], args[1], args[2]
        seen = self._tabled.setdefault(A.scale.k, set())
        key = (tuple(sorted(P.terms.items())), A.cells, B.cells)
        self.pair_calls += 1
        if key in seen:
            self.pair_reused += 1
        seen.add(key)

    # -- output ---------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.attrs]))
                fh.write("\n")


def _count_oracle_calls(args):
    counter = [0]
    omega = args[0]

    def counted(square):
        counter[0] += 1
        return omega(square)

    return (counted,) + tuple(args[1:]), counter


def self_times(spans: List[Span]) -> List[float]:
    """Span duration minus the part of its interval its children cover."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c].start):
            lo = max(spans[child].start, cursor)
            hi = min(spans[child].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _descendants_named(spans: List[Span], name: str) -> Dict[int, int]:
    """For every span, how many spans called ``name`` lie below it."""
    counts: Dict[int, int] = {}
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None:
            counts[parent] = counts.get(parent, 0) + 1
            parent = spans[parent].parent
    return counts


def layer_metrics(tracer: Tracer, passes: int, scale=None) -> Dict[str, float]:
    """Per-layer metrics per pass: self seconds, inclusive seconds where
    a layer also reports ``self_s``, work counts and rates on that count.

    ``scale[op]`` converts the seconds of operation ``op`` to reference
    seconds; ``trace.layer_s`` stays in wall-clock seconds."""
    spans = tracer.spans
    selfs = self_times(spans)
    enclosures = _descendants_named(spans, "polyexpr.interval_range")
    totals: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        factor = scale[span.op] if scale else 1.0
        acc = totals.setdefault(span.name, {"self": 0.0, "incl": 0.0, "calls": 0})
        acc["self"] += selfs[index] * factor
        acc["incl"] += (span.end - span.start) * factor
        acc["calls"] += 1
        for key, value in span.attrs.items():
            acc[key] = acc.get(key, 0) + value
        if span.name == "geomdecomp.band_partition":
            acc["enclosures"] = acc.get("enclosures", 0) + enclosures.get(index, 0)

    def get(name, key):
        return totals.get(name, {}).get(key, 0) / passes

    def rate(name, key):
        work = get(name, key)
        return get(name, "self") * 1e6 / work if work else 0.0

    m: Dict[str, float] = {}
    for name, unit in (
        ("gridset.energy_count", "pairs"),
        ("gridset.image_set", "pairs"),
        ("gridset.energy_count_hf", "pairs"),
        ("gridset.nonconc", "cells"),
        ("geomdecomp.map_image", "cells"),
    ):
        m[f"{name}.s"] = get(name, "self")
        m[f"{name}.{unit}"] = get(name, unit)
        m[f"{name}.us_per_{unit[:-1]}"] = rate(name, unit)
    m["gridset.pair_table.reuse_frac"] = (
        tracer.pair_reused / tracer.pair_calls if tracer.pair_calls else 0.0
    )
    m["gridset.fit_exponent.s"] = get("gridset.fit_exponent", "self")
    m["gridset.gen.s"] = get("gridset.gen", "self")
    pre = "geomdecomp.preimage_cells"
    m[f"{pre}.s"] = get(pre, "self")
    m[f"{pre}.cells"] = get(pre, "cells")
    m[f"{pre}.us_per_cell"] = rate(pre, "cells")
    m[f"{pre}.hit_frac"] = get(pre, "hits") / get(pre, "cells") if get(pre, "cells") else 0.0
    band = "geomdecomp.band_partition"
    m[f"{band}.s"] = get(band, "incl")
    m[f"{band}.self_s"] = get(band, "self")
    m[f"{band}.enclosures"] = get(band, "enclosures")
    m["geomdecomp.whitney_decompose.s"] = get("geomdecomp.whitney_decompose", "self")
    m["geomdecomp.whitney_decompose.oracle_calls"] = get(
        "geomdecomp.whitney_decompose", "oracle_calls"
    )
    m["geomdecomp.select_level.s"] = get("geomdecomp.select_level", "self")
    m["geomdecomp.zero_nbhd_covering.s"] = get("geomdecomp.zero_nbhd_covering", "self")
    ir = "polyexpr.interval_range"
    m[f"{ir}.s"] = get(ir, "self")
    m[f"{ir}.calls"] = get(ir, "calls")
    m[f"{ir}.us_per_call"] = rate(ir, "calls")
    m["polyexpr.symbolic.s"] = get("polyexpr.symbolic", "self")
    m["polyexpr.symbolic.calls"] = get("polyexpr.symbolic", "calls")
    m["polyexpr.parse_poly.s"] = get("polyexpr.parse_poly", "self")
    m["expharness.run_scenario.self_s"] = get("expharness.run_scenario", "self")
    m["expharness.report_to_json.s"] = get("expharness.report_to_json", "self")
    m["cli.self_s"] = get("cli.main", "self")
    m["cli.requests"] = get("cli.main", "calls")
    m["trace.layer_s"] = sum(selfs) / passes
    return m
