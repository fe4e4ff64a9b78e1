"""Canonical output of every builtin scenario against its stored digest.

perfbench/golden.json holds the SHA-256 of report_to_json for each of the
8 builtin scenarios.  Any change to a count, a fit or a verdict changes a
digest, so the canonical output is pinned here as well as in the
benchmark's own exactness gate.
"""

import hashlib
import json
from pathlib import Path

import pytest

from explab.expharness import builtin_scenarios, report_to_json, run_scenario

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text())


def test_golden_covers_every_builtin():
    assert sorted(GOLDEN) == sorted(s.name for s in builtin_scenarios())


@pytest.mark.parametrize("scenario", builtin_scenarios(), ids=lambda s: s.name)
def test_builtin_report_matches_golden_digest(scenario):
    text = report_to_json(run_scenario(scenario))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[scenario.name]
