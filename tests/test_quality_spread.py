"""The per-report summary of tools/quality_spread.py, on a hand-made report."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from quality_spread import report_summary  # noqa: E402


def _step(sweep, admitted, aborted):
    return {
        "sweep": sweep,
        "n_converged_new": admitted,
        "outcomes": {"aborted": aborted, "trqi_failed": 0, "keep_cut": 1,
                     "duplicate": 2, "admitted": admitted},
    }


def test_report_summary_sums_outcomes_and_finds_the_last_admitting_sweep():
    report = {
        "sweeps_run": 4,
        "steps": [_step(1, 2, 5), _step(1, 0, 3), _step(2, 1, 4), _step(3, 0, 6), _step(4, 0, 1)],
    }
    assert report_summary(report) == {
        "sweeps_run": 4,
        "last_admitting_sweep": 2,
        "outcomes": {"aborted": 19, "trqi_failed": 0, "keep_cut": 5, "duplicate": 10,
                     "admitted": 3},
    }


def test_report_summary_of_a_solve_that_admits_nothing():
    report = {"sweeps_run": 5, "steps": [_step(s, 0, 2) for s in range(1, 6)]}
    summary = report_summary(report)
    assert summary["last_admitting_sweep"] == 0
    assert summary["outcomes"]["admitted"] == 0
    assert summary["outcomes"]["aborted"] == 10
