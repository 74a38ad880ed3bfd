"""Tests of ``scripts/bench_ab.py``'s summary, on canned result lines; no benchmark runs."""

import json

from bench_ab import summarize

SPEC = {"end_to_end": [
    {"name": "fit_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "eval_peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]}


def result_line(fit_s, rss, correct=True, failed=0):
    """A last line of ``perfbench/run.py --trace 0``."""
    metrics = {"fit_s": {"value": fit_s, "unit": "s"},
               "eval_peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 9, "failed": failed,
                       "metrics": metrics})


def test_medians_quartiles_lower_pairs_and_bound():
    parent = [result_line(1.0 + k / 10, 60.0) for k in range(5)]  # fit_s 1.0 .. 1.4
    change = [result_line(1.3 + k / 10, 59.0 + k / 10) for k in range(5)]
    lines = summarize(SPEC, parent, change)
    assert lines[0] == (
        "fit_s: parent 1.2000 [1.1000, 1.3000] change 1.5000 [1.4000, 1.6000] s; "
        "change lower in 0/5 pairs; WORSE than the bound 0.25 s"
    )
    assert lines[1] == (
        "eval_peak_rss_mb: parent 60.0000 [60.0000, 60.0000] change 59.2000 "
        "[59.1000, 59.3000] MB; change lower in 5/5 pairs; within the bound 0.1 MB"
    )
    assert lines[2] == "runs correct: 10/10; failed operations: 0"


def test_unresolved_when_parent_spread_exceeds_bound():
    parent = [result_line(1.0 + k / 5, 60.0) for k in range(5)]  # fit_s 1.0 .. 1.8
    slower = [result_line(1.1 + k / 5, 60.0) for k in range(5)]
    assert summarize(SPEC, parent, slower)[0] == (
        "fit_s: parent 1.4000 [1.2000, 1.6000] change 1.5000 [1.3000, 1.7000] s; "
        "change lower in 0/5 pairs; unresolved (spread > bound 0.25 s)"
    )
    # every change run beats every parent run: resolved despite the spread
    faster = [result_line(0.5 + k / 10, 60.0) for k in range(5)]
    assert summarize(SPEC, parent, faster)[0].endswith(
        "change lower in 5/5 pairs; within the bound 0.25 s")


def test_failed_runs_counted():
    parent = [result_line(1.0, 60.0), result_line(1.0, 60.0, correct=False, failed=2)]
    change = [result_line(1.0, 60.0), result_line(1.0, 60.0)]
    assert summarize(SPEC, parent, change)[-1] == "runs correct: 3/4; failed operations: 2"
