"""``tools/bench_pairs.summarize`` on synthetic pairs: the statistics it
records and its reading of the benchmark's no-regression rule."""

import importlib
import os
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture(scope="module")
def tool():
    sys.path.insert(0, TOOLS)  # bench_pairs imports its sibling readme_outputs
    try:
        return importlib.import_module("bench_pairs")
    finally:
        sys.path.remove(TOOLS)


def pairs(name, parent, change):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


LOWER = {"name": "job_ms_p50", "better": "lower", "bound": 0.25}
HIGHER = {"name": "jobs_per_s", "better": "higher", "bound": 0.25}
# ten runs with quartiles 98.25 and 101.75 about a median of 100 (inclusive
# method, as ``statistics.quantiles`` computes them)
STEADY = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]


def test_quartiles_and_a_clear_win(tool):
    change = [x - 20 for x in STEADY]
    s = tool.summarize(pairs("job_ms_p50", STEADY, change), [LOWER])["job_ms_p50"]
    assert (s["parent"]["median"], s["change"]["median"]) == (100, 80)
    assert (s["parent"]["q1"], s["parent"]["q3"]) == (98.25, 101.75)
    assert s["parent_iqr"] == 3.5
    assert s["change_better_pairs"] == 10 and s["pairs"] == 10
    assert s["median_ratio_change_over_parent"] == 0.8
    assert s["median_gain_exceeds_parent_iqr"]
    assert s["relative_iqr"] == {"parent": 3.5 / 100, "change": 3.5 / 80}
    assert s["within_bound"] and not s["unresolved"]


@pytest.mark.parametrize("metric,factor,within", [
    (LOWER, 1.2, True), (LOWER, 1.3, False),
    (HIGHER, 0.8, True), (HIGHER, 0.7, False)])
def test_median_against_the_bound(tool, metric, factor, within):
    # worse by 20% stays within a bound of 25%, worse by 30% does not; the
    # parent's spread, 3.5%, is narrower than the bound, so the rule decides
    name = metric["name"]
    change = [factor * x for x in STEADY]
    s = tool.summarize(pairs(name, STEADY, change), [metric])[name]
    assert s["within_bound"] is within
    assert not s["unresolved"]
    assert s["change_better_pairs"] == 0


def test_parent_spread_wider_than_the_bound_is_unresolved(tool):
    # quartiles 73.25 and 127.5 about 100: a relative spread of 0.5425
    parent = [60, 70, 71, 80, 95, 105, 120, 130, 140, 150]
    change = [x - 5 for x in parent]
    change[0] = 61  # one pair lost
    s = tool.summarize(pairs("job_ms_p50", parent, change), [LOWER])["job_ms_p50"]
    assert s["relative_iqr"]["parent"] == pytest.approx(0.5425)
    assert s["change_better_pairs"] == 9
    assert s["within_bound"]
    assert s["unresolved"]


def test_wide_spread_resolved_only_when_every_change_run_reads_better(tool):
    # winning every pair is not enough: the change's slowest run must beat
    # the parent's fastest
    parent = [60, 70, 71, 80, 95, 105, 120, 130, 140, 150]
    change = [x - 5 for x in parent]
    s = tool.summarize(pairs("job_ms_p50", parent, change), [LOWER])["job_ms_p50"]
    assert s["change_better_pairs"] == 10
    assert s["unresolved"]
    change = [x / 2.6 for x in parent]  # the slowest, 57.7, below 60
    s = tool.summarize(pairs("job_ms_p50", parent, change), [LOWER])["job_ms_p50"]
    assert not s["unresolved"]
    s = tool.summarize(pairs("jobs_per_s", parent, [x * 2.6 for x in parent]),
                       [HIGHER])["jobs_per_s"]
    assert not s["unresolved"]


@pytest.mark.parametrize("shift,lost,met", [
    (20, 0, True),    # every pair, by far more than the parent's spread
    (20, 1, True),    # nine of ten pairs
    (20, 2, False),   # eight of ten pairs
    (3, 0, False),    # every pair, by less than the parent's spread of 3.5
])
def test_claim_rule(tool, shift, lost, met):
    change = [x - shift for x in STEADY]
    for k in range(lost):
        change[k] = STEADY[k]  # a tie counts for neither side
    s = tool.summarize(pairs("job_ms_p50", STEADY, change), [LOWER])["job_ms_p50"]
    assert s["change_better_pairs"] == 10 - lost
    assert s["claim_rule_met"] is met


def test_metrics_without_a_bound_are_not_judged(tool):
    # the README, Tier-1 and per-layer metrics carry no bound
    s = tool.summarize(pairs("wall_s", STEADY, STEADY), [{"name": "wall_s",
                                                         "better": "lower"}])["wall_s"]
    assert s["change_better_pairs"] == 0
    assert not {"bound", "relative_iqr", "within_bound", "unresolved"} & set(s)


def test_printed_summary_gives_the_verdict(tool, capsys):
    wide = [60, 70, 71, 80, 95, 105, 120, 130, 140, 150]
    summary = tool.summarize(pairs("job_ms_p50", STEADY, [1.3 * x for x in STEADY]),
                             [LOWER])
    summary.update(tool.summarize(pairs("jobs_per_s", wide, wide[::-1]), [HIGHER]))
    summary.update(tool.summarize(pairs("wall_s", STEADY, STEADY),
                                  [{"name": "wall_s", "better": "lower"}]))
    tool._print_summary("spectra", summary)
    lines = capsys.readouterr().out.splitlines()
    assert "bound 0.25: WORSE than bound (relative iqr parent 0.035" in lines[0]
    assert "bound 0.25: unresolved" in lines[1]
    assert "bound" not in lines[2]


@pytest.mark.parametrize("last_line,counts", [
    ("1 failed, 534 passed, 1 xfailed, 2 warnings in 30.2s",
     {"passed": 534, "failed": 1, "errors": 0, "xfailed": 1, "xpassed": 0, "skipped": 0}),
    ("530 passed, 3 skipped, 1 xpassed, 2 errors in 29.0s",
     {"passed": 530, "failed": 0, "errors": 2, "xfailed": 0, "xpassed": 1, "skipped": 3}),
])
def test_tier1_counts_read_every_outcome(tool, last_line, counts):
    # an xfail is not read as a failure, and warnings are not counted
    assert tool.pytest_counts(last_line) == counts


DURATIONS_OUTPUT = """\
........................................................................ [ 99%]
....                                                                     [100%]
============================= slowest 5 durations ==============================
4.95s call     tests/test_acceptance.py::test_07_stokes_noise
2.78s call     tests/test_cascade.py::TestSize::test_monotone[a b]
2.47s call     tests/test_optimize.py::test_floor_of_one_is_met_within_the_tolerance[200]
0.51s setup    tests/test_cli.py::TestReadme::test_outputs
0.01s teardown tests/test_cli.py::TestReadme::test_outputs
636 passed in 27.12s
"""


def test_slowest_tests_are_read_from_the_durations_block(tool):
    slowest = tool.slowest_tests(DURATIONS_OUTPUT)
    assert [(t["seconds"], t["phase"]) for t in slowest] == [
        (4.95, "call"), (2.78, "call"), (2.47, "call"), (0.51, "setup"), (0.01, "teardown")]
    assert slowest[0]["test"] == "tests/test_acceptance.py::test_07_stokes_noise"
    assert slowest[1]["test"] == "tests/test_cascade.py::TestSize::test_monotone[a b]"
    # the block does not change the counts of the last line
    last_line = DURATIONS_OUTPUT.strip().splitlines()[-1]
    assert tool.pytest_counts(last_line)["passed"] == 636
    assert tool.slowest_tests("636 passed in 27.12s\n") == []
