"""The benchmark's own tests: checks reject corrupted outputs, the tail
percentile rule, seeded streams, and metric names against BENCHMARK.json.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

import copy
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402

CATALOG = jobs.catalog()
with open(os.path.join(HERE, "references.json"), "r", encoding="utf-8") as fh:
    REFS = json.load(fh)["entries"]


def first(kind, **match):
    for job_id, entry in CATALOG.items():
        if entry["kind"] == kind and not jobs.is_probe_only(entry) and all(
                entry["params"].get(k) == v for k, v in match.items()):
            return job_id, entry["params"], REFS[job_id]
    raise LookupError(kind)


# (kind, catalog filter, corruption applied to a copy of the valid output)
CORRUPTIONS = [
    ("spectrum", {}, lambda s, p: s.update(abs2_max=1.01, peak_value=1.01)),
    ("spectrum", {}, lambda s, p: s.update(fwhm=s["fwhm"] + 1e-4,
                                           omega_hi=s["omega_hi"] + 1e-4)),
    ("spectrum", {}, lambda s, p: s.update(omega_lo=s["omega_hi"] + 1.0)),
    ("spectrum", {}, lambda s, p: s.update(rows=1200)),
    ("bandwidth_scan", {}, lambda s, p: s["rows"][1].__setitem__(1, s["rows"][1][1] + 1e-4)),
    ("bandwidth_scan", {}, lambda s, p: s["rows"][0].__setitem__(4, math.nan)),
    ("noise", {}, lambda s, p: s.update(int1=s["int1"] * 1.001)),
    ("noise", {}, lambda s, p: s.update(min=-1e-3)),
    ("stokes", {}, lambda s, p: s.update(max=s["max"] * 1.01)),
    ("stokes", {}, lambda s, p: s.update(finite=False)),
    ("integrated_added", {}, lambda s, p: s["value"].__setitem__(0, s["value"][0] * 1.01)),
    ("integrated_added", {}, lambda s, p: s["value"].__setitem__(1, -1.0)),
    ("integrated_stokes", {}, lambda s, p: s.update(value=s["value"] * 1.01)),
    ("loss", {"param": "kappa_int"}, lambda s, p: s["eff"].__setitem__(0, 1.1)),
    ("loss", {"param": "epsilon"}, lambda s, p: s["eff"].__setitem__(
        3, (1 - p["values"][3]) ** (2 * p["n"]) * 1.5)),
    ("loss", {}, lambda s, p: s["eff"].__setitem__(1, s["eff"][1] * 1.001)),
    ("loss", {}, lambda s, p: s["params"].__setitem__(0, s["params"][0] + 0.5)),
    ("backscatter", {}, lambda s, p: s["alpha"].update(alpha=s["alpha"]["alpha"] * 1.01)),
    ("backscatter", {}, lambda s, p: s["eff"].__setitem__(2, math.inf)),
    ("lossy_array", {}, lambda s, p: s.update(sigma_max=1.5)),
    ("lossy_array", {}, lambda s, p: s.update(
        t21_max=(1 - p["epsilon"]) ** (2 * p["n"]) * 2)),
    ("lossy_array", {}, lambda s, p: s.update(site_asymmetry=1e-6)),
    ("lossy_array", {}, lambda s, p: s.update(t21_sum=s["t21_sum"] * 1.01)),
    ("optimize_n2", {}, lambda s, p: s.update(converged=False)),
    ("optimize_n2", {}, lambda s, p: s.update(passband_min=p["min_eff"] - 0.01)),
    ("optimize_n3", {}, lambda s, p: s.update(bandwidth=s["bandwidth"] * 0.9)),
    ("optimize_n3", {}, lambda s, p: s["gamma1"].__setitem__(0, s["gamma1"][0] * 1.1)),
]


@pytest.mark.parametrize("kind,match,corrupt", CORRUPTIONS)
def test_check_rejects_corrupted_output(kind, match, corrupt):
    _, params, ref = first(kind, **match)
    assert checks.check(kind, params, copy.deepcopy(ref), ref) == []
    bad = copy.deepcopy(ref)
    corrupt(bad, params)
    assert checks.check(kind, params, bad, ref) != []


def test_every_kind_has_a_corruption_test():
    assert {c[0] for c in CORRUPTIONS} == {e["kind"] for e in CATALOG.values()}


def test_every_reference_passes_its_own_checks():
    for job_id, ref in REFS.items():
        entry = CATALOG[job_id]
        assert checks.check(entry["kind"], entry["params"], ref, ref) == [], job_id


def test_every_timed_catalog_entry_has_a_reference():
    timed = {i for i, e in CATALOG.items() if not jobs.is_probe_only(e)}
    assert timed == set(REFS)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(100, 0, -1))
    pct, value = run.tail_percentile(values)
    assert pct == 90.0 and value == 90
    assert sum(v > value for v in values) == 10
    pct, value = run.tail_percentile(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile(list(range(1000)))
    assert pct == 99.0 and value == 989


def test_streams_are_seeded_and_cover_every_stratum_once_per_pass():
    for workload, spec in jobs.WORKLOADS.items():
        a = jobs.stream(workload, 7, CATALOG)
        b = jobs.stream(workload, 7, CATALOG)
        passes = [next(a) for _ in range(12)]
        assert passes == [next(b) for _ in range(12)]
        c = jobs.stream(workload, 8, CATALOG)
        assert passes != [next(c) for _ in range(12)]
        for one_pass in passes:
            cells = sorted((CATALOG[i]["kind"], CATALOG[i]["stratum"]) for i in one_pass)
            assert cells == sorted((kind, k) for kind, n in spec["kinds"].items()
                                   for k in range(n))


def test_probe_entries_are_the_ill_conditioned_draws():
    probes = jobs.probe_ids("lossy", CATALOG)
    assert probes
    for job_id in probes:
        assert jobs.loss_ceiling(CATALOG[job_id]["params"]) < jobs.CEILING_FLOOR
    for job_id, entry in CATALOG.items():
        if entry["kind"] in ("backscatter", "lossy_array") and job_id not in probes:
            assert jobs.loss_ceiling(entry["params"]) >= jobs.CEILING_FLOOR


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in bench["workloads"]} <= set(jobs.WORKLOADS)
    records = [{"ms": float(i), "ok": True} for i in range(20)]
    metrics, _ = run.end_to_end(records, 1.0, [0.5])
    assert set(metrics) == set(run.END_TO_END_UNITS)
    extra = {k: 0.0 for k in ("loss.passivity_excess_max", "loss.ill_conditioned_violations",
                              "optimize.import_s", "trace.overhead_ratio")}
    assert set(run.per_layer(SpanTable(Tracer()), extra)) == set(run.PER_LAYER_UNITS)


def test_a_real_job_runs_and_passes():
    run._import_program()
    runner = run.Runner("tests", REFS)
    job_id, _, _ = first("spectrum")
    record = runner.run(job_id)
    assert record["ok"], record.get("error")
    assert record["rc"] == 0 and record["ms"] > 0
