"""oemarray benchmark: seeded closed-loop job streams, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Workloads: spectra, noise, lossy, optimize (see ``jobs.WORKLOADS``).  One
client issues jobs back to back: a fixed number of passes (see ``jobs.py``)
that took about ``--seconds`` seconds at the commit that defined the
benchmark, and at least ``MIN_JOBS`` jobs.  Every job's output is checked
(``checks.py``); a job that raises, exits nonzero or fails a check counts as
failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` issues half the
passes and runs every job twice, untraced and traced in alternating order,
reports the tracing overhead from the pairs, then runs one job of each kind
of the other workloads traced and the lossy probe entries untimed, and
prints the per-layer metrics computed from the spans.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full report (the
environment, the job list with each job's latency and check result, and
every metric) is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import envinfo  # noqa: E402
import jobs  # noqa: E402
from tracing import SpanTable, Tracer  # noqa: E402

MIN_JOBS = 11
SETUP_REPS = 3

END_TO_END_UNITS = {"job_ms_p50": "ms", "job_ms_tail": "ms", "jobs_per_s": "1/s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "oemarray", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/oemarray")
    sys.path.insert(0, SRC)
    import oemarray
    import oemarray.cli
    if not os.path.abspath(oemarray.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported oemarray from {oemarray.__file__}, "
                         f"not from {SRC}")
    return oemarray


class Runner:
    """Runs catalog jobs, times them, checks their output."""

    def __init__(self, workload: str, refs: dict, tracer: Tracer | None = None):
        import oemarray.cli
        self.cli_main = oemarray.cli.main
        self.workload = workload
        self.catalog = jobs.catalog()
        self.refs = refs
        self.last_summary = None
        self.outdir = os.path.join(OUT, workload)
        os.makedirs(self.outdir, exist_ok=True)
        self.tracer = tracer
        self.check_seconds = 0.0

    def run(self, job_id: str, workload: str | None = None, traced: bool = False,
            use_ref: bool = True) -> dict:
        entry = self.catalog[job_id]
        kind, params = entry["kind"], entry["params"]
        prefix = os.path.join(self.outdir, kind)
        cli_main = self.cli_main
        if traced:
            self.tracer.install()
            self.tracer.begin_job(job_id, workload or self.workload)
            cli_main = lambda argv: self.tracer.call("cli.main", self.cli_main, argv)  # noqa: E731
        thunk = jobs.prepare(kind, params, prefix, cli_main)
        error = None
        t0 = time.perf_counter()
        try:
            rc, result = thunk()
        except Exception as exc:  # a failed job is counted, not fatal
            rc, result, error = None, None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        if traced:
            self._trace_extras(kind, params)
            self.tracer.end_job()
            self.tracer.uninstall()

        t1 = time.perf_counter()
        record = {"id": job_id, "kind": kind, "ms": 1e3 * latency, "rc": rc}
        if error is None and rc != 0:
            error = f"exit code {rc}"
        summary = None
        if error is None:
            try:
                summary = jobs.summarize(kind, params, prefix, result)
                errs = checks.check(kind, params, summary,
                                    self.refs.get(job_id) if use_ref else None)
                error = "; ".join(errs) or None
            except Exception as exc:
                error = f"output unreadable: {type(exc).__name__}: {exc}"
        record["ok"] = error is None
        if error is not None:
            record["error"] = error
        self.last_summary = summary
        if summary is not None:
            excess = checks.passivity_excess(kind, summary)
            if excess is not None:
                record["passivity_excess"] = excess
        self.check_seconds += time.perf_counter() - t1
        return record

    def _trace_extras(self, kind: str, p: dict) -> None:
        """Layer calls on the job's own inputs that its run does not make
        through a public function."""
        import oemarray as oe
        if kind == "noise":
            config = oe.ArrayConfig(n_sites=p["n"], profile=oe.CouplingProfile.tanh(p["g"]),
                                    gamma=jobs.GAMMA_M, n_bar=jobs.N_BAR)
            sites = oe.materialize_sites(config)
            w = oe.FrequencyGrid(-2.0, 2.0, 2001).points()
            for j in range(1, len(sites) + 1):
                oe.noise.noise_coupling_vector(sites, j, w)
        elif kind.startswith("optimize"):
            problem = oe.OptimizationProblem(n_sites=p["n"], gamma_total=p["gamma_total"],
                                             min_efficiency=p["min_eff"])
            self.tracer.call("bench.optimize_workers1", oe.optimize.optimize_couplings,
                             problem, n_random_starts=3, seed=97, workers=1)


def run_stream(runner: Runner, seed: int, seconds: float, paired: bool) -> tuple:
    """Closed loop over the run's passes; returns the job records and the
    time the client spent waiting on the program."""
    records = []
    passes = jobs.stream(runner.workload, seed, runner.catalog)
    runner.check_seconds = 0.0
    start = time.perf_counter()
    # a paired run executes every job twice, so it issues half the passes
    n_passes = jobs.passes_per_run(runner.workload, seconds / 2 if paired else seconds,
                                   MIN_JOBS)
    for _ in range(n_passes):
        for job_id in next(passes):
            if paired:
                traced_first = len(records) % 2 == 1
                first = runner.run(job_id, traced=traced_first)
                second = runner.run(job_id, traced=not traced_first)
                plain, traced = (second, first) if traced_first else (first, second)
                plain["traced_ms"] = traced["ms"]
                plain["ok"] = plain["ok"] and traced["ok"]
                if not traced["ok"]:
                    plain["error"] = "traced run: " + traced.get("error", "")
                records.append(plain)
            else:
                records.append(runner.run(job_id))
    return records, time.perf_counter() - start - runner.check_seconds


def end_to_end(records: list, wall: float, setup: list) -> tuple:
    ms = [r["ms"] for r in records]
    passed = sum(r["ok"] for r in records)
    pct, tail = tail_percentile(ms)
    return {
        "job_ms_p50": statistics.median(ms),
        "job_ms_tail": tail,
        "jobs_per_s": passed / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"tail_percentile": pct, "jobs": len(ms),
        "failed_ratio": (len(ms) - passed) / len(ms), "wall_s": wall}


# ---------------------------------------------------------------------------
# per-layer metrics from spans

PER_LAYER_UNITS = {
    "core.materialize_us_per_site": "us",
    "transducer.full_ns_per_site_point": "ns",
    "transducer.full_scalar_us_per_site": "us",
    "transducer.bogoliubov_ns_per_site_point": "ns",
    "transducer.eliminated_ns_per_site_point": "ns",
    "cascade.sweep_ms": "ms",
    "cascade.sweep_self_ns_per_site_point": "ns",
    "cascade.refine_ms": "ms",
    "cascade.refine_calls": "count",
    "cascade.refine_share": "ratio",
    "cascade.export_ms": "ms",
    "noise.coupling_ns_per_site_point": "ns",
    "noise.added_ns_per_site_point": "ns",
    "noise.added_int_ms": "ms",
    "noise.stokes_ns_per_site_point": "ns",
    "noise.stokes_int_ms": "ms",
    "noise.export_ms": "ms",
    "loss.site_ns_per_site_point": "ns",
    "loss.convert_ns_per_site_point": "ns",
    "loss.sweep_ms": "ms",
    "loss.assembly_ns_per_site_point": "ns",
    "loss.envelope_ms": "ms",
    "loss.passivity_excess_max": "ratio",
    "loss.ill_conditioned_violations": "count",
    "optimize.evaluations": "count",
    "optimize.us_per_evaluation": "us",
    "optimize.search_ms": "ms",
    "optimize.finalize_ms": "ms",
    "optimize.fit_ms": "ms",
    "optimize.pool_speedup": "ratio",
    "optimize.import_s": "s",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else math.nan


def per_layer(t: SpanTable, extra: dict) -> dict:
    """Per-layer metrics, each from the jobs of the workload where it should
    move an end-to-end metric."""
    sel = t.select

    def children_of(parent_mask):
        return np.isin(t.parent, np.flatnonzero(parent_mask))

    def mean_ms(mask):
        return _ratio(1e3 * t.dur[mask].sum(), mask.sum())

    def per_site_point(mask, time=t.dur, scale=1e9):
        return _ratio(scale * time[mask].sum(), (t.sites[mask] * t.points[mask]).sum())

    full = sel("transducer.scattering_full", "spectra")
    materialize = sel("core.materialize_sites", "spectra")
    sweep = sel("cascade.array_transfer", "spectra") & (t.points > 1)
    refine = sel("cascade.extract_bandwidth", "spectra")
    spectra_jobs = sel("cli.main", "spectra")
    convert = sel("loss.scatter_to_transfer", "lossy")
    convert_back = sel("loss.transfer_to_scatter", "lossy")
    opt = sel("optimize.optimize_couplings", "optimize")
    opt_cli = opt & children_of(sel("cli.main", "optimize"))
    opt_one = opt & children_of(sel("bench.optimize_workers1", "optimize"))
    finalize = sel("optimize.eliminated_bandwidth", "optimize") & children_of(opt_cli)
    exports = sel("noise.noise_to_csv", "noise") | sel("noise.stokes_to_csv", "noise")

    m = {
        "core.materialize_us_per_site": _ratio(1e6 * t.dur[materialize].sum(),
                                               t.sites[materialize].sum()),
        "transducer.full_ns_per_site_point": per_site_point(full & (t.points > 1)),
        "transducer.full_scalar_us_per_site": 1e3 * mean_ms(full & (t.points == 1)),
        "transducer.bogoliubov_ns_per_site_point": per_site_point(
            sel("transducer.scattering_bogoliubov", "noise")),
        "transducer.eliminated_ns_per_site_point": per_site_point(
            sel("transducer.scattering_eliminated", "optimize")),
        "cascade.sweep_ms": mean_ms(sweep),
        "cascade.sweep_self_ns_per_site_point": per_site_point(sweep, t.self_time),
        "cascade.refine_ms": mean_ms(refine),
        "cascade.refine_calls": _ratio(sel("cascade.evaluator", "spectra").sum(), refine.sum()),
        "cascade.refine_share": _ratio(t.dur[refine].sum(), t.dur[spectra_jobs].sum()),
        "cascade.export_ms": mean_ms(sel("cascade.spectrum_to_csv", "spectra")),
        "noise.coupling_ns_per_site_point": per_site_point(
            sel("noise.noise_coupling_vector", "noise")),
        "noise.added_ns_per_site_point": per_site_point(sel("noise.added_noise_spectrum", "noise")),
        "noise.added_int_ms": mean_ms(sel("noise.integrated_added_noise", "noise")),
        "noise.stokes_ns_per_site_point": per_site_point(
            sel("noise.stokes_noise_spectrum", "noise")),
        "noise.stokes_int_ms": mean_ms(sel("noise.integrated_stokes_noise", "noise")),
        "noise.export_ms": mean_ms(exports),
        "loss.site_ns_per_site_point": per_site_point(sel("loss.scattering_two_sided", "lossy")),
        "loss.convert_ns_per_site_point": _ratio(
            1e9 * (t.dur[convert].sum() + t.dur[convert_back].sum()), t.points[convert].sum()),
        "loss.sweep_ms": mean_ms(sel("loss.lossy_array_scattering", "lossy")),
        "loss.assembly_ns_per_site_point": per_site_point(
            sel("loss.lossy_array_scattering", "lossy"), t.self_time),
        "loss.envelope_ms": mean_ms(sel("loss.envelope_efficiency", "lossy")),
        # a search span's points attribute holds OptimizationResult.evaluations
        "optimize.evaluations": _ratio(t.points[opt_cli].sum(), opt_cli.sum()),
        "optimize.us_per_evaluation": _ratio(1e6 * t.self_time[opt_cli].sum(),
                                             t.points[opt_cli].sum()),
        "optimize.search_ms": _ratio(1e3 * t.self_time[opt_cli].sum(), opt_cli.sum()),
        "optimize.finalize_ms": _ratio(1e3 * t.dur[finalize].sum(), opt_cli.sum()),
        "optimize.fit_ms": mean_ms(sel("optimize.fit_tanh_beta", "optimize")),
        "optimize.pool_speedup": _ratio(t.self_time[opt_one].sum(), t.self_time[opt_cli].sum()),
        "cli.self_ms": _ratio(1e3 * t.self_time[spectra_jobs].sum(), spectra_jobs.sum()),
    }
    m.update(extra)
    return m


# ---------------------------------------------------------------------------

def _print_metrics(metrics: dict, units: dict) -> None:
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    env = envinfo.environment()
    calibration = [envinfo.calibrate()]
    tracer = Tracer() if args.trace else None
    with open(os.path.join(HERE, "references.json"), "r", encoding="utf-8") as fh:
        refs = json.load(fh)["entries"]
    runner = Runner(args.workload, refs, tracer)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": jobs.WORKLOADS[args.workload]["why"],
              "environment": env}

    # warm-up, untimed: the first catalog entry of each kind
    for kind in jobs.WORKLOADS[args.workload]["kinds"]:
        runner.run(f"{kind}-00")

    if not args.trace:
        envinfo.fresh_import_seconds(ROOT, SRC, "oemarray.cli")
        setup = [envinfo.fresh_import_seconds(ROOT, SRC, "oemarray.cli")
                 for _ in range(SETUP_REPS)]
        records, wall = run_stream(runner, args.seed, args.seconds, paired=False)
        metrics, info = end_to_end(records, wall, setup)
        units = END_TO_END_UNITS
        info["setup_samples_s"] = setup
    else:
        records, wall = run_stream(runner, args.seed, args.seconds, paired=True)
        plain = statistics.median(r["ms"] for r in records)
        traced = statistics.median(r["traced_ms"] for r in records)
        coverage = []
        for workload in sorted(jobs.WORKLOADS):
            if workload == args.workload:
                continue
            seen = set()
            for job_id in next(jobs.stream(workload, args.seed, runner.catalog)):
                kind = runner.catalog[job_id]["kind"]
                if kind not in seen:
                    seen.add(kind)
                    coverage.append(runner.run(job_id, workload=workload, traced=True))
        probe = [runner.run(job_id, use_ref=False)
                 for job_id in jobs.probe_ids("lossy", runner.catalog)]
        lossy_records = [r for r in records + coverage if "passivity_excess" in r]
        extra = {
            "loss.passivity_excess_max": max(r["passivity_excess"] for r in lossy_records),
            "loss.ill_conditioned_violations": float(sum(not r["ok"] for r in probe)),
            "optimize.import_s": statistics.median(
                envinfo.module_import_seconds(ROOT, SRC, "oemarray.optimize")
                for _ in range(3)),
            "trace.overhead_ratio": traced / plain,
        }
        table = SpanTable(tracer)
        metrics = per_layer(table, extra)
        units = PER_LAYER_UNITS
        info = {"jobs": len(records), "untraced_p50_ms": plain, "traced_p50_ms": traced,
                "spans": len(tracer.spans), "layer_self_ms": table.layer_self_ms(),
                "coverage_jobs": coverage,
                "known_defect": {"what": jobs.KNOWN_DEFECT, "probe": probe}}
        records = records + coverage
        spans_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl")
        tracer.write(spans_path)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)

    calibration.append(envinfo.calibrate())
    missing = [k for k in units if not math.isfinite(metrics[k])]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    failed = sum(not r["ok"] for r in records)
    printed = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    report.update({"calibration_ms": calibration, "info": info, "jobs": records,
                   "metrics": printed})
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}: {report['why']}")
    print(f"environment: {json.dumps(env)}")
    print(f"calibration kernel: {calibration[0]:.3f} ms before, {calibration[1]:.3f} ms after")
    if args.trace:
        print(f"tracing overhead: p50 {info['traced_p50_ms']:.3f} ms traced vs "
              f"{info['untraced_p50_ms']:.3f} ms untraced over {info['jobs']} job pairs; "
              f"{info['spans']} spans")
        print(f"known defect probe: {int(metrics['loss.ill_conditioned_violations'])} of "
              f"{len(probe)} {jobs.KNOWN_DEFECT}")
        for r in probe:
            if not r["ok"]:
                print(f"  probe {r['id']}: {r['error'][:200]}")
    else:
        print(f"jobs {info['jobs']}, failed_ratio {info['failed_ratio']:.6g}, "
              f"tail = p{info['tail_percentile']:.1f}, wall {info['wall_s']:.3f} s")
    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['id']}: {r['error']}")
    _print_metrics(metrics, units)
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
