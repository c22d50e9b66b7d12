"""Benchmark two checkouts against each other in alternating pairs.

Usage:
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \
        [--workloads spectra,optimize] [--pairs 10] --out BENCH_<n>.json

Pair S (S = 1, 2, ...) runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, with that checkout as the
working directory, so each side imports its own ``src/`` and uses its own
benchmark.  Both runs of a pair use the same seed; the side that runs first
alternates (the parent on odd seeds).  The run length T (``run_seconds``)
and the end-to-end metrics with their directions are read from CHANGE_DIR's
``BENCHMARK.json``.

The output records, per workload and side, every pair's metrics and
``failed_ratio``; per metric, the median and quartiles of each side, how
many pairs the change won, the parent's quartile distance, and whether the
change's median moved by more than that distance.  It also records
``nproc``, the Python, numpy and scipy versions, and each side's ``src/``
line count (the lines of ``src/**/*.py``).  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")

_VERSIONS = ("import json, platform, numpy, scipy; print(json.dumps("
             "{'python': platform.python_version(), 'numpy': numpy.__version__, "
             "'scipy': scipy.__version__}))")


def environment() -> dict:
    out = subprocess.run([sys.executable, "-c", _VERSIONS], capture_output=True,
                         text=True, check=True)
    env = {"nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count()}
    env.update(json.loads(out.stdout))
    return env


def src_lines(checkout: str) -> int:
    """Lines of ``src/**/*.py`` in one checkout, counted as ``wc -l`` does."""
    total = 0
    for path in glob.glob(os.path.join(checkout, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its end-to-end metrics and failed_ratio."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = {name: m["value"] for name, m in summary["metrics"].items()}
    record["failed_ratio"] = summary["failed"] / summary["attempted"]
    record["jobs"] = summary["attempted"]
    record["run_wall_s"] = wall
    return record


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: _quartiles(sides[side]) for side in SIDES}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(sides["parent"], sides["change"]))
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gain = stats["parent"]["median"] - stats["change"]["median"]
        summary[name] = {
            **stats,
            "better": metric["better"],
            "change_better_pairs": won,
            "pairs": len(pairs),
            "median_ratio_change_over_parent":
                stats["change"]["median"] / stats["parent"]["median"],
            "parent_iqr": iqr,
            "median_gain_exceeds_parent_iqr": (gain if lower else -gain) > iqr,
        }
    summary["failed_ratio_max"] = {side: max(p[side]["failed_ratio"] for p in pairs)
                                   for side in SIDES}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workloads", default="spectra,optimize",
                        help="comma-separated workloads (default: %(default)s)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload, at least 2 (default: %(default)s)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    dirs = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]
    doc = {
        "description": (
            "Parent commit versus the change, end to end: alternating pairs of "
            f"`python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
            "--trace 0`, each side in its own checkout, the same seed within a pair, "
            "the parent first on odd seeds."),
        "environment": environment(),
        "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(dirs[side], workload, seed, seconds)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} p50 {pair[side]['job_ms_p50']:.1f} ms tail "
                f"{pair[side]['job_ms_tail']:.1f} ms" for side in SIDES), flush=True)
        doc["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, metrics)}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    print("src lines: " + ", ".join(f"{side} {doc['src_lines'][side]}" for side in SIDES))
    for workload, entry in doc["workloads"].items():
        for name, s in entry["summary"].items():
            if name == "failed_ratio_max":
                print(f"{workload:9s} failed_ratio_max parent {s['parent']:g} "
                      f"change {s['change']:g}")
                continue
            print(f"{workload:9s} {name:12s} parent {s['parent']['median']:.4g} "
                  f"change {s['change']['median']:.4g}  won {s['change_better_pairs']}/"
                  f"{s['pairs']}  parent iqr {s['parent_iqr']:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
