"""Benchmark two checkouts against each other in alternating pairs.

Usage:
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR \
        [--workloads spectra,optimize] [--pairs 10] [--readme] [--tier1] \
        [--trace K] --out BENCH_<n>.json

Pair S (S = 1, 2, ...) runs ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, with that checkout as the
working directory, so each side imports its own ``src/`` and uses its own
benchmark.  Both runs of a pair use the same seed; the side that runs first
alternates (the parent on odd seeds).  The run length T (``run_seconds``)
and the end-to-end metrics with their directions are read from CHANGE_DIR's
``BENCHMARK.json``.

With ``--readme``, pair K (K = 1, 2, ..., the same number of pairs) then
runs each checkout's own ``tools/readme_outputs.py`` into a temporary
directory per side, in the same alternating order, and records the process
wall time that tool prints for each README command.  After the last pair,
``readme_outputs.compare`` checks the change's data files and manifests
against the parent's, and its report is recorded; the exit code is 1 when
they differ.

With ``--tier1``, ``TIER1_PAIRS`` more alternating pairs run the Tier-1
suite, ``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``,
in each checkout, and record its wall time and the passed, failed, error,
xfailed, xpassed and skipped counts of pytest's last line.

With ``--trace K``, traced run k (k = 1 .. K) runs ``python3 perfbench/run.py
--workload W --seed k --seconds T --trace 1`` once in each checkout, in the
same alternating order, for each workload, and records every per-layer
metric of CHANGE_DIR's ``BENCHMARK.json``: each run's value and, per side,
the best of the K runs (in the metric's direction) with the median and
quartiles.  A traced run that exits nonzero (perfbench does when a metric
has no samples) ends the tool with exit 1, naming the side.

The output records, per workload and side, every pair's metrics,
``failed_ratio`` and ``calibration_ms`` (perfbench's calibration kernel, ms
before and after the run's jobs); per metric, the median and quartiles of
each side, how many pairs the change won, the parent's quartile distance,
whether the change's median moved by more than that distance, and
``claim_rule_met``: the change won at least nine tenths of the pairs (a tie
counts for neither side) and its median gain exceeds the parent's quartile
distance.  Each end-to-end metric is also judged by the no-regression rule
against its ``bound``: each side's quartile distance relative to its median,
whether the change's median is within the bound, and ``unresolved`` where
the parent's relative spread exceeds the bound, unless every run of the
change reads better than every run of the parent; the printed summary gives
the verdict.  It also records
``nproc``, the Python, numpy and scipy versions, each side's ``src/`` line
count (the lines of ``src/**/*.py``) and each side's CLI option count (the
option strings of its ``oemarray.cli.build_parser()``, top level and every
subcommand, leaving out ``-h``/``--help``).  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

import readme_outputs

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


def _src_env(checkout: str) -> dict:
    """The environment with ``checkout``'s ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(checkout, "src"), env.get("PYTHONPATH")) if p)
    return env


# run in a checkout's interpreter with its src/ first on the path
_OPTIONS = """
import argparse
from oemarray.cli import build_parser
parser = build_parser()
parsers = [parser] + [p for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)
                      for p in a.choices.values()]
print(sum(s not in ("-h", "--help")
          for p in parsers for a in p._actions for s in a.option_strings))
"""


def cli_options(checkout: str) -> int:
    """Option strings of one checkout's CLI parser, top level and every
    subcommand, without ``-h``/``--help``."""
    out = subprocess.run([sys.executable, "-c", _OPTIONS], env=_src_env(checkout),
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


def alternating(n_pairs: int, run, key: str = "pair"):
    """Pairs k = 1 .. n_pairs of ``run(side, k)`` on both sides, the parent
    first on odd k; yields each pair when both of its runs are done."""
    for k in range(1, n_pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        pair = {key: k, "first": order[0]}
        for side in order:
            pair[side] = run(side, k)
        yield pair


# the line perfbench prints with its calibration kernel's timings
_CALIBRATION_LINE = re.compile(
    r"^calibration kernel: ([0-9.]+) ms before, ([0-9.]+) ms after$", re.MULTILINE)


def run_once(checkout: str, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run; its metrics (end to end, or per layer with
    ``trace=1``), failed_ratio, and the calibration kernel's ms before and
    after the jobs, which tell a slow phase of the machine from a slow
    program."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
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
    calibration = _CALIBRATION_LINE.search(proc.stdout)
    record["calibration_ms"] = ([float(x) for x in calibration.groups()]
                                if calibration else None)
    return record


# the line readme_outputs.py prints per command: exit code, wall time, command
_README_LINE = re.compile(r"^exit -?\d+\s+([0-9.]+) s  oemarray (.+)$")


def run_readme(checkout: str, outdir: str) -> dict:
    """One run of a checkout's ``tools/readme_outputs.py`` into ``outdir``; the
    process wall time in seconds of each README command, keyed by the command."""
    command = [sys.executable, "tools/readme_outputs.py", outdir]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {m.group(2): float(m.group(1))
            for m in map(_README_LINE.match, proc.stdout.splitlines()) if m}


def readme_pairs(dirs: dict, n_pairs: int) -> dict:
    """README command wall times in alternating pairs, then the output comparison."""
    with tempfile.TemporaryDirectory() as tmp:
        outdirs = {side: os.path.join(tmp, side) for side in SIDES}
        pairs = []
        for pair in alternating(n_pairs, lambda side, k: run_readme(dirs[side], outdirs[side])):
            pairs.append(pair)
            print(f"readme pair {pair['pair']}: " + ", ".join(
                f"{side} {sum(pair[side].values()):.2f} s" for side in SIDES), flush=True)
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            identical = readme_outputs.compare(outdirs["change"], outdirs["parent"])
    commands = [c for c in pairs[0]["change"] if c in pairs[0]["parent"]]
    return {
        "description": (
            "Process wall time in seconds of each README command, as "
            "`tools/readme_outputs.py OUTDIR` prints it, each side running its own "
            "tool in alternating pairs, the parent first on odd pairs; then the "
            "change's outputs compared with the parent's (`readme_outputs.compare`)."),
        "pairs": pairs,
        "summary": summarize(pairs, [{"name": c, "better": "lower"} for c in commands]),
        "compare": {"identical": identical, "report": report.getvalue().splitlines()},
    }


class TracedRunFailed(RuntimeError):
    """A traced benchmark run exited nonzero; the message names the side."""


def traced_runs(dirs: dict, workload: str, k: int, seconds: float,
                metrics: list) -> dict:
    """K traced runs per side, alternating: each run's per-layer metrics and,
    per metric and side, the best of K with the median and quartiles."""
    def run(side, seed):
        try:
            return run_once(dirs[side], workload, seed, seconds, trace=1)
        except RuntimeError as exc:
            raise TracedRunFailed(f"the {side} side's traced {workload} run "
                                  f"(seed {seed}) failed: {exc}") from exc

    runs = []
    for pair in alternating(k, run, key="seed"):
        runs.append(pair)
        print(f"{workload} traced seed {pair['seed']} done", flush=True)
    summary = summarize(runs, metrics)
    for metric in metrics:
        pick = min if metric["better"] == "lower" else max
        summary[metric["name"]]["best"] = {
            side: pick(r[side][metric["name"]] for r in runs) for side in SIDES}
    summary["failed_ratio_max"] = {side: max(r[side]["failed_ratio"] for r in runs)
                                   for side in SIDES}
    return {"runs": runs, "summary": summary}


TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
TIER1_PAIRS = 2
TIER1_COUNTS = ("passed", "failed", "errors", "xfailed", "xpassed", "skipped")
# the counts on pytest's last line, e.g. "2 failed, 353 passed, 1 xfailed, 1 warning
# in 97.10s"; "warnings" is not one of them
_PYTEST_COUNT = re.compile(r"(\d+) (passed|failed|errors?|xfailed|xpassed|skipped)\b")


def pytest_counts(last_line: str) -> dict:
    """Each of ``TIER1_COUNTS`` on pytest's last line, 0 where it is absent."""
    counts = dict.fromkeys(TIER1_COUNTS, 0)
    for number, word in _PYTEST_COUNT.findall(last_line):
        counts["errors" if word.startswith("error") else word] = int(number)
    return counts


def run_tier1(checkout: str) -> dict:
    """One Tier-1 run in a checkout: wall time, counts and exit code."""
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=_src_env(checkout),
                          capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    last_line = lines[-1] if lines else ""
    return {"wall_s": wall, **pytest_counts(last_line), "exit": proc.returncode,
            "last_line": last_line}


def tier1_pairs(dirs: dict) -> dict:
    """Tier-1 wall time and test counts in alternating pairs."""
    pairs = []
    for pair in alternating(TIER1_PAIRS, lambda side, k: run_tier1(dirs[side])):
        pairs.append(pair)
        print(f"tier1 pair {pair['pair']}: " + ", ".join(
            f"{side} {pair[side]['wall_s']:.1f} s " + " ".join(
                f"{pair[side][name]} {name}" for name in TIER1_COUNTS if pair[side][name])
            for side in SIDES), flush=True)
    return {
        "description": (
            "The Tier-1 suite, `PYTHONPATH=src python -m pytest -q "
            "--continue-on-collection-errors`, run in each checkout in alternating "
            "pairs, the parent first on odd pairs: process wall time in seconds and "
            "the counts of pytest's last line."),
        "pairs": pairs,
        "summary": summarize(pairs, [{"name": "wall_s", "better": "lower"},
                                     {"name": "passed", "better": "higher"},
                                     *({"name": name, "better": "lower"}
                                       for name in TIER1_COUNTS[1:])]),
    }


def _quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change won,
    the parent's quartile distance, whether the median gain exceeds it, and
    whether a claimed gain would stand (``claim_rule_met``: at least nine
    tenths of the pairs won, ties counting for neither side, and that gain).

    A metric with a ``bound`` (an end-to-end metric of ``BENCHMARK.json``) is
    also judged by the no-regression rule: each side's quartile distance
    relative to its own median, whether the change's median is within the
    bound of the parent's (worse by at most that fraction), and whether the
    runs are too spread to tell: ``unresolved`` when the parent's relative
    quartile distance exceeds the bound, unless every run of the change
    reads better than every run of the parent.
    """
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [p[side][name] for p in pairs] for side in SIDES}
        stats = {side: _quartiles(sides[side]) for side in SIDES}
        won = sum((c < p) if lower else (c > p)
                  for p, c in zip(sides["parent"], sides["change"]))
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gain = stats["parent"]["median"] - stats["change"]["median"]
        exceeds = (gain if lower else -gain) > iqr
        entry = summary[name] = {
            **stats,
            "better": metric["better"],
            "change_better_pairs": won,
            "pairs": len(pairs),
            "median_ratio_change_over_parent":
                stats["change"]["median"] / stats["parent"]["median"]
                if stats["parent"]["median"] else None,
            "parent_iqr": iqr,
            "median_gain_exceeds_parent_iqr": exceeds,
            "claim_rule_met": 10 * won >= 9 * len(pairs) and exceeds,
        }
        if "bound" in metric:
            bound, parent = metric["bound"], stats["parent"]["median"]
            relative = {side: (st["q3"] - st["q1"]) / abs(st["median"])
                        if st["median"] else None for side, st in stats.items()}
            limit = parent * (1 + bound) if lower else parent * (1 - bound)
            change = stats["change"]["median"]
            separated = (max(sides["change"]) < min(sides["parent"]) if lower
                         else min(sides["change"]) > max(sides["parent"]))
            entry.update({
                "bound": bound,
                "relative_iqr": relative,
                "within_bound": change <= limit if lower else change >= limit,
                "unresolved": (relative["parent"] is None or relative["parent"] > bound)
                              and not separated,
            })
    return summary


def _verdict(s: dict) -> str:
    """The no-regression rule's reading of a summarized metric with a bound."""
    if "bound" not in s:
        return ""
    verdict = ("unresolved" if s["unresolved"] else
               "within bound" if s["within_bound"] else "WORSE than bound")
    spread = ", ".join(f"{side} {'n/a' if r is None else format(r, '.3g')}"
                       for side, r in s["relative_iqr"].items())
    return f"  bound {s['bound']:g}: {verdict} (relative iqr {spread})"


def _print_summary(label: str, summary: dict) -> None:
    for name, s in summary.items():
        if name == "failed_ratio_max":
            print(f"{label:9s} failed_ratio_max parent {s['parent']:g} "
                  f"change {s['change']:g}")
            continue
        print(f"{label:9s} {name:12s} parent {s['parent']['median']:.4g} "
              f"change {s['change']['median']:.4g}  won {s['change_better_pairs']}/"
              f"{s['pairs']}  parent iqr {s['parent_iqr']:.3g}"
              f"  claim rule {'met' if s['claim_rule_met'] else 'not met'}" + _verdict(s))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workloads", default="spectra,optimize",
                        help="comma-separated workloads (default: %(default)s)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload, at least 2 (default: %(default)s)")
    parser.add_argument("--readme", action="store_true",
                        help="also time the README commands in alternating pairs "
                             "and compare their outputs")
    parser.add_argument("--tier1", action="store_true",
                        help=f"also run the Tier-1 suite in {TIER1_PAIRS} "
                             "alternating pairs")
    parser.add_argument("--trace", type=int, default=0, metavar="K",
                        help="also run each side's traced benchmark K times per "
                             "workload, alternating, and record each per-layer "
                             "metric's best of K and quartiles (K at least 2)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    if args.trace == 1 or args.trace < 0:
        parser.error("--trace must be 0 or at least 2")

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
        "cli_options": {side: cli_options(dirs[side]) for side in SIDES},
        "workloads": {},
    }

    def write() -> None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    for workload in args.workloads.split(","):
        pairs = []
        for pair in alternating(
                args.pairs, lambda side, seed: run_once(dirs[side], workload, seed, seconds),
                key="seed"):
            pairs.append(pair)
            print(f"{workload} seed {pair['seed']}: " + ", ".join(
                f"{side} p50 {pair[side]['job_ms_p50']:.1f} ms tail "
                f"{pair[side]['job_ms_tail']:.1f} ms" for side in SIDES), flush=True)
        summary = summarize(pairs, metrics)
        summary["failed_ratio_max"] = {side: max(p[side]["failed_ratio"] for p in pairs)
                                       for side in SIDES}
        doc["workloads"][workload] = {"pairs": pairs, "summary": summary}
        write()
    if args.trace:
        doc["traced"] = {"description": (
            "Per layer: `python3 perfbench/run.py --workload W --seed k --seconds "
            f"{seconds:g} --trace 1` for k = 1 .. {args.trace} in each checkout, "
            "the parent first on odd k; per metric and side, the best of the runs "
            "in the metric's direction, the median and the quartiles."),
            "workloads": {}}
        for workload in args.workloads.split(","):
            try:
                doc["traced"]["workloads"][workload] = traced_runs(
                    dirs, workload, args.trace, seconds, benchmark["per_layer"])
            except TracedRunFailed as exc:
                write()
                print(f"error: {exc}", file=sys.stderr)
                return 1
            write()
    if args.readme:
        doc["readme"] = readme_pairs(dirs, args.pairs)
        write()
    if args.tier1:
        doc["tier1"] = tier1_pairs(dirs)
        write()

    print("src lines: " + ", ".join(f"{side} {doc['src_lines'][side]}" for side in SIDES))
    print("cli options: " + ", ".join(f"{side} {doc['cli_options'][side]}"
                                      for side in SIDES))
    for workload, entry in doc["workloads"].items():
        _print_summary(workload, entry["summary"])
    for workload, entry in doc.get("traced", {}).get("workloads", {}).items():
        for name, st in entry["summary"].items():
            if "best" in st:
                print(f"{workload:9s} {name:42s} best parent {st['best']['parent']:.4g} "
                      f"change {st['best']['change']:.4g}")
    if args.tier1:
        _print_summary("tier1", doc["tier1"]["summary"])
    if args.readme:
        _print_summary("readme", doc["readme"]["summary"])
        print("\n".join(doc["readme"]["compare"]["report"]))
        return 0 if doc["readme"]["compare"]["identical"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
