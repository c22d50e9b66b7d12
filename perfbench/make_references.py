"""Write references.json: every catalog job's output from the current program.

Run from the root of a checkout:

    python3 perfbench/make_references.py

Each job runs once and is checked against the invariants only; an output
that fails them is recorded under ``seed_failures`` and never becomes a
reference.  Optimizer entries also store the grid oracle's bandwidth.
Run this only on the commit that defines the benchmark: later commits are
checked against these values.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run


def main() -> int:
    oe = run._import_program()
    runner = run.Runner("references", {})
    entries, failures = {}, {}
    for job_id, entry in runner.catalog.items():
        t0 = time.perf_counter()
        record = runner.run(job_id, use_ref=False)
        print(f"{job_id:22s} {time.perf_counter() - t0:7.2f} s  "
              f"{'ok' if record['ok'] else record['error']}", flush=True)
        if not record["ok"]:
            failures[job_id] = record["error"]
            continue
        kind, p = entry["kind"], entry["params"]
        summary = runner.last_summary
        if kind.startswith("optimize"):
            problem = oe.OptimizationProblem(n_sites=p["n"], gamma_total=p["gamma_total"],
                                             min_efficiency=p["min_eff"])
            summary["oracle_bandwidth"] = oe.grid_oracle(problem).bandwidth
        entries[job_id] = summary
    path = os.path.join(run.HERE, "references.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"catalog_seed": run.jobs.CATALOG_SEED, "entries": entries,
                   "seed_failures": failures}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(entries)} references, {len(failures)} seed failures -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
