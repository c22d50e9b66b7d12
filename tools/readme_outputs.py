"""Run the seven README CLI commands and compare their data files.

Usage:
    python3 tools/readme_outputs.py OUTDIR [--src SRC] [--compare OTHERDIR]

Runs each command from the README's "Command line" section with OUTDIR as
the working directory and the package imported from SRC (default: this
checkout's ``src``).  With ``--compare``, every data file in OUTDIR is
checked against the file of the same name in OTHERDIR and reported as
"identical" or by the largest relative difference between corresponding
numbers; a data file or manifest that only one of the two directories holds
is reported as missing from the other.  Each run manifest is compared with
``duration_seconds`` removed, since that is the only field that carries a
timing, and reported as identical or by the top-level keys that differ.
Exits 1 when a command fails or a compared file differs or is missing.
Standard library only.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = [
    "spectrum --n 200 --omega-max 2.5 --points 1201 --out fig_a",
    "bandwidth-scan --n-min 1 --n-max 200 --asymmetric --out fig_b",
    "noise --n 6 --gamma 5e-5 --n-bar 100 --out noise",
    "stokes --n 10 --omega-m 10 --gamma 5e-5 --out stokes",
    "loss --param epsilon --values 0,0.001,0.01,0.05 --out sweep",
    "backscatter --ratios 0.02,0.05,0.1,0.15,0.2 --n 10 --fit-alpha --out bs",
    "optimize --n 6 --gamma-total 0.02 --min-eff 0.95 --out opt",
]

_LAUNCH = "import sys, oemarray.cli; sys.exit(oemarray.cli.main(sys.argv[1:]))"


def run_commands(outdir: str, src: str) -> bool:
    os.makedirs(outdir, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=src)
    where = subprocess.run([sys.executable, "-c", "import oemarray; print(oemarray.__file__)"],
                           cwd=outdir, env=env, capture_output=True, text=True)
    print(f"package: {where.stdout.strip() or where.stderr.strip()}")
    ok = True
    for command in COMMANDS:
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _LAUNCH] + command.split(),
                              cwd=outdir, env=env, capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        print(f"exit {proc.returncode}  {elapsed:7.2f} s  oemarray {command}")
        if proc.returncode != 0:
            ok = False
            sys.stderr.write(proc.stderr)
    return ok


def _numbers_csv(path: str) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [_number(cell) for row in rows[1:] for cell in row]


def _numbers_json(path: str) -> list:
    out = []

    def walk(node):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key])
        elif isinstance(node, list):
            for item in node:
                walk(item)
        else:
            out.append(node)

    with open(path) as fh:
        walk(json.load(fh))
    return out


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _max_rel_diff(a: list, b: list):
    """Largest |x - y| / max(|x|, |y|) over paired numbers, or None when the
    files do not pair up (different lengths or non-numeric mismatches)."""
    if len(a) != len(b):
        return None
    worst = 0.0
    for x, y in zip(a, b):
        if isinstance(x, bool) or isinstance(y, bool) or not (
                isinstance(x, (int, float)) and isinstance(y, (int, float))):
            if x != y:
                return None
            continue
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _untimed_manifest(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("duration_seconds", None)
    return doc


def compare(outdir: str, otherdir: str) -> bool:
    """Report each CSV/JSON file of either directory against the other's;
    True when every file is in both and all compare equal."""
    ok = True
    names = {d: {n for n in os.listdir(d) if n.endswith((".csv", ".json"))}
             for d in (outdir, otherdir)}
    for name in sorted(names[outdir] | names[otherdir]):
        mine, theirs = os.path.join(outdir, name), os.path.join(otherdir, name)
        missing = [d for d in (outdir, otherdir) if name not in names[d]]
        if missing:
            print(f"{name}: missing in {missing[0]}")
            ok = False
            continue
        if name.endswith("_manifest.json"):
            a, b = _untimed_manifest(mine), _untimed_manifest(theirs)
            keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
            if keys:
                print(f"{name}: differs in {', '.join(keys)}")
                ok = False
            else:
                print(f"{name}: identical apart from duration_seconds")
            continue
        with open(mine, "rb") as fa, open(theirs, "rb") as fb:
            if fa.read() == fb.read():
                print(f"{name}: identical")
                continue
        ok = False
        reader = _numbers_json if name.endswith(".json") else _numbers_csv
        diff = _max_rel_diff(reader(mine), reader(theirs))
        if diff is None:
            print(f"{name}: differs (contents do not pair up)")
        else:
            print(f"{name}: largest relative difference {diff:.3g}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", help="directory the commands write into")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the oemarray package (default: %(default)s)")
    parser.add_argument("--compare", metavar="OTHERDIR",
                        help="compare the data files against this directory")
    args = parser.parse_args(argv)
    ok = run_commands(args.outdir, os.path.abspath(args.src))
    if args.compare:
        ok = compare(args.outdir, args.compare) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
