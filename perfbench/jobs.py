"""Job catalog, seeded job streams, and job execution.

A job is one README CLI run (made by calling ``oemarray.cli.main`` in this
process) or, where no subcommand exists, one call of the public library
function.  Job parameters come from a fixed catalog drawn once from the
ranges below, so that every job has a stored reference answer taken from
the program at the commit that defined the benchmark.

Each job kind's range is cut into strata (slices of the size range, the
main cost driver) with ``VARIANTS`` catalog entries per stratum.  A run
issues a fixed number of passes: one pass holds one entry per stratum of
every kind of the workload, the entry and the order both drawn from
``--seed``.  Every run thus has the same number of jobs and the same mix of
sizes, which keeps its figures steady while the seed still changes the
inputs.

Nothing in this module imports the program at import time; ``run.py`` puts
the checkout's ``src/`` on the path first.
"""

from __future__ import annotations

import json
import math

import numpy as np

CATALOG_SEED = 20170711
VARIANTS = 3

GAMMA_M = 5e-5
N_BAR = 100.0
OMEGA_M = 10.0

# Every workload is a closed loop with one client: each job starts after the
# previous one finished.  "kinds" gives the strata per job kind in one pass;
# "pass_seconds" is the time one pass took at the commit that defined the
# benchmark, on a 2-core Intel Xeon VM, and sets the passes per run.
WORKLOADS = {
    "spectra": {
        "pass_seconds": 1.4,
        "kinds": {"spectrum": 12, "bandwidth_scan": 3},
        "why": "spectrum runs, N log-uniform 1..200, mixed with short "
               "bandwidth-scan windows: large N times the site kernel, the "
               "2x2 fold and bisection refinement; small N times CSV export "
               "and CLI overhead",
    },
    "noise": {
        "pass_seconds": 3.5,
        "kinds": {"noise": 6, "stokes": 6, "integrated_added": 10,
                  "integrated_stokes": 4},
        "why": "noise and stokes runs plus integrated added and Stokes "
               "noise: batched 3x3 and 6x6 solves and the adaptive trapezoid, "
               "the transducer layer through dense solves",
    },
    "lossy": {
        "pass_seconds": 5.0,
        "kinds": {"loss": 6, "backscatter": 4, "lossy_array": 4},
        "why": "loss and backscatter runs plus wide lossy spectra: two-sided "
               "4x4 solves, transfer conversions and 4x4 products, used by "
               "no other workload",
    },
    "optimize": {
        "pass_seconds": 7.0,
        "kinds": {"optimize_n2": 3, "optimize_n3": 1},
        "why": "optimize runs at N=2 and 3 with the default thread count: "
               "Nelder-Mead over the eliminated-cascade surrogate, thousands "
               "of small cascades instead of a few large ones",
    },
}

KINDS_CLI = {"spectrum", "bandwidth_scan", "noise", "stokes", "loss",
             "backscatter", "optimize_n2", "optimize_n3"}


def _strata_of(kind: str) -> int:
    for spec in WORKLOADS.values():
        if kind in spec["kinds"]:
            return spec["kinds"][kind]
    raise KeyError(kind)


# ---------------------------------------------------------------------------
# catalog

def _r(x: float, digits: int = 4) -> float:
    return float(round(x, digits))


def _log_int(lo: int, hi: int, u: float) -> int:
    """Integer at fraction u of the log-uniform range lo..hi."""
    return int(min(hi, max(lo, math.floor(math.exp(
        math.log(lo) + u * (math.log(hi + 1) - math.log(lo)))))))


def _strata(rng, kind: str):
    """(stratum, u) pairs, VARIANTS per stratum, with u drawn uniformly
    inside stratum k of [0, 1) once per stratum: the variants of a stratum
    share its size and differ in the other parameters, so that a pass costs
    about the same whichever variants the seed picks."""
    n_strata = _strata_of(kind)
    for k in range(n_strata):
        u = (k + rng.uniform()) / n_strata
        for _ in range(VARIANTS):
            yield k, u


def _sorted_values(rng, lo, hi, count):
    return sorted(_r(v) for v in rng.uniform(lo, hi, count))


def _catalog_spectrum(rng):
    for k, u in _strata(rng, "spectrum"):
        n = _log_int(1, 200, u)
        profile = "linear" if n >= 2 and rng.uniform() < 0.5 else "tanh"
        yield k, {"n": n, "profile": profile, "g": _r(rng.uniform(0.05, 0.1)),
                  "kappa2": float(rng.choice([1.0, 10.0]))}


def _catalog_bandwidth_scan(rng):
    for k, u in _strata(rng, "bandwidth_scan"):
        n = _log_int(1, 198, u)
        profile = "linear" if n >= 2 and rng.uniform() < 0.5 else "tanh"
        yield k, {"n_min": n, "n_max": n + 2, "profile": profile,
                  "g": _r(rng.uniform(0.05, 0.1))}


def _catalog_noise(rng):
    for k, u in _strata(rng, "noise"):
        yield k, {"n": _log_int(2, 50, u), "g": _r(rng.uniform(0.05, 0.1))}


def _catalog_stokes(rng):
    for k, u in _strata(rng, "stokes"):
        yield k, {"n": _log_int(2, 30, u), "g": _r(rng.uniform(0.05, 0.1))}


def _catalog_integrated_added(rng):
    for k, _ in _strata(rng, "integrated_added"):
        yield k, {"n": k + 1, "gamma_total": _r(rng.uniform(0.02, 0.05))}


def _catalog_integrated_stokes(rng):
    for k, u in _strata(rng, "integrated_stokes"):
        yield k, {"n": _log_int(5, 60, u)}


# The sweep parameter is tied to the stratum so that every pass sweeps each
# parameter over the same sizes; kappa_l sweeps cost ten times the others.
_LOSS_PARAMS = ("kappa_int", "epsilon", "kappa_l")
_LOSS_RANGES = {"kappa_int": (0.0, 0.05), "epsilon": (0.0, 0.2),
                "kappa_l": (0.02, 0.2)}


def _catalog_loss(rng):
    for k, u in _strata(rng, "loss"):
        param = _LOSS_PARAMS[k % 3]
        lo, hi = _LOSS_RANGES[param]
        yield k, {"n": _log_int(2, 400, u), "g": _r(rng.uniform(0.05, 0.1)),
                  "param": param, "values": _sorted_values(rng, lo, hi, 4)}


def loss_ceiling(params: dict) -> float:
    """Largest |T21|^2 a passive array can reach through its lossy links.

    Every path from the input to the far output crosses each of the N
    links (one per site, the last being the output lead) at least once,
    each time with amplitude 1 - epsilon.
    """
    return (1.0 - params.get("epsilon", 0.0)) ** (2 * params["n"])


# Arrays that pass less than this share of the power through their links
# are left out of the timed lossy stream: the program's transfer-form
# cascade returns non-passive results there (see KNOWN_DEFECT), and the
# benchmark must time only jobs that succeed.  Such draws stay in the
# catalog as probe entries (stratum PROBE), which every traced run executes
# untimed and reports as loss.ill_conditioned_violations.
CEILING_FLOOR = 1e-12
PROBE = -1

KNOWN_DEFECT = (
    "lossy arrays whose propagation-loss ceiling (1-eps)^(2N) is below "
    f"{CEILING_FLOOR:g}: the transfer-form cascade is ill-conditioned and "
    "returns |T21|^2 above the ceiling, sigma_max(S) > 1, or raises")


def _lossy_entries(rng, k, params):
    """The drawn entry, or, when its propagation-loss ceiling is below
    CEILING_FLOOR, a probe entry plus a timed one with epsilon redrawn
    below the largest value that keeps the ceiling above the floor."""
    if loss_ceiling(params) >= CEILING_FLOOR:
        yield k, params
        return
    yield PROBE, params
    eps_max = -math.expm1(math.log(CEILING_FLOOR) / (2 * params["n"]))
    yield k, {**params, "epsilon": math.floor(rng.uniform(0.0, eps_max) * 1e4) / 1e4}


def _catalog_backscatter(rng):
    for k, u in _strata(rng, "backscatter"):
        yield from _lossy_entries(rng, k, {
            "n": _log_int(2, 400, u), "g": _r(rng.uniform(0.05, 0.1)),
            "ratios": _sorted_values(rng, 0.02, 0.2, 5),
            "epsilon": _r(rng.uniform(0.0, 0.2))})


def _catalog_lossy_array(rng):
    for k, u in _strata(rng, "lossy_array"):
        yield from _lossy_entries(rng, k, {
            "n": _log_int(2, 400, u), "g": _r(rng.uniform(0.05, 0.1)),
            "epsilon": _r(rng.uniform(0.0, 0.2)),
            "ratio": _r(rng.uniform(0.02, 0.2))})


def _catalog_optimize(kind, n_sites):
    def gen(rng):
        for k, u in _strata(rng, kind):
            yield k, {"n": n_sites, "gamma_total": _r(0.02 + 0.06 * u),
                      "min_eff": _r(rng.uniform(0.9, 0.99), 3)}
    return gen


_CATALOG_MAKERS = {
    "spectrum": _catalog_spectrum,
    "bandwidth_scan": _catalog_bandwidth_scan,
    "noise": _catalog_noise,
    "stokes": _catalog_stokes,
    "integrated_added": _catalog_integrated_added,
    "integrated_stokes": _catalog_integrated_stokes,
    "loss": _catalog_loss,
    "backscatter": _catalog_backscatter,
    "lossy_array": _catalog_lossy_array,
    "optimize_n2": _catalog_optimize("optimize_n2", 2),
    "optimize_n3": _catalog_optimize("optimize_n3", 3),
}


def catalog() -> dict:
    """All job entries by id: {id: {"kind", "stratum", "params"}}."""
    entries = {}
    for i, (kind, make) in enumerate(_CATALOG_MAKERS.items()):
        rng = np.random.default_rng([CATALOG_SEED, i])
        for j, (stratum, params) in enumerate(make(rng)):
            entries[f"{kind}-{j:02d}"] = {"kind": kind, "stratum": stratum,
                                         "params": params}
    return entries


def is_probe_only(entry: dict) -> bool:
    return entry["stratum"] == PROBE


# ---------------------------------------------------------------------------
# seeded streams

def stream(workload: str, seed: int, cat: dict | None = None):
    """Endless seeded sequence of passes (lists of job ids) for a workload."""
    cat = catalog() if cat is None else cat
    kinds = WORKLOADS[workload]["kinds"]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    cells = {}
    for job_id, entry in cat.items():
        if entry["kind"] in kinds and not is_probe_only(entry):
            cells.setdefault((entry["kind"], entry["stratum"]), []).append(job_id)
    cells = [cells[key] for key in sorted(cells)]
    while True:
        chosen = [ids[int(rng.integers(len(ids)))] for ids in cells]
        yield [chosen[i] for i in rng.permutation(len(chosen))]


def passes_per_run(workload: str, seconds: float, min_jobs: int) -> int:
    """Passes that take about ``seconds`` at the defining commit, and at
    least ``min_jobs`` jobs.  The count depends only on the arguments, so
    every run of a workload has the same number of jobs."""
    spec = WORKLOADS[workload]
    per_pass = sum(spec["kinds"].values())
    return max(-(-min_jobs // per_pass), round(seconds / spec["pass_seconds"]))


def probe_ids(workload: str, cat: dict | None = None) -> list:
    cat = catalog() if cat is None else cat
    kinds = WORKLOADS[workload]["kinds"]
    return [i for i, e in cat.items() if e["kind"] in kinds and is_probe_only(e)]


# ---------------------------------------------------------------------------
# execution

def _fmt(x) -> str:
    return repr(float(x))


def cli_argv(kind: str, p: dict, out: str) -> list:
    """The README CLI command line of one job."""
    if kind == "spectrum":
        return ["spectrum", "--n", str(p["n"]), "--profile", p["profile"],
                "--g", _fmt(p["g"]), "--kappa2", _fmt(p["kappa2"]),
                "--omega-max", "2.5", "--points", "1201", "--out", out]
    if kind == "bandwidth_scan":
        return ["bandwidth-scan", "--n-min", str(p["n_min"]),
                "--n-max", str(p["n_max"]), "--profile", p["profile"],
                "--g", _fmt(p["g"]), "--asymmetric", "--out", out]
    if kind == "noise":
        return ["noise", "--n", str(p["n"]), "--g", _fmt(p["g"]),
                "--gamma", _fmt(GAMMA_M), "--n-bar", _fmt(N_BAR),
                "--points", "2001", "--out", out]
    if kind == "stokes":
        return ["stokes", "--n", str(p["n"]), "--g", _fmt(p["g"]),
                "--omega-m", _fmt(OMEGA_M), "--gamma", _fmt(GAMMA_M),
                "--out", out]
    if kind == "loss":
        return ["loss", "--n", str(p["n"]), "--g", _fmt(p["g"]),
                "--param", p["param"],
                "--values", ",".join(_fmt(v) for v in p["values"]),
                "--out", out]
    if kind == "backscatter":
        zeta = -math.log1p(-p["epsilon"])
        return ["backscatter", "--n", str(p["n"]), "--g", _fmt(p["g"]),
                "--ratios", ",".join(_fmt(v) for v in p["ratios"]),
                "--zeta", _fmt(zeta), "--fit-alpha", "--out", out]
    if kind in ("optimize_n2", "optimize_n3"):
        return ["optimize", "--n", str(p["n"]),
                "--gamma-total", _fmt(p["gamma_total"]),
                "--min-eff", _fmt(p["min_eff"]), "--out", out]
    raise KeyError(kind)


def stokes_config(n: int):
    """The criterion-07 Stokes configuration of the acceptance suite."""
    from oemarray import ArrayConfig, gamma_linear_profile
    return ArrayConfig(n_sites=n, profile=gamma_linear_profile(n, 0.02),
                       kappa1=1.0, kappa2=1.0, gamma=GAMMA_M, n_bar=N_BAR)


def lossy_inputs(p: dict):
    """(sites, links, omega) of a lossy_array job."""
    from oemarray import (ArrayConfig, CellLink, CouplingProfile, LossySite,
                          materialize_sites)
    config = ArrayConfig(n_sites=p["n"], profile=CouplingProfile.tanh(p["g"]))
    sites = [LossySite(site=s, kappa_l1=p["ratio"] * s.kappa1,
                       kappa_l2=p["ratio"] * s.kappa2)
             for s in materialize_sites(config)]
    links = [CellLink.from_epsilon(p["epsilon"])] * p["n"]
    return sites, links, np.linspace(-2.5, 2.5, 1201)


def library_call(kind: str, p: dict):
    """(function, args) of a library job, built before the timed call."""
    import oemarray as oe
    if kind == "integrated_added":
        config = oe.ArrayConfig(
            n_sites=p["n"], profile=oe.gamma_linear_profile(p["n"], p["gamma_total"]),
            gamma=GAMMA_M, n_bar=N_BAR)
        return oe.noise.integrated_added_noise, (config,), {}
    if kind == "integrated_stokes":
        band = oe.FrequencyGrid(OMEGA_M - 3, OMEGA_M + 3, 6001)
        return (oe.noise.integrated_stokes_noise,
                (stokes_config(p["n"]), OMEGA_M), {"band_grid": band})
    if kind == "lossy_array":
        return oe.loss.lossy_array_scattering, lossy_inputs(p), {}
    raise KeyError(kind)


def prepare(kind: str, p: dict, prefix: str, cli_main):
    """A no-argument callable that runs the job and returns (exit code, result).

    Inputs are built here, outside the timed call.
    """
    if kind in KINDS_CLI:
        argv = cli_argv(kind, p, prefix)
        return lambda: (cli_main(argv), None)
    fn, args, kwargs = library_call(kind, p)
    return lambda: (0, fn(*args, **kwargs))


# ---------------------------------------------------------------------------
# output summaries: what the checks and references compare

def _read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh.read().strip().split("\n") if line]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _trapz(y, x) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _site_asymmetry(p: dict) -> float:
    """Largest |S - S^T| of the first, middle and last cell of a lossy array.

    The cells couple unequally to the two directions (kappa_L != kappa_R),
    so the assembled array is not reciprocal by construction; reciprocity
    holds cell by cell, as a symmetric 4x4 scattering matrix.
    """
    from oemarray.loss import scattering_two_sided
    sites, _, w = lossy_inputs(p)
    worst = 0.0
    for site in {id(s): s for s in (sites[0], sites[len(sites) // 2], sites[-1])}.values():
        s = scattering_two_sided(site, w).matrix
        worst = max(worst, float(np.abs(s - np.swapaxes(s, -1, -2)).max()))
    return worst


def summarize(kind: str, p: dict, prefix: str, result=None) -> dict:
    """Read a finished job's output into the numbers the checks use."""
    if kind == "spectrum":
        _, rows = _read_csv(prefix + ".csv")
        bw = _read_json(prefix + "_bandwidth.json")
        return {"rows": len(rows), "abs2_max": float(rows[:, 3].max()),
                "abs2_finite": bool(np.all(np.isfinite(rows))), **bw}
    if kind == "bandwidth_scan":
        header, rows = _read_csv(prefix + ".csv")
        return {"header": header, "rows": rows.tolist()}
    if kind == "noise":
        _, rows = _read_csv(prefix + ".csv")
        w = rows[:, 0]
        return {"rows": len(rows), "finite": bool(np.all(np.isfinite(rows))),
                "min": float(rows[:, 1:].min()),
                "int1": _trapz(rows[:, 1], w), "int2": _trapz(rows[:, 2], w),
                "max1": float(rows[:, 1].max()), "max2": float(rows[:, 2].max())}
    if kind == "stokes":
        _, rows = _read_csv(prefix + ".csv")
        return {"rows": len(rows), "finite": bool(np.all(np.isfinite(rows))),
                "min": float(rows[:, 1].min()),
                "int": _trapz(rows[:, 1], rows[:, 0]),
                "max": float(rows[:, 1].max())}
    if kind in ("loss", "backscatter"):
        _, rows = _read_csv(prefix + ".csv")
        doc = {"params": rows[:, 0].tolist(), "eff": rows[:, 2].tolist()}
        if kind == "backscatter":
            doc["alpha"] = _read_json(prefix + "_alpha.json")
        return doc
    if kind in ("optimize_n2", "optimize_n3"):
        return _read_json(prefix + ".json")
    if kind == "integrated_added":
        return {"value": np.asarray(result, dtype=float).tolist()}
    if kind == "integrated_stokes":
        return {"value": float(result)}
    if kind == "lossy_array":
        s = np.asarray(result.matrix)
        finite = bool(np.all(np.isfinite(s)))
        sv = (np.linalg.svd(s, compute_uv=False)[..., 0] if finite
              else np.array([np.inf]))
        t21 = np.abs(s[..., 1, 0]) ** 2
        return {"finite": finite, "sigma_max": float(sv.max()),
                "t21_max": float(t21.max()), "t21_sum": float(t21.sum()),
                "points": int(s.shape[0]), "site_asymmetry": _site_asymmetry(p)}
    raise KeyError(kind)
