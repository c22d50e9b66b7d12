"""Command-line runs: every computation as a reproducible file-producing job.

`main` is the run harness: it reads the optional JSON config, runs one
subcommand, writes its data files and exactly one run manifest, and reports
through exit codes: 0 ok, 2 config problem, 3 numerical failure, 4 infeasible
optimization.  Subcommands apply flag overrides and compute; they write
nothing, so a run that fails while computing leaves no file.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings
from dataclasses import replace
from functools import cache, partial

import numpy as np

from . import __version__
from .cascade import (
    bandwidth_analytic,
    bandwidth_to_json,
    conversion_spectrum,
    extract_bandwidth,
    spectrum_to_csv,
)
from .core import (
    SCHEMA_VERSION,
    ArrayConfig,
    ConfigError,
    FrequencyGrid,
    SingularMatrixError,
    SpectrumError,
    _as_float,
    _as_int,
    _as_ramp,
    _count,
    _number,
    _read_doc,
    _write_csv,
    _write_json,
    config_from_dict,
    config_to_dict,
    materialize_sites,
)
from .loss import (
    alpha_fit_to_json,
    backscatter_alpha_fit,
    backscatter_efficiency_table,
    efficiency_vs_loss,
    sweep_to_csv,
)
from .noise import (
    added_noise_spectrum,
    noise_to_csv,
    stokes_noise_spectrum,
    stokes_to_csv,
)
from .optimize import OptimizationProblem, optimize_couplings, result_to_json

__all__ = ["main", "build_parser"]

_DEFAULT_PROFILE = {"kind": "tanh", "g_bar1": 0.08, "g_bar2": 0.08, "beta": 4.5}

# Peak bytes per grid point of the heaviest grid command, the Bogoliubov row fold
# behind `stokes` (tracemalloc: 856-879 at 2001 and 20001 points, N = 10 and 50;
# `spectrum` and `bandwidth-scan` 296-320, `noise` 392-400).
_BYTES_PER_POINT = 1000


# ---------------------------------------------------------------------------
# config resolution: file -> dict, flags override, then validate

def _pick(args, attr: str, doc: dict, key: str, default):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, attr, None)
    if flag is not None:
        return flag
    return doc.get(key, default)


def _object(doc: dict, key: str, default: dict) -> dict:
    """Config-file object ``key``; ``default`` when it is absent, null or empty."""
    value = doc.get(key)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value or default


def _as_bool(value, name: str) -> bool:
    """A flag's True or a config-file true/false; anything else names ``name``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a boolean (true or false), got {value!r}")
    return value


def _resolve_array_config(args, doc: dict) -> ArrayConfig:
    profile = dict(_object(doc, "profile", _DEFAULT_PROFILE))
    kind_flag = getattr(args, "profile", None)
    if kind_flag is not None:
        profile["kind"] = kind_flag
        profile.setdefault("g_bar1", 0.08)
        profile.setdefault("g_bar2", profile["g_bar1"])
    g = getattr(args, "g", None)
    if g is not None:
        if profile.get("kind") == "explicit":
            raise ConfigError("--g cannot override an explicit coupling profile")
        profile["g_bar1"] = profile["g_bar2"] = g
    beta = getattr(args, "beta", None)
    if beta is not None:
        if profile.get("kind") != "tanh":
            raise ConfigError("--beta applies only to the tanh profile")
        profile["beta"] = beta
    merged = {
        "schema_version": SCHEMA_VERSION,
        "n_sites": _pick(args, "n", doc, "n_sites", 10),
        "profile": profile,
        "kappa1": _pick(args, "kappa1", doc, "kappa1", 1.0),
        "kappa2": _pick(args, "kappa2", doc, "kappa2", 1.0),
        "gamma": _pick(args, "gamma", doc, "gamma", 0.0),
        "n_bar": _pick(args, "n_bar", doc, "n_bar", 0.0),
    }
    if "kappa_ref" in doc:
        merged["kappa_ref"] = doc["kappa_ref"]
    return config_from_dict(merged)


def _resolve_grid(args, doc: dict, default_half_width: float,
                  default_points: int, center: float = 0.0) -> FrequencyGrid:
    gdoc = _object(doc, "grid", {})
    omega_max = _pick(args, "omega_max", gdoc, "omega_max", None)
    omega_min = _pick(args, "omega_min", gdoc, "omega_min", None)
    points = _pick(args, "points", gdoc, "points", default_points)
    try:
        omega_max = (center + default_half_width if omega_max is None
                     else _as_float(omega_max, "omega_max"))
        omega_min = (2 * center - omega_max if omega_min is None
                     else _as_float(omega_min, "omega_min"))
        grid = FrequencyGrid(omega_min, omega_max, _as_int(points, "points"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid frequency grid: {exc}") from exc
    # half of physical memory, checked before any array is allocated
    budget = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
    if grid.n_points * _BYTES_PER_POINT > budget:
        raise ConfigError(f"a grid of {grid.n_points} points is over the memory budget "
                          f"({budget / 2**30:.3g} GiB at {_BYTES_PER_POINT} bytes per point)")
    return grid


def _grid_dict(grid: FrequencyGrid) -> dict:
    return {"omega_min": grid.omega_min, "omega_max": grid.omega_max,
            "points": grid.n_points}


def _pick_floats(args, attr: str, doc: dict, default: list) -> list:
    """Flag ``--attr``'s comma-separated numbers if given, else config-file
    list ``attr`` (each entry through ``_as_float``), else ``default``."""
    text = getattr(args, attr)
    if text is not None:
        try:
            return [float(part) for part in text.split(",") if part.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"--{attr} must be a comma-separated list of numbers: "
                              f"{text!r}") from exc
    values = doc.get(attr, default)
    if not isinstance(values, list):
        raise ConfigError(f"{attr} must be a list of numbers")
    return [_as_float(v, f"{attr}[{i}]") for i, v in enumerate(values)]


def _write_manifest(out: str, command: str, config: dict, outputs: list,
                    started: float) -> str:
    path = f"{out}_manifest.json"
    doc = {
        "command": command,
        "tool_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "duration_seconds": round(time.perf_counter() - started, 6),
        "outputs": outputs,
    }
    _write_json(path, doc)
    return path


# ---------------------------------------------------------------------------
# subcommands: each returns the manifest's config and an ordered map from
# output-path suffix to a writer of its computed data (``writer(path)``)

def cmd_spectrum(args, doc: dict):
    config = _resolve_array_config(args, doc)
    grid = _resolve_grid(args, doc, default_half_width=2.0, default_points=2001)
    sp = conversion_spectrum(config, grid)
    bw = extract_bandwidth(sp)
    return ({"array": config_to_dict(config), "grid": _grid_dict(grid)},
            {".csv": partial(spectrum_to_csv, sp),
             "_bandwidth.json": partial(bandwidth_to_json, bw)})


def cmd_bandwidth_scan(args, doc: dict):
    base = _resolve_array_config(args, doc)
    if base.profile.kind == "explicit":
        raise ConfigError("bandwidth-scan needs a parametric profile (linear or tanh)")
    n_lo = _count("n_min", _as_int(_pick(args, "n_min", doc, "n_min", 1), "n_min"))
    n_hi = _count("n_max", _as_int(_pick(args, "n_max", doc, "n_max", 200), "n_max"), n_lo)
    grid = _resolve_grid(args, doc, default_half_width=2.5, default_points=1201)
    asymmetric = _as_bool(_pick(args, "asymmetric", doc, "asymmetric", False), "asymmetric")

    # closed-form columns use the mean linewidth of a (possibly ramped) rule
    k1 = _as_ramp(base.kappa1)
    kappa = 0.5 * (k1[0] + k1[1])
    # the asymmetric scenario's rule: kappa2 = 10 * kappa1 at every site
    k2 = 10 * kappa if k1[0] == k1[1] else (10 * k1[0], 10 * k1[1])
    g = base.profile.g_bar1

    def fwhm_at(config) -> float:
        return extract_bandwidth(conversion_spectrum(config, grid)).fwhm

    def row(n: int) -> list:
        cfg = replace(base, n_sites=n)
        out = [n, fwhm_at(cfg), bandwidth_analytic(g, kappa, n), 4 * g * g * n / kappa]
        if asymmetric:
            out.append(fwhm_at(replace(cfg, kappa2=k2)))
        return out

    header = "n,fwhm_numeric,fwhm_eq4,fwhm_linear_fit"
    if asymmetric:
        header += ",fwhm_asymmetric"
    rows = [row(n) for n in range(n_lo, n_hi + 1)]
    return ({"array": config_to_dict(base), "grid": _grid_dict(grid),
             "n_min": n_lo, "n_max": n_hi, "asymmetric": asymmetric},
            {".csv": partial(_write_csv, header=header, rows=rows)})


def cmd_noise(args, doc: dict):
    config = _resolve_array_config(args, doc)
    grid = _resolve_grid(args, doc, default_half_width=2.0, default_points=2001)
    sp = added_noise_spectrum(config, grid)
    return ({"array": config_to_dict(config), "grid": _grid_dict(grid)},
            {".csv": partial(noise_to_csv, sp)})


def cmd_stokes(args, doc: dict):
    config = _resolve_array_config(args, doc)
    # checked here, before the grid is centred on it
    omega_m = _number("omega_m", _as_float(_pick(args, "omega_m", doc, "omega_m", 10.0),
                                           "omega_m"), gt=0)
    grid = _resolve_grid(args, doc, default_half_width=1.5, default_points=2001,
                         center=omega_m)
    sp = stokes_noise_spectrum(config, omega_m, grid)
    return ({"array": config_to_dict(config), "grid": _grid_dict(grid),
             "omega_m": omega_m}, {".csv": partial(stokes_to_csv, sp)})


def cmd_loss(args, doc: dict):
    config = _resolve_array_config(args, doc)
    param = _pick(args, "param", doc, "param", "kappa_int")
    values = _pick_floats(args, "values", doc, [0.0, 0.005, 0.01, 0.02, 0.05])
    rows = efficiency_vs_loss(param, values, materialize_sites(config))
    return ({"array": config_to_dict(config), "param": param, "values": values},
            {".csv": partial(sweep_to_csv, rows)})


def cmd_backscatter(args, doc: dict):
    config = _resolve_array_config(args, doc)
    ratios = _pick_floats(args, "ratios", doc, [0.02, 0.05, 0.1, 0.15, 0.2])
    zeta = _as_float(_pick(args, "zeta", doc, "zeta", 0.0), "zeta")
    fit_alpha = _as_bool(_pick(args, "fit_alpha", doc, "fit_alpha", False), "fit_alpha")
    table = backscatter_efficiency_table(ratios, materialize_sites(config), zeta=zeta)
    writers = {".csv": partial(sweep_to_csv, table)}
    if fit_alpha:
        writers["_alpha.json"] = partial(alpha_fit_to_json, backscatter_alpha_fit(table))
    return ({"array": config_to_dict(config), "ratios": ratios,
             "zeta": zeta, "fit_alpha": fit_alpha}, writers)


def cmd_optimize(args, doc: dict):
    """Also returns exit code 4 when the optimizer finds no profile with
    every in-band trough on the passband floor."""
    n = _as_int(_pick(args, "n", doc, "n_sites", 2), "n_sites")
    gamma_total = _as_float(_pick(args, "gamma_total", doc, "gamma_total", 0.05),
                            "gamma_total")
    min_eff = _as_float(_pick(args, "min_eff", doc, "min_efficiency", 0.99),
                        "min_efficiency")
    problem = OptimizationProblem(n_sites=n, gamma_total=gamma_total,
                                  min_efficiency=min_eff)
    result = optimize_couplings(problem)
    config = {"problem": {"n_sites": n, "gamma_total": gamma_total,
                          "min_efficiency": min_eff}}
    writers = {".json": partial(result_to_json, problem, result)}
    if not result.converged:
        print(f"optimization infeasible: no profile with every trough on the floor "
              f"(passband floor {result.passband_min:.6g}, required {min_eff:.6g})",
              file=sys.stderr)
        return config, writers, 4
    return config, writers


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(p: argparse.ArgumentParser, default_out: str) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--out", default=default_out,
                   help="output path prefix (default: %(default)s)")


def _add_array_flags(p: argparse.ArgumentParser, with_n: bool = True) -> None:
    if with_n:
        p.add_argument("--n", type=int, help="number of array sites")
    p.add_argument("--profile", choices=("linear", "tanh"),
                   help="coupling profile shape")
    p.add_argument("--g", type=float, help="peak coupling rate (both lanes)")
    p.add_argument("--beta", type=float, help="tanh ramp steepness")
    p.add_argument("--kappa1", type=float, help="microwave cavity linewidth")
    p.add_argument("--kappa2", type=float, help="optical cavity linewidth")
    p.add_argument("--gamma", type=float, help="mechanical linewidth")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-min", type=float, help="grid lower edge")
    p.add_argument("--omega-max", type=float, help="grid upper edge")
    p.add_argument("--points", type=int, help="number of grid points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oemarray",
        description="Transducer-array spectra, scans, noise budgets, loss "
                    "sweeps, and coupling optimization as reproducible runs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__} (config schema {SCHEMA_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="conversion spectrum and bandwidth")
    _add_common(p, "spectrum")
    _add_array_flags(p)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("bandwidth-scan", help="bandwidth versus array size")
    _add_common(p, "bandwidth_scan")
    _add_array_flags(p, with_n=False)
    _add_grid_flags(p)
    p.add_argument("--n-min", type=int, help="smallest array size (default 1)")
    p.add_argument("--n-max", type=int, help="largest array size (default 200)")
    p.add_argument("--asymmetric", action="store_true", default=None,
                   help="add a kappa2 = 10*kappa1 scenario column")
    p.set_defaults(func=cmd_bandwidth_scan)

    p = sub.add_parser("noise", help="added-noise spectral densities")
    _add_common(p, "noise")
    _add_array_flags(p)
    _add_grid_flags(p)
    p.add_argument("--n-bar", type=float, help="mechanical bath occupation")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("stokes", help="amplification-noise density near omega_m")
    _add_common(p, "stokes")
    _add_array_flags(p)
    _add_grid_flags(p)
    p.add_argument("--omega-m", type=float, help="mechanical frequency (default 10)")
    p.set_defaults(func=cmd_stokes)

    p = sub.add_parser("loss", help="efficiency versus a loss parameter: resonant "
                                    "for kappa_int and epsilon, the envelope for kappa_l")
    _add_common(p, "loss")
    _add_array_flags(p)
    p.add_argument("--param", choices=("kappa_int", "epsilon", "kappa_l"),
                   help="which loss channel to sweep")
    p.add_argument("--values", help="comma-separated sweep values")
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("backscatter", help="envelope efficiency versus kappa_L/kappa_R")
    _add_common(p, "backscatter")
    _add_array_flags(p)
    p.add_argument("--ratios", help="comma-separated kappa_L/kappa_R ratios")
    p.add_argument("--zeta", type=float, help="per-cell propagation loss exponent")
    p.add_argument("--fit-alpha", action="store_true", default=None,
                   help="also fit the efficiency-deficit slope")
    p.set_defaults(func=cmd_backscatter)

    p = sub.add_parser("optimize", help="constrained bandwidth maximization")
    _add_common(p, "optimize")
    p.add_argument("--n", type=int, help="number of array sites")
    p.add_argument("--gamma-total", type=float, help="summed conversion rate")
    p.add_argument("--min-eff", type=float, help="passband efficiency floor")
    p.set_defaults(func=cmd_optimize)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser ``main`` uses, built on its first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    """The run harness.  ``cmd_x(args, doc)`` returns the manifest's config and
    its writers by output suffix, plus an exit code when that is not 0; then
    each writer gets ``f"{args.out}{suffix}"``, in order, and the manifest
    follows.  So runs that exit 2 or 3 while computing write no file; an
    ``--out`` path that cannot be written exits 2."""
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        doc = _read_doc(args.config) if args.config else {}
        # data are checked finite before any write; numpy's warnings add nothing
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_: print("warning:", msg, file=sys.stderr)
            config, writers, *code = args.func(args, doc)
        outputs = [f"{args.out}{suffix}" for suffix in writers]
        for path, write in zip(outputs, writers.values()):
            write(path)
        _write_manifest(args.out, args.command, config, outputs, started)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SingularMatrixError, SpectrumError, OverflowError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a data file or the manifest cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return code[0] if code else 0


if __name__ == "__main__":
    sys.exit(main())
