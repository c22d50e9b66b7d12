"""Output checks: physical invariants plus agreement with stored references.

``check(kind, params, summary, ref)`` returns a list of failure messages;
an empty list means the job passed.  ``ref`` is ``None`` while references
are being made, so that only outputs that pass the invariants become
references.  Manifests are never compared, since they carry timings.

Tolerances:
- crossings and widths: 5e-6 in grid units (bisection stops at 1e-6 per
  crossing);
- sampled spectra and sweep values: 1e-6 relative plus 1e-10 absolute;
- integrals from the adaptive quadrature: 1e-3 relative (ten times the
  quadrature's own stopping tolerance);
- optimizer: bandwidth no less than the reference's minus
  max(1e-6, 1e-3 * gamma_total), and no less than the grid oracle's minus
  its resolution gamma_total / 400.
"""

from __future__ import annotations

import math

PASSIVE = 1 + 1e-9
WIDTH_TOL = 5e-6
REL_TOL = 1e-6
ABS_TOL = 1e-10
QUAD_RTOL = 1e-3


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def _close(a, b, rel=REL_TOL, abs_=ABS_TOL) -> bool:
    return _finite(a, b) and abs(a - b) <= rel * abs(b) + abs_


def _ceiling(epsilon: float, n: int) -> float:
    return (1.0 - epsilon) ** (2 * n)


def _spectrum(p, s, ref, errs):
    if s["rows"] != 1201 or not s["abs2_finite"]:
        errs.append("spectrum CSV has wrong row count or non-finite values")
    if not s["abs2_max"] <= PASSIVE:
        errs.append(f"|T21|^2 reaches {s['abs2_max']!r} > 1")
    lo, hi, fwhm = s["omega_lo"], s["omega_hi"], s["fwhm"]
    if not (_finite(lo, hi, fwhm) and lo < hi and abs(fwhm - (hi - lo)) <= 1e-12):
        errs.append(f"FWHM not finite with omega_lo < omega_hi: {lo!r}, {hi!r}, {fwhm!r}")
    if not _close(s["peak_value"], s["abs2_max"], 1e-9, 0.0):
        errs.append("bandwidth peak differs from the CSV maximum")
    if ref is not None:
        for key in ("omega_lo", "omega_hi", "fwhm"):
            if not _close(s[key], ref[key], 0.0, WIDTH_TOL):
                errs.append(f"{key} {s[key]!r} differs from reference {ref[key]!r}")
        for key in ("peak_value", "passband_min"):
            if not _close(s[key], ref[key]):
                errs.append(f"{key} {s[key]!r} differs from reference {ref[key]!r}")


def _bandwidth_scan(p, s, ref, errs):
    want = ["n", "fwhm_numeric", "fwhm_eq4", "fwhm_linear_fit", "fwhm_asymmetric"]
    if s["header"] != want or len(s["rows"]) != p["n_max"] - p["n_min"] + 1:
        errs.append("bandwidth-scan CSV has wrong header or row count")
        return
    for row, n in zip(s["rows"], range(p["n_min"], p["n_max"] + 1)):
        if row[0] != n or not (_finite(*row) and min(row[1:]) > 0):
            errs.append(f"bandwidth-scan row for n={n} is not finite and positive: {row}")
    if ref is not None:
        for row, rrow in zip(s["rows"], ref["rows"]):
            for col in (1, 4):
                if not _close(row[col], rrow[col], 0.0, WIDTH_TOL):
                    errs.append(f"{want[col]} at n={row[0]:g} differs from reference")
            for col in (2, 3):
                if not _close(row[col], rrow[col], 1e-9, 0.0):
                    errs.append(f"{want[col]} at n={row[0]:g} differs from reference")


def _density(keys):
    def check(p, s, ref, errs):
        if s["rows"] != 2001 or not s["finite"] or not s["min"] >= 0:
            errs.append("density CSV has wrong row count, non-finite or negative values")
        if ref is not None:
            for key in keys:
                if not _close(s[key], ref[key]):
                    errs.append(f"{key} {s[key]!r} differs from reference {ref[key]!r}")
    return check


def _integrated(p, s, ref, errs):
    values = s["value"] if isinstance(s["value"], list) else [s["value"]]
    if not (_finite(*values) and min(values) >= 0):
        errs.append(f"integrated noise not finite and nonnegative: {values}")
    elif ref is not None:
        refs = ref["value"] if isinstance(ref["value"], list) else [ref["value"]]
        if not all(_close(v, r, QUAD_RTOL, 0.0) for v, r in zip(values, refs)):
            errs.append(f"integrated noise {values} differs from reference {refs}")


def _sweep(kind):
    def check(p, s, ref, errs):
        sent = p["values"] if kind == "loss" else p["ratios"]
        if len(s["eff"]) != len(sent) or not all(
                _close(a, b, 1e-9, 0.0) for a, b in zip(s["params"], sent)):
            errs.append("sweep rows do not match the requested values")
            return
        for value, eff in zip(sent, s["eff"]):
            eps = value if (kind == "loss" and p["param"] == "epsilon") else p.get("epsilon", 0.0)
            if not (_finite(eff) and 0 <= eff <= PASSIVE):
                errs.append(f"efficiency {eff!r} at {value:g} is not passive")
            elif eff > _ceiling(eps, p["n"]) * PASSIVE:
                errs.append(f"efficiency {eff!r} at {value:g} exceeds the "
                            f"propagation-loss ceiling {_ceiling(eps, p['n']):.3g}")
        if kind == "backscatter" and not _finite(s["alpha"]["alpha"], s["alpha"]["stderr"]):
            errs.append("alpha fit is not finite")
        if ref is not None:
            if not all(_close(a, b) for a, b in zip(s["eff"], ref["eff"])):
                errs.append(f"efficiencies {s['eff']} differ from reference {ref['eff']}")
            if kind == "backscatter" and not _close(s["alpha"]["alpha"], ref["alpha"]["alpha"]):
                errs.append("alpha differs from reference")
    return check


def _lossy_array(p, s, ref, errs):
    if not s["finite"] or s["points"] != 1201:
        errs.append("lossy scattering has non-finite entries or wrong shape")
        return
    if not s["sigma_max"] <= PASSIVE:
        errs.append(f"not passive: sigma_max(S) = {s['sigma_max']!r}")
    ceiling = _ceiling(p["epsilon"], p["n"])
    if not s["t21_max"] <= ceiling * PASSIVE:
        errs.append(f"|T21|^2 = {s['t21_max']!r} exceeds the propagation-loss "
                    f"ceiling {ceiling:.3g}")
    if not s["site_asymmetry"] <= 1e-12:
        errs.append(f"cell scattering not reciprocal: |S - S^T| = {s['site_asymmetry']!r}")
    if ref is not None:
        for key in ("t21_max", "t21_sum"):
            if not _close(s[key], ref[key]):
                errs.append(f"{key} {s[key]!r} differs from reference {ref[key]!r}")


def _optimize(p, s, ref, errs):
    gt, n = p["gamma_total"], p["n"]
    if not s["converged"]:
        errs.append("optimization did not converge")
    if not (_finite(s["bandwidth"], s["passband_min"]) and s["bandwidth"] > 0):
        errs.append("bandwidth not finite and positive")
        return
    if s["passband_min"] < p["min_eff"] - 1e-6:
        errs.append(f"passband_min {s['passband_min']!r} below floor {p['min_eff']}")
    g1 = s["gamma1"]
    if len(g1) != n or not all(0 <= g <= gt for g in g1) or any(
            abs(g1[i] + g1[n - 1 - i] - gt) > 1e-12 * gt for i in range(n)):
        errs.append(f"profile {g1} is not a mirror-symmetric split of {gt}")
    if ref is not None:
        if s["bandwidth"] < ref["bandwidth"] - max(1e-6, 1e-3 * gt):
            errs.append(f"bandwidth {s['bandwidth']!r} below reference {ref['bandwidth']!r}")
        if s["bandwidth"] < ref["oracle_bandwidth"] - gt / 400:
            errs.append(f"bandwidth {s['bandwidth']!r} below grid oracle "
                        f"{ref['oracle_bandwidth']!r}")


_CHECKS = {
    "spectrum": _spectrum,
    "bandwidth_scan": _bandwidth_scan,
    "noise": _density(("int1", "int2", "max1", "max2")),
    "stokes": _density(("int", "max")),
    "integrated_added": _integrated,
    "integrated_stokes": _integrated,
    "loss": _sweep("loss"),
    "backscatter": _sweep("backscatter"),
    "lossy_array": _lossy_array,
    "optimize_n2": _optimize,
    "optimize_n3": _optimize,
}


def check(kind: str, params: dict, summary: dict, ref: dict | None) -> list:
    errs = []
    _CHECKS[kind](params, summary, ref, errs)
    return errs


def passivity_excess(kind: str, summary: dict) -> float | None:
    """Largest sigma_max(S) - 1 seen in a lossy job's output, if any."""
    if kind == "lossy_array":
        return summary["sigma_max"] - 1 if summary["finite"] else math.inf
    if kind in ("loss", "backscatter"):
        # sigma_max(S) >= |T21|, the only entry these runs write out
        return math.sqrt(max(summary["eff"])) - 1
    return None
