"""Array assembly: cascaded transfer matrices, spectra, and bandwidths.

An array of transducer sites acts on the two propagating fields as the
ordered matrix product T(omega) = S_N ... S_1.  This module builds that
product, sweeps it over a frequency grid, and extracts the figures of
merit used throughout: conversion bandwidth (numeric and closed-form),
passband ripple, accumulated conversion phase, and the waveguide
dispersion relation that controls bandwidth saturation for unequal
cavity linewidths.

One site loop, ``_fold``, builds the product.  It folds the entries the
public site kernels return (``_entries=True``), called once per site because
the benchmark times them, and within one call the full sites of equal
linewidths share the frequency factors of ``scattering_full``
(``_site_matrices``, which the noise cascade's suffix sum uses too).
``array_transfer`` folds all four entries.  The callers that read only T21
fold column 0 alone (``_t21``), which gives the same bits from half the
products: the spectrum's evaluator, the optimizer's surrogate
(``optimize._grid_metrics``) and the noise band window.  The spectrum's own
sweep stays on ``array_transfer``, because the benchmark's cascade sweep
metric is timed from those calls.  The optimizer's adjoint gradient
(``optimize._t21_gradient``) needs partial products and sweeps its own site
matrices.
Half-max crossings are refined by exact batched bisection: the result is
bit for bit that of a scalar bisection loop, but each round evaluates the
spectrum's evaluator once, on an array of candidate midpoints.

Free propagation between sites is deliberately absent here: with equal
phases in both lanes it drops out of every conversion magnitude.  The
lossy two-sided model reinstates it.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (ArrayConfig, FrequencyGrid, SpectrumError, _count, _number,
                   _write_csv, _write_json, materialize_sites)
from .transducer import (
    EliminatedSite,
    _omega_factors,
    _pack22,
    offres_coefficients,
    scattering_eliminated,
    scattering_full,
)

__all__ = [
    "Spectrum",
    "BandwidthResult",
    "array_transfer",
    "conversion_spectrum",
    "eliminated_spectrum",
    "extract_bandwidth",
    "bandwidth_analytic",
    "halfmax_roots_analytic",
    "perturbative_t21",
    "phase_winding",
    "waveguide_dispersion",
    "spectrum_to_csv",
    "bandwidth_to_json",
]


@dataclass(eq=False)
class Spectrum:
    """Conversion amplitude sampled on a frequency grid.

    ``evaluator`` recomputes T21 of the same model at arbitrary
    frequencies; bandwidth extraction uses it so that reported widths do
    not depend on the grid spacing.  It must accept an array of
    frequencies and return T21 of the same shape, and accept a scalar
    too.  Bandwidth extraction relies on it giving the same bits at a
    frequency whether that frequency is passed alone or inside an array.
    """

    grid: FrequencyGrid
    t21: np.ndarray
    evaluator: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if np.shape(self.t21) != (self.grid.n_points,):
            raise ValueError(f"t21 has shape {np.shape(self.t21)}, but the grid "
                             f"has {self.grid.n_points} points")


@dataclass(frozen=True)
class BandwidthResult:
    fwhm: float
    omega_lo: float
    omega_hi: float
    peak_value: float
    passband_min: float


def array_transfer(sites: Sequence, omega) -> np.ndarray:
    """Ordered product S_N ... S_1 of single-site scattering matrices.

    Accepts full sites (SiteParams) or eliminated ones (EliminatedSite),
    and a scalar or array of frequencies; returns ``np.shape(omega) + (2, 2)``,
    laid out entry-major like the site kernels' results.  The four entries
    are folded as separate arrays by elementwise multiply-adds: matmul on
    2x2 stacks calls BLAS once per point.  Callers that need T21 alone use
    ``_t21``, which gives this product's ``[..., 1, 0]`` bit for bit.
    """
    return _pack22(_fold(sites, omega, column=False), np.shape(omega))


def _t21(sites: Sequence, omega):
    """``array_transfer(sites, omega)[..., 1, 0]``, bit for bit."""
    return _fold(sites, omega, column=True)[1]


def _fold(sites, omega, column: bool):
    """Entries of S_N ... S_1, or with ``column`` only its column 0.

    Column 0 of a product depends only on column 0 of the product before
    it, and each entry is formed as ``_mul2`` forms it, so the column fold
    gives the full fold's bits from half the operations.
    """
    if len(sites) == 0:
        raise ValueError("need at least one site")
    mul = np.multiply
    t = None
    for s in _site_matrices(sites, omega):
        if t is None:
            t = (s[0], s[2]) if column else s
        elif column:
            s00, s01, s10, s11 = s
            t = (mul(s00, t[0]) + mul(s01, t[1]), mul(s10, t[0]) + mul(s11, t[1]))
        else:
            t = _mul2(s, t)
    return t


def _site_matrices(sites, omega):
    """Entries (s00, s01, s10, s11) of each site's scattering matrix at
    ``omega``, in order, straight from the public site kernels.

    Full sites with equal (kappa1, kappa2, gamma) share one set of
    ``transducer._omega_factors``, and eliminated sites one ``1j * omega``.
    The key carries gamma's sign, because 0.0 and -0.0 are equal keys but
    need not give equal bits.
    """
    w = np.asarray(omega, dtype=float)
    shared = {}
    iw = None
    for site in sites:
        if isinstance(site, EliminatedSite):
            if iw is None:
                iw = 1j * w
            yield scattering_eliminated(site, w, _iw=iw, _entries=True)
            continue
        rates = (site.kappa1, site.kappa2, site.gamma)
        key = rates + (math.copysign(1.0, site.gamma),)
        factors = shared.get(key)
        if factors is None:
            factors = shared[key] = _omega_factors(*rates, w)
        yield scattering_full(site, w, _factors=factors, _entries=True)


def _mul2(a, b):
    """Entries of a @ b, for 2x2 stacks given by their entries; products go
    through ``np.multiply``, as in ``transducer._omega_factors``."""
    mul = np.multiply
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (mul(a00, b00) + mul(a01, b10), mul(a00, b01) + mul(a01, b11),
            mul(a10, b00) + mul(a11, b10), mul(a10, b01) + mul(a11, b11))


def conversion_spectrum(config: ArrayConfig, grid: FrequencyGrid) -> Spectrum:
    """Sweep the array transfer matrix of ``config`` over ``grid``."""
    sites = materialize_sites(config)
    return _spectrum_from_sites(sites, grid)


def eliminated_spectrum(sites: Sequence[EliminatedSite], grid: FrequencyGrid) -> Spectrum:
    """Sweep the eliminated-picture cascade over ``grid``."""
    return _spectrum_from_sites(list(sites), grid)


def _spectrum_from_sites(sites, grid) -> Spectrum:
    return Spectrum(
        grid=grid,
        t21=array_transfer(sites, grid.points())[..., 1, 0].copy(),
        evaluator=lambda w: _t21(sites, w),
    )


def extract_bandwidth(spectrum: Spectrum) -> BandwidthResult:
    """Full width at half maximum of the conversion spectrum.

    The width is measured between the outermost crossings of half the
    global maximum of |T21|^2, each refined by bisection on the
    spectrum's evaluator to 1e-6 (in grid frequency units).  The
    bisection is batched: the evaluator is called at the two grid points
    around each crossing, then once per round on an array of midpoints,
    which gives the scalar loop's result bit for bit.  When the evaluator
    disagrees with the samples so that a pair of grid points does not
    bracket half-max, a RuntimeWarning is emitted and the nearer point is
    used.  Ripple
    inside the passband is reported as ``passband_min``, the smallest
    |T21|^2 between the outermost local maxima that exceed half-max.
    """
    w = spectrum.grid.points()
    peak, half, i_first, i_last, passband_min = _halfmax(np.abs(spectrum.t21) ** 2)
    if spectrum.evaluator is None:
        raise ValueError("spectrum has no evaluator; cannot refine crossings")

    lo, hi = _bisect_crossings(
        spectrum.evaluator, half,
        [(w[i_first - 1], w[i_first]), (w[i_last], w[i_last + 1])])
    return BandwidthResult(
        fwhm=hi - lo, omega_lo=lo, omega_hi=hi,
        peak_value=peak, passband_min=passband_min)


def _halfmax(v: np.ndarray):
    """Half-max analysis of a sampled |T21|^2.

    Returns ``(peak, half, i_first, i_last, passband_min)``: the global
    maximum, half of it, the first and last grid indices at or above half,
    and the smallest value between the outermost local maxima above half.
    Raises SpectrumError when the samples are not finite, have no positive
    maximum, or reach half-max on the grid edge.
    """
    peak = float(v.max())
    # v >= 0 and max propagates NaN, so the peak alone tells finiteness
    if not math.isfinite(peak):
        raise SpectrumError("conversion spectrum is not finite")
    if peak <= 0:
        raise SpectrumError("no positive maximum in spectrum")
    half = peak / 2

    above = v >= half
    idx = np.flatnonzero(above)
    i_first, i_last = int(idx[0]), int(idx[-1])
    if i_first == 0 or i_last == len(v) - 1:
        raise SpectrumError("no half-max crossing inside grid")

    mid = v[1:-1]
    # past the edge check the global maximum is an inner local maximum, so
    # ``peaks`` is never empty
    peaks = np.flatnonzero((mid >= v[:-2]) & (mid >= v[2:]) & above[1:-1]) + 1
    return peak, half, i_first, i_last, float(v[peaks[0]:peaks[-1] + 1].min())


_TREE_DEPTH = 7


def _bisect_crossings(evaluator, half: float, brackets, tol: float = 1e-6):
    """Crossings of |T21|^2 = ``half`` in the (lower, upper) ``brackets``.

    Gives bit for bit what bisecting each bracket with one scalar
    ``evaluator`` call per midpoint gives, from fewer calls.  The two ends
    of each bracket are scalar calls, and they decide whether the bracket
    holds; when it does not, the nearer end is returned, with a
    RuntimeWarning naming the crossing unless that end is within rounding
    of half-max.  Then each round evaluates, for every open bracket, all
    midpoints the next ``_TREE_DEPTH`` steps could visit, in one array
    call, and replays the loop's decisions through them.  This is
    exact because the cascade gives the same bits at a scalar frequency as
    at that frequency inside an array.  Where the loop would never end, at
    adjacent floats more than ``tol`` apart, it ends at their midpoint.
    """
    def excess(value) -> float:
        return abs(complex(value)) ** 2 - half

    roots = [None] * len(brackets)
    open_ = {}
    for k, (a, b) in enumerate(brackets):
        fa, fb = excess(evaluator(a)), excess(evaluator(b))
        if fa == 0:
            roots[k] = a
        elif fb == 0:
            roots[k] = b
        elif fa * fb > 0:
            # samples and evaluator may round |T21| differently, so an end
            # within rounding of half-max is a crossing, not a failed bracket
            if min(abs(fa), abs(fb)) > 4 * sys.float_info.epsilon * half:
                warnings.warn(
                    f"{('lower', 'upper')[k]} half-max crossing is not "
                    f"bracketed by [{float(a)!r}, {float(b)!r}]: |T21|^2 - half "
                    f"is {fa:.3g} and {fb:.3g} there; returning the nearer end",
                    RuntimeWarning, stacklevel=3)
            roots[k] = a if abs(fa) < abs(fb) else b
        elif b - a > tol:
            open_[k] = (a, fa, b, fb)
        else:
            roots[k] = 0.5 * (a + b)
    while open_:
        trees = {k: _midpoints(a, b, tol) for k, (a, _, b, _) in open_.items()}
        values = evaluator(np.concatenate(list(trees.values())))
        offset = 0
        for k, mids in trees.items():
            a, fa, b, fb = open_.pop(k)
            i = 0
            while i < len(mids) and b - a > tol:
                m, fm = mids[i], excess(values[offset + i])
                if fm == 0:
                    roots[k] = m
                    break
                if not a < m < b:  # adjacent floats: the bracket cannot shrink
                    roots[k] = 0.5 * (a + b)
                    break
                if fa * fm < 0:
                    b, fb, i = m, fm, 2 * i + 1
                else:
                    a, fa, i = m, fm, 2 * i + 2
            else:
                if b - a > tol:
                    open_[k] = (a, fa, b, fb)
                else:
                    roots[k] = 0.5 * (a + b)
            offset += len(mids)
    return roots


def _midpoints(a, b, tol):
    """Every midpoint bisecting [a, b] can visit in its next steps, formed as
    the loop forms them, in heap order: the halves of node i start at nodes
    2i+1 (lower) and 2i+2 (upper).  The depth is ``_TREE_DEPTH``, or the
    number of halvings that bring b - a to ``tol`` when that is fewer.

    Each level keeps its sorted bracket ends ``e``; the next level's ends
    interleave ``e`` with the midpoints of its neighbours."""
    depth = min(_TREE_DEPTH, math.ceil(math.log2((b - a) / tol)))
    e, levels = np.array([a, b]), []
    for _ in range(depth):
        mid = 0.5 * (e[:-1] + e[1:])
        levels.append(mid)
        ends = np.empty(2 * len(e) - 1)
        ends[0::2], ends[1::2] = e, mid
        e = ends
    return np.concatenate(levels)


def bandwidth_analytic(g: float, kappa: float, n_sites: int) -> float:
    """Closed-form large-N conversion bandwidth of a symmetric array.

    Grows with the cube root of g^2 * kappa * N, so doubling the
    bandwidth costs an eightfold longer array.
    """
    _number("g", g, ge=0)
    _number("kappa", kappa, gt=0)
    _count("n_sites", n_sites)
    return float(np.cbrt(4 * np.sqrt(2) / 3 * g * g * kappa * n_sites))


def halfmax_roots_analytic(g: float, kappa: float, n_sites: int):
    """Half-max frequencies (omega_minus, omega_plus) of the perturbative
    conversion spectrum, from the real root of its cubic in omega^2.

    At N=1 the two numerator terms coincide algebraically and the root
    sits exactly at zero, so that case is returned exactly rather than
    through the floating-point cancellation.

    2*omega_plus approaches ``bandwidth_analytic`` from below with the
    leading relative gap 3^(1/3) kappa^2 / (12*sqrt(2) g^2 kappa N)^(2/3),
    i.e. as N^(-2/3).
    """
    _number("g", g, ge=0)
    _number("kappa", kappa, gt=0)
    if _count("n_sites", n_sites) == 1:
        return 0.0, 0.0
    n = float(n_sites)
    factor = (n * n - 1) / n
    p = 6 * np.sqrt(2) * g * g * kappa * factor \
        + kappa * np.sqrt(72 * g ** 4 * factor ** 2 + 3 * kappa ** 4)
    omega_plus = float(
        (-3 ** (2 / 3) * kappa ** 2 + 3 ** (1 / 3) * p ** (2 / 3))
        / (6 * p ** (1 / 3)))
    return -omega_plus, omega_plus


def perturbative_t21(config: ArrayConfig, omega):
    """First-order conversion amplitude t^(N-1) * sum_j c_j.

    Valid far from the mechanical resonance where every per-site
    conversion amplitude c_j is small; a UserWarning is emitted when
    max |c_j| exceeds 0.1.  Requires one common cavity linewidth across
    the array.
    """
    sites = materialize_sites(config)
    kappas = {s.kappa1 for s in sites} | {s.kappa2 for s in sites}
    if len(kappas) != 1:
        raise ValueError(
            "perturbative form requires one common cavity linewidth")

    total = 0.0 + 0.0j
    worst = 0.0
    t = None
    for site in sites:
        t, c = offres_coefficients(site, omega)
        total = total + c
        worst = max(worst, float(np.max(np.abs(c))))
    if worst > 0.1:
        warnings.warn(
            f"per-site conversion amplitude reaches {worst:.3g}; "
            "perturbative result unreliable this close to resonance",
            stacklevel=2)
    return t ** (len(sites) - 1) * total


def phase_winding(spectrum: Spectrum) -> float:
    """Total phase accumulated by T21 across the grid, in radians.

    Unwraps point to point on the nearest branch; fails when the
    amplitude vanishes (phase undefined) or when an adjacent step
    reaches pi (aliasing: the grid cannot resolve the winding).
    """
    t = np.asarray(spectrum.t21)
    if np.any(np.abs(t) == 0):
        raise SpectrumError("conversion amplitude vanishes; phase undefined")
    steps = np.angle(t[1:] / t[:-1])
    if np.any(np.abs(steps) >= np.pi * (1 - 1e-9)):
        raise SpectrumError(
            "phase aliasing: adjacent grid points differ by >= pi")
    return float(np.sum(steps))


def waveguide_dispersion(omega, v: float, kappa_eff: float):
    """Wavenumber of a propagating field dressed by the cavity chain."""
    _number("v", v, gt=0)
    _number("kappa_eff", kappa_eff, ge=0)
    w = np.asarray(omega, dtype=float)
    if np.any(w == 0):
        raise ValueError("dispersion relation has a pole at omega = 0")
    k = w / v - kappa_eff ** 2 / (v * w)
    return float(k) if w.ndim == 0 else k


def spectrum_to_csv(spectrum: Spectrum, path) -> None:
    """Write the spectrum as CSV (12 significant digits, LF endings)."""
    phase = np.unwrap(np.angle(spectrum.t21))
    # Python's scalar abs, not np.abs, which differs by one ulp on some values
    _write_csv(path, "omega,re_t21,im_t21,abs2_t21,phase_unwrapped",
               ((w, t.real, t.imag, abs(t) ** 2, p) for w, t, p in
                zip(spectrum.grid.points().tolist(), spectrum.t21.tolist(),
                    phase.tolist())))


def bandwidth_to_json(result: BandwidthResult, path=None) -> dict:
    doc = asdict(result)
    _write_json(path, doc)
    return doc
