"""Array assembly: cascaded transfer matrices, spectra, and bandwidths.

An array of transducer sites acts on the two propagating fields as the
ordered matrix product T(omega) = S_N ... S_1.  This module builds that
product, sweeps it over a frequency grid, and extracts the figures of
merit used throughout: conversion bandwidth (numeric and closed-form),
passband ripple and accumulated conversion phase.

One site loop, ``_fold``, builds the product from the sites' entries, and
within one call the full sites of equal linewidths share the frequency
factors of ``scattering_full``.  ``array_transfer`` folds all four entries,
from the public site kernels (``_entries=True``, ``_site_matrices``, which
the noise cascade's suffix sum uses too), called once per site because the
benchmark times them.  The callers that read only T21 fold column 0 alone
(``_t21``), which gives the same bits from half the products: the
spectrum's evaluator and the noise band window.  On an array of up to
1024 frequencies ``_t21`` computes the kernels' closed form for a block of
sites at once (``_block_matrices``), so the bisection rounds' small arrays
pay numpy's per-call overhead per block, not per site; a scalar frequency
(the bracket ends) and the noise band window still take one kernel call
per site.  The spectrum's own sweep stays on ``array_transfer``, because
the benchmark's cascade sweep metric is timed from those calls.  The
optimizer's surrogate calls no site kernel: with the rate budget fixed, it
builds T21 and its gradients from the sites' polynomial
(``optimize._columns``), and only its refined results come from this
module.
Half-max crossings are refined by exact batched bisection: the result is
bit for bit that of a scalar bisection loop, but each round evaluates the
spectrum's evaluator once, on an array of candidate midpoints.

Free propagation between sites is deliberately absent here: with equal
phases in both lanes it drops out of every conversion magnitude.  The
lossy two-sided model reinstates it.
"""

from __future__ import annotations

import itertools
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
    _eliminated_coefficients,
    _eliminated_combine,
    _eliminated_entries,
    _full_coefficients,
    _full_combine,
    _full_entries,
    _in_range,
    _omega_factors,
    _pack22,
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
    "phase_winding",
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
    return _pack22(_fold(_site_matrices(sites, omega), column=False), np.shape(omega))


def _t21(sites: Sequence, omega):
    """``array_transfer(sites, omega)[..., 1, 0]``, bit for bit.

    An array of at most ``_BLOCK_POINTS // 2`` frequencies takes the
    closed-form entries of up to ``_BLOCK_POINTS // size`` sites at once, as
    (sites, points) arrays, folded site by site (``_block_matrices``): about
    6 numpy calls per site against 22 per kernel call, whose overhead
    dominates the bisection rounds' 126 and 254 points.  A scalar frequency
    (the bracket ends) and a larger array (the noise band window) take one
    public kernel call per site.
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim == 0 or w.size > _BLOCK_POINTS // 2:
        return _fold(_site_matrices(sites, w), column=True)[1]
    return _fold(_block_matrices(sites, w.ravel()), column=True)[1].reshape(w.shape)


def _fold(matrices, column: bool):
    """Entries of S_N ... S_1 from the sites' entries ``matrices``, in order,
    or with ``column`` only its column 0.

    Column 0 of a product depends only on column 0 of the product before
    it, and each entry is formed as ``_mul2`` forms it, so the column fold
    gives the full fold's bits from half the operations.
    """
    mul = np.multiply
    t = None
    for s in matrices:
        if t is None:
            t = (s[0], s[2]) if column else s
        elif column:
            s00, s01, s10, s11 = s
            t = (mul(s00, t[0]) + mul(s01, t[1]), mul(s10, t[0]) + mul(s11, t[1]))
        else:
            t = _mul2(s, t)
    if t is None:
        raise ValueError("need at least one site")
    return t


def _site_matrices(sites, omega):
    """Entries (s00, s01, s10, s11) of each site's scattering matrix at
    ``omega``, in order, straight from the public site kernels.

    Full sites with equal (kappa1, kappa2, gamma) share one set of
    ``transducer._omega_factors`` (``_shared_factors``), and eliminated
    sites one ``1j * omega``.
    """
    w = np.asarray(omega, dtype=float)
    shared = {}
    iw = None
    for site in sites:
        if isinstance(site, EliminatedSite):
            if iw is None:
                iw = 1j * w
            yield scattering_eliminated(site, w, _iw=iw, _entries=True)
        else:
            yield scattering_full(site, w, _factors=_shared_factors(site, w, shared),
                                  _entries=True)


def _shared_factors(site, w, shared: dict):
    """``_omega_factors`` of a full site at ``w``, computed once per distinct
    (kappa1, kappa2, gamma) in ``shared``.  The key carries gamma's sign,
    because 0.0 and -0.0 are equal keys but need not give equal bits."""
    rates = (site.kappa1, site.kappa2, site.gamma)
    key = rates + (math.copysign(1.0, site.gamma),)
    factors = shared.get(key)
    if factors is None:
        factors = shared[key] = _omega_factors(*rates, w)
    return factors


_BLOCK_POINTS = 2048  # the most points in one of _block_matrices' (sites, points) arrays


def _block_matrices(sites, w):
    """``_site_matrices(sites, w)`` for a 1-D ``w``, bit for bit, from the
    terms of up to ``_BLOCK_POINTS // w.size`` consecutive sites of one kind
    at once (``_block_entries``), with no public kernel call.  A block that
    ``_block_entries`` declines takes ``_site_matrices``, so the kernels'
    lift and its errors have the one source.
    """
    size = _BLOCK_POINTS // max(w.size, 1)
    shared = {}
    iw = None
    for eliminated, run in itertools.groupby(sites, key=lambda s: isinstance(s, EliminatedSite)):
        run = list(run)
        if eliminated and iw is None:
            iw = 1j * w
        for start in range(0, len(run), size):
            block = run[start:start + size]
            entries = _block_entries(block, w, eliminated, shared, iw)
            yield from _site_matrices(block, w) if entries is None else entries


def _block_entries(block, w, eliminated: bool, shared: dict, iw):
    """Each site's entries in ``block`` at ``w``, or None where
    ``transducer._lifted`` would lift or raise: a coefficient overflows, or
    the denominator leaves its range (``_in_range``) anywhere.

    The kernels' own formula (``_full_combine`` or ``_eliminated_combine``,
    then their entries) runs once on (sites, points) arrays: each Python-float
    coefficient of the sites becomes one complex column, which is how numpy
    takes a Python float, against the frequency factors shared per rate key
    (``_shared_factors``) or ``iw = 1j * w``.
    """
    try:
        if eliminated:
            c = [_eliminated_coefficients(s.gamma1, s.gamma2) for s in block]
        else:
            c = [_full_coefficients(s.g1, s.g2, s.kappa1, s.kappa2) for s in block]
    except OverflowError:  # a Python float squared
        return None
    c = np.array(c, dtype=complex).T[:, :, None]
    if eliminated:
        terms = _eliminated_combine(c, iw)
    else:
        factors = [_shared_factors(s, w, shared) for s in block]
        if all(f is factors[0] for f in factors):
            factors = factors[0]
        else:
            factors = [np.stack(rows) for rows in zip(*factors)]
        terms = _full_combine(c, factors)
    normal = _in_range(terms[0])
    if np.count_nonzero(normal) < normal.size:
        return None
    return zip(*(_eliminated_entries if eliminated else _full_entries)(terms))


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
    spectrum's evaluator to 2^-13 of the grid step, so the width scales
    with the rates and the grid.  The bisection is batched: the evaluator
    is called at the two grid points around each crossing, then once per
    round on an array of midpoints, which gives the scalar loop's result
    bit for bit.  When the evaluator disagrees with the samples so that a
    pair of grid points does not bracket half-max, a RuntimeWarning is
    emitted and the nearer point is used.  Ripple inside the passband is
    reported as ``passband_min``, the smallest |T21|^2 between the
    outermost local maxima that exceed half-max.
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


_ROUNDS = (7, 6)  # 13 halvings of each grid bracket, in two array calls


def _bisect_crossings(evaluator, half: float, brackets):
    """Crossings of |T21|^2 = ``half`` in the (lower, upper) ``brackets``.

    Gives bit for bit what 13 halvings of each bracket (2^-13 of the grid
    step) with one scalar ``evaluator`` call per midpoint give, from fewer
    calls.  The two ends of each bracket are scalar calls, and they decide
    whether the bracket holds; when it does not, the nearer end is
    returned, with a RuntimeWarning naming the crossing unless that end is
    within rounding of half-max.  Then each of the ``_ROUNDS`` evaluates,
    for every open bracket, all midpoints its halvings could visit, in one
    array call, and replays the loop's decisions through them.  This is
    exact because the cascade gives the same bits at a scalar frequency as
    at that frequency inside an array.  A midpoint on half-max is the
    root; a bracket of adjacent floats, which cannot shrink, ends at its
    midpoint.
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
        else:
            open_[k] = (a, fa, b, fb)
    for depth in _ROUNDS:
        if not open_:
            break
        trees = {k: _midpoints(a, b, depth) for k, (a, _, b, _) in open_.items()}
        values = evaluator(np.concatenate(list(trees.values())))
        offset = 0
        for k, mids in trees.items():
            a, fa, b, fb = open_.pop(k)
            i = 0
            while i < len(mids):
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
            else:  # the next round refines this midpoint, if one is left
                open_[k], roots[k] = (a, fa, b, fb), 0.5 * (a + b)
            offset += len(mids)
    return roots


def _midpoints(a, b, depth):
    """Every midpoint the next ``depth`` halvings of [a, b] can visit, formed
    as the loop forms them, in heap order: the halves of node i start at
    nodes 2i+1 (lower) and 2i+2 (upper).

    Each level keeps its sorted bracket ends ``e``; the next level's ends
    interleave ``e`` with the midpoints of its neighbours."""
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
