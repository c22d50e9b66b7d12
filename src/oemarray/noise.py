"""Thermal and Stokes noise added during conversion.

Each mechanical bath drives its site through the susceptibility vector
V_j(omega); everything downstream of site j then scatters that
contribution to the array output, and the independent equal-temperature
baths sum incoherently with force spectral density 2*n_bar + 1 (vacuum
normalized).  The Stokes part folds row 1 of the counter-rotating cascade
S_N ... S_1 from the output end, the one row its density and band read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (ArrayConfig, FrequencyGrid, SiteParams, SpectrumError, _count, _number,
                   _write_csv, materialize_sites)
from .cascade import Spectrum, _mul2, _site_matrices, _t21, extract_bandwidth
from .transducer import (BogoliubovSite, _full_terms, _lifted, _omega_factors,
                         scattering_bogoliubov)

__all__ = [
    "NoiseSpectrum",
    "StokesSpectrum",
    "noise_coupling_vector",
    "added_noise_spectrum",
    "added_noise_resonant_analytic",
    "integrated_added_noise",
    "stokes_noise_spectrum",
    "integrated_stokes_noise",
    "noise_to_csv",
    "stokes_to_csv",
]


@dataclass(eq=False)
class NoiseSpectrum:
    """Added-noise spectral densities into the two output ports."""

    grid: FrequencyGrid
    s_add_1: np.ndarray
    s_add_2: np.ndarray


@dataclass(eq=False)
class StokesSpectrum:
    """Amplification-noise density on a lab-frame grid near omega_m."""

    grid: FrequencyGrid
    density: np.ndarray


def noise_coupling_vector(sites: Sequence[SiteParams], j: int, omega) -> np.ndarray:
    """Susceptibility of the two waveguide outputs to the bath at site j.

    The closed form of the j-th site's (1-indexed) three-mode response;
    valid for arbitrary coupling profiles.  Raises ``SingularMatrixError``
    where the site's response denominator vanishes.
    """
    # only an integer is out of range; anything else, NaN included, fails
    # _count's integer check with the message a fractional index gets
    if hasattr(j, "__index__") and not 1 <= j <= len(sites):
        raise IndexError(f"site index {j} outside 1..{len(sites)}")
    return np.stack(_coupling_vector(sites[_count("j", j) - 1], omega), axis=-1)


def _coupling_vector(site: SiteParams, omega):
    """The two components of ``noise_coupling_vector`` at one site."""
    w = np.asarray(omega, dtype=float)
    rates = (site.g1, site.g2, site.kappa1, site.kappa2, site.gamma)
    den, v1, v2 = _lifted(_bath_terms, rates, w)
    return v1 / den, v2 / den


def _bath_terms(g1, g2, k1, k2, gam, w):
    """``scattering_full``'s denominator and the numerators of the bath
    column, -4i*g_i*sqrt(gamma*kappa_i)*d_j with d_j the other cavity's."""
    factors = _omega_factors(k1, k2, gam, w)
    return (_full_terms(g1, g2, k1, k2, gam, w, factors)[0],
            -4j * g1 * np.sqrt(gam * k1) * factors[1],
            -4j * g2 * np.sqrt(gam * k2) * factors[0])


def added_noise_spectrum(config: ArrayConfig, grid: FrequencyGrid) -> NoiseSpectrum:
    """Added-noise spectral densities S_add^2 for both output ports.

    Sums |chi_j|^2 * (2*n_bar+1) over sites, where chi_j propagates the
    j-th bath coupling through all downstream scattering matrices.  The
    downstream products are accumulated in one right-to-left sweep.
    """
    sites = materialize_sites(config)
    w = grid.points()
    s1, s2 = _added_noise_terms(sites, w, config.n_bar)
    return NoiseSpectrum(grid=grid, s_add_1=s1, s_add_2=s2)


def _added_noise_terms(sites, w, n_bar):
    strength = 2 * n_bar + 1
    s1 = np.zeros(np.shape(w))
    s2 = np.zeros(np.shape(w))
    downstream = (1, 0, 0, 1)  # entries of S_N ... S_{j+1}, right to left
    matrices = _site_matrices(sites[:0:-1], w)  # S_N, ..., S_2
    for j in range(len(sites), 0, -1):
        v1, v2 = _coupling_vector(sites[j - 1], w)
        d00, d01, d10, d11 = downstream
        s1 += np.abs(d00 * v1 + d01 * v2) ** 2 * strength
        s2 += np.abs(d10 * v1 + d11 * v2) ** 2 * strength
        if j > 1:
            downstream = _mul2(downstream, next(matrices))
    if not (np.isfinite(s1).all() and np.isfinite(s2).all()):
        raise SpectrumError("added-noise density is not finite")
    return s1, s2


def added_noise_resonant_analytic(c_tilde: float, n_bar: float,
                                  n_sites: int) -> np.ndarray:
    """Global-cooperativity scaling estimate of the resonant added noise of
    a symmetric linear array.

    Every site is given the same cooperativity ``c_tilde``: the bright port
    grows as N and the dark port falls as 1/(2N).  Along the linear profile
    site j actually has cooperativity c_tilde * ((j/N)^2 + (1 - j/N)^2), so
    at strong coupling the exact cascade lies above these prefactors by
    pi/2 (bright) and 1 + 5*pi/8 (dark), with further corrections of order
    N/c_tilde (on the bright port, absorption by downstream sites).
    """
    _number("c_tilde", c_tilde, ge=0)
    _number("n_bar", n_bar, ge=0)
    _count("n_sites", n_sites)
    common = 4 * c_tilde * (2 * n_bar + 1) / (c_tilde + 1) ** 2
    return np.array([common * n_sites, common / (2 * n_sites)])


def integrated_added_noise(config: ArrayConfig,
                           window: Optional[tuple] = None) -> np.ndarray:
    """Added noise integrated over the conversion band, per port.

    The band is [-fwhm/2, +fwhm/2] of the matching conversion spectrum
    unless an explicit ``window = (lo, hi)`` is supplied.
    """
    sites = materialize_sites(config)
    if window is None:
        window = _band_window(lambda w: _t21(sites, w), None, 0.0)

    def density(w):
        return np.stack(_added_noise_terms(sites, w, config.n_bar))

    return _adaptive_trapezoid(density, *window)


def _band_window(t21_at, grid, center):
    """center -+ fwhm/2 of the conversion amplitude ``t21_at(omega)``, swept
    over ``grid`` (default: center -+ 1.5 at 3001 points) and refined."""
    if grid is None:
        grid = FrequencyGrid(center - 1.5, center + 1.5, 3001)
    sp = Spectrum(grid=grid, t21=t21_at(grid.points()), evaluator=t21_at)
    fwhm = extract_bandwidth(sp).fwhm
    return center - fwhm / 2, center + fwhm / 2


_RTOL, _MAX_DOUBLINGS = 1e-4, 12


def _adaptive_trapezoid(f, lo, hi):
    """Trapezoid rule for the integral of ``f`` over [lo, hi] on 65, 129,
    257, ... points, until two successive estimates agree to ``_RTOL``.

    The rule is nested: each doubling evaluates ``f`` only at the new
    midpoints and adds them to half the previous estimate.  If
    ``_MAX_DOUBLINGS`` doublings do not converge, a RuntimeWarning names
    the window and the last two estimates, and the last one is returned.
    """
    _number("window[1]", hi, gt=_number("window[0]", lo))
    n = 65
    h = (hi - lo) / (n - 1)
    vals = f(np.linspace(lo, hi, n))
    best = h * (np.sum(vals, axis=-1) - 0.5 * (vals[..., 0] + vals[..., -1]))
    for _ in range(_MAX_DOUBLINGS):
        n = 2 * n - 1
        h /= 2
        new = 0.5 * best + h * np.sum(f(np.linspace(lo, hi, n)[1::2]), axis=-1)
        scale = np.maximum(np.max(np.abs(new)), 1e-300)
        if np.max(np.abs(new - best)) <= _RTOL * scale:
            return new
        prev, best = best, new
    warnings.warn(
        f"trapezoid rule over [{float(lo)!r}, {float(hi)!r}] did not converge to "
        f"rtol {_RTOL:g} in {_MAX_DOUBLINGS} doublings ({n} points): the last two "
        f"estimates are {prev} and {best}; returning the last",
        RuntimeWarning, stacklevel=3)
    return best


def stokes_noise_spectrum(config: ArrayConfig, omega_m: float,
                          grid: FrequencyGrid) -> StokesSpectrum:
    """Amplification-noise density |T23|^2 + |T24|^2 on a lab-frame grid.

    Folds row 1 of the counter-rotating cascade across the array.  Emits a
    UserWarning outside the resolved-sideband regime (kappa/omega_m >
    0.3) where the density is no longer a small correction.
    """
    sites = materialize_sites(config)
    _warn_unresolved(sites, omega_m)
    return StokesSpectrum(grid=grid,
                          density=_stokes_density(sites, omega_m, grid.points()))


def _warn_unresolved(sites, omega_m):
    _number("omega_m", omega_m, gt=0)  # before it divides
    kappa_max = max(max(s.kappa1, s.kappa2) for s in sites)
    if kappa_max / omega_m > 0.3:
        warnings.warn(
            f"kappa/omega_m = {kappa_max / omega_m:.3g} is outside the "
            "resolved-sideband regime; Stokes densities are not a small "
            "correction here", stacklevel=3)


def _stokes_row(sites, omega_m, w):
    """Row 1 of S_N ... S_1: r = S_N[1, :], then r <- r S_j for j = N-1 ... 1."""
    row = None
    for site in reversed(sites):
        s = scattering_bogoliubov(BogoliubovSite(site, omega_m), w)
        row = s[..., 1, :] if row is None else np.einsum("...p,...pq->...q", row, s)
    return row


def _stokes_density(sites, omega_m, w):
    density = np.sum(np.abs(_stokes_row(sites, omega_m, w)[..., 2:]) ** 2, axis=-1)
    if not np.isfinite(density).all():
        raise SpectrumError("Stokes density is not finite")
    return density


def integrated_stokes_noise(config: ArrayConfig, omega_m: float,
                            window: Optional[tuple] = None,
                            band_grid: Optional[FrequencyGrid] = None) -> float:
    """Stokes photons added over the conversion band around omega_m."""
    sites = materialize_sites(config)
    _warn_unresolved(sites, omega_m)
    if window is None:
        window = _band_window(lambda w: _stokes_row(sites, omega_m, w)[..., 0],
                              band_grid, omega_m)
    return float(_adaptive_trapezoid(lambda w: _stokes_density(sites, omega_m, w), *window))


def noise_to_csv(spectrum: NoiseSpectrum, path) -> None:
    _write_csv(path, "omega,s_add_port1,s_add_port2",
               zip(spectrum.grid.points().tolist(), spectrum.s_add_1.tolist(),
                   spectrum.s_add_2.tolist()))


def stokes_to_csv(spectrum: StokesSpectrum, path) -> None:
    _write_csv(path, "omega,stokes_density",
               zip(spectrum.grid.points().tolist(), spectrum.density.tolist()))
