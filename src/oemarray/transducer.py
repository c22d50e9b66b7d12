"""Single-site scattering models.

Every function here maps one transducer site to a 2x2 (or, with
counter-rotating terms retained, 4x4) scattering matrix between the
microwave and optical waveguide ports.  Frequencies are measured from
cavity resonance in units of the reference linewidth, and the sign
convention is such that a bare cavity reflects with
(kappa + 2i*omega)/(kappa - 2i*omega).

All scattering functions accept a scalar or an array of frequencies and
return matrices with the frequency axes leading, i.e. shape (..., 2, 2).
The 2x2 results of ``scattering_full`` and ``scattering_eliminated`` are
laid out entry-major: the shape is the same, but each entry ``s[..., i, j]``
is one contiguous array, so the elementwise cascade reads it without a
stride.  Callers must not assume C order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SingularMatrixError, SiteParams, _number

__all__ = [
    "EliminatedSite",
    "BogoliubovSite",
    "scattering_full",
    "scattering_resonant",
    "scattering_eliminated",
    "offres_coefficients",
    "scattering_bogoliubov",
    "matrix_to_json",
]


@dataclass(frozen=True)
class EliminatedSite:
    """Site reduced to its two external conversion rates.

    ``gamma1`` and ``gamma2`` are the effective decay rates ``g_i**2 /
    kappa_i`` of the mechanical mode into the two waveguides, valid when
    the cavities respond much faster than everything else.
    """

    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        _number("gamma1", self.gamma1, ge=0)
        _number("gamma2", self.gamma2, ge=0)


@dataclass(frozen=True)
class BogoliubovSite:
    """Site parameters plus the mechanical frequency, for the model that
    keeps counter-rotating terms."""

    site: SiteParams
    omega_m: float

    def __post_init__(self) -> None:
        _number("omega_m", self.omega_m, gt=0)


_TINY = np.finfo(float).tiny


def _pack22(entries, shape) -> np.ndarray:
    """The complex array of shape ``shape + (2, 2)`` with entries (m00, m01,
    m10, m11), each ``[..., i, j]`` one contiguous array."""
    m = np.empty((2, 2) + shape, dtype=complex)
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = entries
    return m.transpose(*range(2, len(shape) + 2), 0, 1)


def scattering_full(site: SiteParams, omega, *, _factors=None,
                    _entries=False) -> np.ndarray:
    """Exact 2x2 scattering matrix of a single three-mode site.

    Solves the linear input-output problem for the two cavities and the
    mechanical mode in closed form.  Reciprocity (S12 == S21) holds
    bit-for-bit because the off-diagonal entries share one array.

    Every entry is a ratio of cubics in the rates and the frequency, so
    where its denominator is subnormal or overflows ``_lifted`` evaluates it
    at rates and frequency scaled by one power of two, exactly.

    A scalar frequency gives the same bits as that frequency inside an
    array (see ``_omega_factors``).

    ``_factors`` and ``_entries`` are private, for ``cascade._site_matrices``,
    which calls this public kernel once per site because the benchmark times
    it.  ``_factors`` is ``_omega_factors(kappa1, kappa2, gamma, omega)``,
    computed once for all sites of equal linewidths; the bits are the same
    without it.  ``_entries`` returns the entries (s00, s01, s10, s11), the
    off-diagonal pair one array, that the matrix is otherwise packed from.

    Raises ``SingularMatrixError`` if the response denominator vanishes
    at any requested frequency (only possible for a completely lossless,
    uncoupled site driven exactly on resonance).
    """
    w = np.asarray(omega, dtype=float)
    rates = (site.g1, site.g2, site.kappa1, site.kappa2, site.gamma)
    den, num11, num22, num12 = _lifted(_full_terms, rates, w, _factors)
    off = num12 / den
    s = (-1 + num11 / den, off, off, -1 + num22 / den)
    return s if _entries else _pack22(s, w.shape)


def _lifted(terms, rates, w, *factors):
    """``terms(*rates, w, *factors)``: a denominator, then terms its caller
    combines with it into a response of degree 0 in the rates and ``w``.

    Where the denominator is subnormal (a vanishing mechanical linewidth or
    coupling) or not finite (a rate or |w| above about 2**340), all are
    recomputed from the rates and ``w`` scaled by one power of two, which
    leaves that response unchanged, exactly: subnormal rounding would
    otherwise break passivity, and numpy's complex division, which forms
    1/den, would overflow.  Only those frequencies are lifted; the others
    could overflow if they were.  Raises ``SingularMatrixError`` where the
    lifted denominator is 0.
    """
    try:
        values = terms(*rates, w, *factors)
    except OverflowError:  # a Python float rate squared
        values, normal = None, np.zeros(w.shape, dtype=bool)
    else:
        size = np.abs(values[0])
        normal = (size >= _TINY) & (size < math.inf)
    if np.count_nonzero(normal) < normal.size:
        at = ~normal
        # largest rate or lifted frequency to ~2**300, up or down: cubic terms
        # stay far from overflow, and a product with the smallest subnormal
        # rate is normal
        lift = 300 - np.frexp(max(*rates, np.abs(w[at]).max()))[1]
        lifted = terms(*np.ldexp(np.array(rates, dtype=float), lift),
                       np.ldexp(w[at], lift))
        if np.any(lifted[0] == 0):
            raise SingularMatrixError(
                "scattering matrix is singular at a requested frequency")
        values = [np.array(np.broadcast_to(t, w.shape), dtype=complex)
                  for t in values or [0] * len(lifted)]
        for t, value in zip(values, lifted):
            t[at] = value
    return values


def _omega_factors(k1, k2, gam, w):
    """The factors of ``scattering_full`` that depend on the linewidths and
    the frequency alone: (d1, d2, d1*d2*dm, 2*k1*d2*dm, 2*k2*d1*dm), with
    d_i = k_i - 2i*omega and dm = gamma - 2i*omega.

    The products of two complex factors go through ``np.multiply`` even
    for a scalar ``w``: numpy's array loop for them (fused multiply-add
    where the CPU has it) rounds differently from its scalar ``*``, and
    every other operation here rounds the same either way, so a scalar
    gives the bits it has inside an array.
    """
    mul = np.multiply
    iw2 = 2j * w
    d1 = k1 - iw2
    d2 = k2 - iw2
    dm = gam - iw2
    return d1, d2, mul(mul(d1, d2), dm), mul(2 * k1 * d2, dm), mul(2 * k2 * d1, dm)


def _full_terms(g1, g2, k1, k2, gam, w, factors=None):
    """Denominator and the three numerators of ``scattering_full``, from
    ``factors = _omega_factors(k1, k2, gam, w)`` when given."""
    d1, d2, p, q1, q2 = factors or _omega_factors(k1, k2, gam, w)
    return (4 * g1 ** 2 * d2 + 4 * g2 ** 2 * d1 + p,
            8 * g2 ** 2 * k1 + q1,
            8 * g1 ** 2 * k2 + q2,
            -8 * g1 * g2 * math.sqrt(k1 * k2))


def scattering_resonant(c1_tilde: float, c2_tilde: float) -> np.ndarray:
    """On-resonance scattering matrix from the two classical cooperativities.

    Real-valued; conversion is perfect when the cooperativities are equal
    and large.
    """
    _number("c1_tilde", c1_tilde, ge=0)
    _number("c2_tilde", c2_tilde, ge=0)
    den = c1_tilde + c2_tilde + 1
    off = -2 * np.sqrt(c1_tilde * c2_tilde) / den
    return np.array([
        [(-c1_tilde + c2_tilde + 1) / den, off],
        [off, (c1_tilde - c2_tilde + 1) / den],
    ])


def scattering_eliminated(site: EliminatedSite, omega, *, _iw=None,
                          _entries=False) -> np.ndarray:
    """Scattering matrix after adiabatic elimination of the cavities.

    The site becomes a single mechanical resonance with external rates
    ``gamma1`` and ``gamma2``; the matrix is exactly unitary at every
    real frequency.  Accurate to O(g**2/kappa**2) relative to
    ``scattering_full`` for frequencies well inside the cavity linewidth.

    Entries are homogeneous of degree 0 in (gamma1, gamma2, omega), so rates
    below 2**-500 or above 2**500 are scaled there, with omega, by a power
    of two that takes the larger rate to about 2**-500: this keeps
    gamma1*gamma2 and the denominator normal and finite.  Lifted up, |omega|
    is clipped to 2**600, where the response is already the identity.

    ``_iw`` and ``_entries`` are private, as ``scattering_full``'s keywords:
    ``_iw`` is ``1j * omega``, which ``cascade._site_matrices`` computes once
    for all its sites (the bits are the same without it), and ``_entries``
    returns the entries, which it folds, in place of the matrix.
    """
    w = np.asarray(omega, dtype=float)
    G1, G2 = site.gamma1, site.gamma2
    if G1 == 0 and G2 == 0 and np.any(w == 0):
        raise SingularMatrixError(
            "uncoupled eliminated site has no response at zero frequency")
    top = max(G1, G2)
    if 0 < top < 2.0 ** -500 or top > 2.0 ** 500:
        lift = -500 - np.frexp(top)[1]
        G1, G2 = np.ldexp(G1, lift), np.ldexp(G2, lift)
        if lift > 0:
            w = np.clip(w, -2.0 ** (600 - lift), 2.0 ** (600 - lift))
        w = np.ldexp(w, lift)
        _iw = None

    iw = 1j * w if _iw is None else _iw
    den = 2 * (G1 + G2) - iw
    off = -4 * math.sqrt(G1 * G2) / den
    s = ((-2 * (G1 - G2) - iw) / den, off, off, (2 * (G1 - G2) - iw) / den)
    return s if _entries else _pack22(s, w.shape)


def offres_coefficients(site: SiteParams, omega):
    """Off-resonant transmission and conversion amplitudes ``(t, c)``.

    In the weak-conversion regime each site transmits a same-port signal
    with the unit-modulus amplitude ``t`` and converts a small amplitude
    ``c`` to the other port.  Requires equal cavity linewidths; accurate
    only away from the mechanical resonance.
    """
    if site.kappa1 != site.kappa2:
        raise ValueError("off-resonant coefficients require kappa1 == kappa2")
    k = site.kappa1
    w = np.asarray(omega, dtype=float)
    dk = k - 2j * w
    dm = site.gamma - 2j * w
    if np.any(dk * dk * dm == 0):
        raise SingularMatrixError(
            "off-resonant expansion is singular at a requested frequency")
    t = (k + 2j * w) / dk
    c = -8 * site.g1 * site.g2 * k / (dk * dk * dm)
    if w.ndim == 0:
        return complex(t), complex(c)
    return t, c


def scattering_bogoliubov(bsite: BogoliubovSite, omega) -> np.ndarray:
    """4x4 scattering matrix with counter-rotating terms retained.

    Works in the lab frame: ``omega`` is an absolute frequency, and the
    beam-splitter response appears near ``omega_m``.  Port ordering is
    (a1, a2, a1_dagger, a2_dagger), so the entries coupling the first
    two ports to the last two quantify sideband-induced amplification.

    The cavity modes couple only to b and b_dagger; eliminating them leaves
    S_pq = -delta_pq*(1 - 2*kappa_p/d_p) + sigma_p*a_p*a_q/den, with sigma =
    (1, 1, -1, -1), d_p = kappa_p - 2i(omega -+ omega_m), a_p =
    g_p*sqrt(kappa_p)/d_p, den = m_-*m_+/(32i*omega_m) + 2i*omega_m*sum_i
    g_i**2/(d_i*d_i+2) and m_-+ = gamma - 2i(omega -+ omega_m).  No product
    is of degree above 1 in the rates.  Raises ``SingularMatrixError`` where
    den is 0 (uncoupled, lossless mechanics at omega = omega_m) or subnormal.
    """
    s, om = bsite.site, bsite.omega_m
    w = np.asarray(omega, dtype=float)
    lo, hi = 2j * (w - om), 2j * (w + om)
    kappa, g = (s.kappa1, s.kappa2) * 2, (s.g1, s.g2) * 2
    d = (s.kappa1 - lo, s.kappa2 - lo, s.kappa1 - hi, s.kappa2 - hi)
    ratio = [gp / dp for gp, dp in zip(g, d)]
    den = ((s.gamma - lo) * ((s.gamma - hi) / (32j * om))
           + 2j * om * (ratio[0] * ratio[2] + ratio[1] * ratio[3]))
    if not np.all(np.abs(den) >= _TINY):
        raise SingularMatrixError("scattering matrix is singular at a requested frequency")
    a = [x * math.sqrt(k) for x, k in zip(ratio, kappa)]
    m = np.empty(w.shape + (4, 4), dtype=complex)
    for p in range(4):
        row = (a[p] if p < 2 else -a[p]) / den
        for q in range(4):
            m[..., p, q] = row * a[q]
        m[..., p, p] += 2 * kappa[p] / d[p] - 1
    return m


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists with each entry as an ``[re, im]`` pair."""
    z = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in z]
