"""Bidirectional arrays: two-sided cavities, propagation loss, backscatter.

Each cavity may decay into the right-moving lane, the left-moving lane,
and an intrinsic channel.  Sites become 4x4 scattering matrices on the
basis (a1_R, a2_R, a1_L, a2_L); arrays are assembled by converting to
transfer form, interleaving free-propagation cells, and converting back.
Only the two waveguide lanes carry signal; intrinsic and mechanical
channels show up as sub-unitarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import SingularMatrixError, SiteParams, _number, _write_csv, _write_json
from .transducer import scattering_full

__all__ = [
    "LossySite",
    "CellLink",
    "BiScatter",
    "scattering_two_sided",
    "scatter_to_transfer",
    "transfer_to_scatter",
    "free_propagation",
    "lossy_array_scattering",
    "conversion_efficiency",
    "envelope_efficiency",
    "efficiency_vs_loss",
    "backscatter_efficiency_table",
    "backscatter_alpha_fit",
    "sweep_to_csv",
    "alpha_fit_to_json",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class LossySite:
    """Two-sided transducer site.

    Right-port couplings default to the wrapped site's decay rates; left
    and intrinsic channels are added on top, so the total linewidth of
    cavity i is kappa_ri + kappa_li + kappa_inti.
    """

    site: SiteParams
    kappa_r1: Optional[float] = None
    kappa_r2: Optional[float] = None
    kappa_l1: float = 0.0
    kappa_l2: float = 0.0
    kappa_int1: float = 0.0
    kappa_int2: float = 0.0

    def __post_init__(self):
        if self.kappa_r1 is None:
            object.__setattr__(self, "kappa_r1", self.site.kappa1)
        if self.kappa_r2 is None:
            object.__setattr__(self, "kappa_r2", self.site.kappa2)
        for name in ("kappa_r1", "kappa_r2", "kappa_l1", "kappa_l2", "kappa_int1", "kappa_int2"):
            _number(name, getattr(self, name), ge=0)
        _number("total1", self.total1, gt=0)
        _number("total2", self.total2, gt=0)

    @property
    def total1(self) -> float:
        return self.kappa_r1 + self.kappa_l1 + self.kappa_int1

    @property
    def total2(self) -> float:
        return self.kappa_r2 + self.kappa_l2 + self.kappa_int2


@dataclass(frozen=True)
class CellLink:
    """Propagation between neighboring sites: loss exponent and phases."""

    zeta: float = 0.0
    k1_d: float = 0.0
    k2_d: float = 0.0

    def __post_init__(self):
        _number("zeta", self.zeta, ge=0)
        _number("k1_d", self.k1_d)
        _number("k2_d", self.k2_d)

    @classmethod
    def from_epsilon(cls, epsilon: float) -> "CellLink":
        """Link with per-cell amplitude transmission 1 - epsilon."""
        return cls(zeta=-math.log1p(-_number("epsilon", epsilon, ge=0, lt=1)))


@dataclass(eq=False)
class BiScatter:
    """4x4 scattering on (a1_R, a2_R, a1_L, a2_L)."""

    matrix: np.ndarray

    @property
    def s_r(self) -> np.ndarray:
        return self.matrix[..., :2, :2]

    @property
    def s_rl(self) -> np.ndarray:
        return self.matrix[..., :2, 2:]

    @property
    def s_lr(self) -> np.ndarray:
        return self.matrix[..., 2:, :2]

    @property
    def s_l(self) -> np.ndarray:
        return self.matrix[..., 2:, 2:]


def scattering_two_sided(site: LossySite, omega) -> BiScatter:
    """Exact 4x4 scattering of one two-sided site.

    The site at its total linewidths k_i scatters as ``scattering_full``,
    S = X - I; port p, coupled at kappa_p to cavity i, sees -delta_pq +
    sqrt(kappa_p*kappa_q/(k_i*k_j))*X_ij.  Intrinsic and bath losses enter
    only the linewidths."""
    s = site.site
    k = (site.total1, site.total2)
    x = scattering_full(SiteParams(s.g1, s.g2, *k, s.gamma), omega) + np.eye(2)
    ports = ((site.kappa_r1, 0), (site.kappa_r2, 1), (site.kappa_l1, 0), (site.kappa_l2, 1))
    m = np.empty(np.shape(omega) + (4, 4), dtype=complex)
    for p, (kp, i) in enumerate(ports):
        for q, (kq, j) in enumerate(ports):
            # one root of the product: kappa_L = k_i/2 scales by exactly 1/2
            m[..., p, q] = math.sqrt(kp / k[i] * (kq / k[j])) * x[..., i, j] - (p == q)
    return BiScatter(matrix=m)


def _inv2(m: np.ndarray, what: str) -> np.ndarray:
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    fro2 = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    # exact 2-norm condition number of a 2x2 block
    disc = np.sqrt(np.maximum(fro2 ** 2 - 4 * np.abs(det) ** 2, 0.0))
    hi = (fro2 + disc) / 2
    lo = (fro2 - disc) / 2
    # an overflowed block has a non-finite fro2, and NaN fails every comparison
    bad = (~np.isfinite(fro2) | (np.abs(det) == 0) | (lo <= 0)
           | (np.sqrt(hi / np.where(lo > 0, lo, 1.0)) > _COND_LIMIT))
    if np.any(bad):
        raise SingularMatrixError(
            f"{what} is near-singular (condition number exceeds 1e12) or not finite")
    inv = np.empty_like(m)
    inv[..., 0, 0] = m[..., 1, 1]
    inv[..., 0, 1] = -m[..., 0, 1]
    inv[..., 1, 0] = -m[..., 1, 0]
    inv[..., 1, 1] = m[..., 0, 0]
    return inv / det[..., None, None]


def _swap_lanes(m: np.ndarray, what: str) -> np.ndarray:
    m11 = m[..., :2, :2]
    m12 = m[..., :2, 2:]
    m21 = m[..., 2:, :2]
    m22 = m[..., 2:, 2:]
    inv22 = _inv2(m22, what)
    out = np.empty_like(m)
    out[..., :2, :2] = m11 - m12 @ inv22 @ m21
    out[..., :2, 2:] = m12 @ inv22
    out[..., 2:, :2] = -inv22 @ m21
    out[..., 2:, 2:] = inv22
    return out


def scatter_to_transfer(s: BiScatter) -> np.ndarray:
    """Transfer matrix relating fields on the two sides of a cell."""
    return _swap_lanes(s.matrix, "left-going scattering block")


def transfer_to_scatter(t: np.ndarray) -> BiScatter:
    """Inverse of scatter_to_transfer (the block map is an involution)."""
    return BiScatter(matrix=_swap_lanes(np.asarray(t), "backward transfer block"))


def free_propagation(link: CellLink) -> np.ndarray:
    """Transfer matrix of one inter-site stretch of waveguide.

    Right-moving lanes pick up e^{-zeta + i k d}; the left-moving entries
    are their reciprocal conjugates, since the transfer matrix runs
    against that lane's direction of travel.  The reassembled scattering
    matrix is then attenuating for both directions.
    """
    fwd1 = np.exp(-link.zeta + 1j * link.k1_d)
    fwd2 = np.exp(-link.zeta + 1j * link.k2_d)
    return np.diag([fwd1, fwd2, 1 / np.conj(fwd1), 1 / np.conj(fwd2)])


def lossy_array_scattering(sites: Sequence[LossySite],
                           links: Sequence[CellLink],
                           omega) -> BiScatter:
    """Assemble the array in transfer form and return its 4x4 scattering.

    Takes one link per site (the last one is the output lead) or N-1
    interior links.
    """
    n = len(sites)
    if n == 0:
        raise ValueError("need at least one site")
    if len(links) not in (n, n - 1):
        raise ValueError(f"expected {n} or {n - 1} links, got {len(links)}")
    total = None
    for j, site in enumerate(sites):
        cell = scatter_to_transfer(scattering_two_sided(site, omega))
        if j < len(links):
            cell = free_propagation(links[j]) @ cell
        total = cell if total is None else cell @ total
    return transfer_to_scatter(total)


def conversion_efficiency(s: BiScatter) -> np.ndarray:
    """Forward conversion |port 1 right-in -> port 2 right-out|^2."""
    return np.abs(s.s_r[..., 1, 0]) ** 2


def envelope_efficiency(sites: Sequence[LossySite],
                        links: Sequence[CellLink]) -> float:
    """Peak conversion efficiency over one ripple period around resonance.

    Backscatter superimposes standing-wave ripples on the conversion
    band; the envelope is what the smooth efficiency trend refers to.
    The window of half-width pi/N (in units of the first site's
    linewidth), sampled at 241 points, spans at least one period.
    """
    half_width = math.pi * sites[0].total1 / max(len(sites), 2)
    w = np.linspace(-half_width, half_width, 241)
    s = lossy_array_scattering(sites, links, w)
    return float(conversion_efficiency(s).max())


def backscatter_efficiency_table(
        ratios: Sequence[float],
        sites: Sequence[SiteParams],
        zeta: float = 0.0) -> List[Tuple[float, float]]:
    """Envelope efficiency versus kappa_L/kappa_R for a fixed array."""
    rows = []
    for ratio in ratios:
        lossy = [LossySite(site=s, kappa_l1=ratio * s.kappa1,
                           kappa_l2=ratio * s.kappa2) for s in sites]
        links = [CellLink(zeta=zeta)] * len(sites)
        rows.append((float(ratio), envelope_efficiency(lossy, links)))
    return rows


def efficiency_vs_loss(param: str, values: Sequence[float],
                       sites: Sequence[SiteParams]) -> List[Tuple[float, float]]:
    """Conversion efficiency swept over one loss parameter.

    ``param`` selects what the sweep values mean: "kappa_int" (intrinsic
    loss added to both cavities) and "epsilon" (per-cell propagation loss
    1-e^{-zeta d}) give the efficiency at resonance; "kappa_l" (backscatter
    ratio kappa_L/kappa_R) gives the envelope, the peak over one ripple
    period around resonance (``envelope_efficiency``).  The rows' CSV
    ``omega`` column reads 0 either way.
    """
    if param not in ("kappa_int", "epsilon", "kappa_l"):
        raise ValueError(f"unknown sweep parameter: {param!r}")
    rows = []
    for i, value in enumerate(values):
        _number(f"values[{i}]", value, ge=0)
        if param == "kappa_l":
            (_, eff), = backscatter_efficiency_table([value], sites)
        else:
            if param == "kappa_int":
                lossy = [LossySite(site=s, kappa_int1=value, kappa_int2=value)
                         for s in sites]
                links = [CellLink()] * len(sites)
            else:
                lossy = [LossySite(site=s) for s in sites]
                links = [CellLink.from_epsilon(value)] * len(sites)
            eff = float(conversion_efficiency(
                lossy_array_scattering(lossy, links, 0.0)))
        rows.append((float(value), eff))
    return rows


def backscatter_alpha_fit(table: Sequence[Tuple[float, float]]) -> dict:
    """Slope of the efficiency deficit 1 - eta versus kappa_L/kappa_R.

    Least squares through the origin over the linear regime (ratios up
    to 0.2).
    """
    pts = [(_number(f"table[{i}] ratio", float(x)),
            _number(f"table[{i}] efficiency", float(y))) for i, (x, y) in enumerate(table)]
    if len(pts) < 4:
        raise ValueError("need at least 4 sweep points for the slope fit")
    x = np.array([p[0] for p in pts])
    y = 1.0 - np.array([p[1] for p in pts])
    if np.any(x <= 0):
        raise ValueError("ratios must be positive (a zero-loss point is degenerate)")
    if np.any(x > 0.2):
        raise ValueError("ratios beyond 0.2 leave the linear regime")
    sxx = float(np.sum(x * x))
    alpha = float(np.sum(x * y) / sxx)
    resid = y - alpha * x
    stderr = float(np.sqrt(np.sum(resid ** 2) / ((len(pts) - 1) * sxx)))
    return {"alpha": alpha, "stderr": stderr, "points_used": len(pts)}


def sweep_to_csv(rows: Sequence[Tuple[float, float]], path) -> None:
    _write_csv(path, "param,omega,abs2_t21", ((value, 0.0, eff) for value, eff in rows))


def alpha_fit_to_json(fit: dict, path=None) -> str:
    return _write_json(path, fit, sort_keys=True)
