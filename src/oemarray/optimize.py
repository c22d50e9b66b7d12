"""Constrained bandwidth maximization over mirror-symmetric coupling ramps.

The search runs in the cavity-eliminated picture, where each site is a
mechanical resonance with two external rates summing to a fixed budget G.
In zeta = (w - 2iG)/(w + 2iG), on the unit circle, site j is then P+ + zeta
P-, with P+- = (1 +- R_j)/2 the projectors of the reflection R_j = [[c, -s],
[-s, -c]], c = 1 - 2f_j and s = 2 sqrt(f_j (1 - f_j)), so T21 is a real
polynomial of degree N in zeta.  Recurrences over the sites give its
coefficients and their derivatives in the rate fractions, with no site
kernel call.  Each site is unitary on the circle, so the coefficients'
squares sum to the mean of |T21|^2, at most 1, and the rounding does not
grow with N.

The objective is the conversion FWHM of the spectrum sampled on a grid,
with crossings interpolated between grid points, and each in-band ripple
trough is held above a floor by an inequality constraint.  All are
piecewise smooth in the rate fractions, with exact gradients, so each start
is one gradient-based SLSQP solve.  A brute-force grid oracle covers the
small arrays, and profiles can be summarized by their best-fit tanh
steepness.  scipy imports stay inside the functions that call them, since
every CLI run would otherwise pay them at start-up (``scipy.optimize``
takes about 0.6 s to import, ``scipy.linalg`` alone about 0.5 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import FrequencyGrid, SpectrumError, _count, _number, _write_json
from .transducer import EliminatedSite
from .cascade import _halfmax, eliminated_spectrum, extract_bandwidth

__all__ = [
    "OptimizationProblem",
    "OptimizationResult",
    "optimize_couplings",
    "grid_oracle",
    "fit_tanh_beta",
    "eliminated_bandwidth",
    "result_to_json",
]

_FRAC_FLOOR = 1e-4


@dataclass(frozen=True)
class OptimizationProblem:
    """Bandwidth maximization instance.

    ``gamma_total`` is the per-site sum of the two external rates, held
    constant across the array; ``min_efficiency`` bounds the in-band
    ripple from below.
    """

    n_sites: int
    gamma_total: float
    min_efficiency: float = 0.99

    def __post_init__(self):
        _count("n_sites", self.n_sites)
        _number("gamma_total", self.gamma_total, gt=0)
        _number("min_efficiency", self.min_efficiency, gt=0, le=1)


@dataclass(frozen=True)
class OptimizationResult:
    """Best profile of a search.

    ``evaluations`` counts surrogate evaluations: distinct clipped profiles
    within each local search, summed over the starts (a profile the search
    revisits is looked up, not computed again).
    """

    gamma1_per_site: Tuple[float, ...]
    bandwidth: float
    passband_min: float
    converged: bool
    evaluations: int


def _mirror_fractions(free: np.ndarray, n: int) -> np.ndarray:
    """Complete the first-half rate fractions to a full symmetric ramp."""
    return np.concatenate([free, [0.5] * (n % 2), 1.0 - free[::-1]])


def _clip(x: np.ndarray) -> np.ndarray:
    """``np.clip(x, _FRAC_FLOOR, 1 - _FRAC_FLOOR)``, bit for bit, without
    ``np.clip``'s dispatch overhead."""
    return np.minimum(np.maximum(x, _FRAC_FLOOR), 1 - _FRAC_FLOOR)


def _grid_for(problem: OptimizationProblem, widen: int = 0) -> FrequencyGrid:
    span = 4 * problem.gamma_total * (problem.n_sites + 2) * (2 ** widen)
    return FrequencyGrid(-span, span, 1201)


def _sites_for(fracs: np.ndarray, gamma_total: float) -> List[EliminatedSite]:
    return [EliminatedSite(f * gamma_total, (1.0 - f) * gamma_total)
            for f in fracs.tolist()]


def _columns(fracs: np.ndarray) -> List[List[complex]]:
    """Column 0 of S_j ... S_1, j = 0 .. N, as coefficients of powers of zeta.

    A real column (a, b) is taken as u = a + ib, so that R_j is u -> e_j u*
    with e_j = c - is and P+- u = (u +- e_j u*)/2.  Python numbers, since
    numpy calls cost more at the sizes searched.
    """
    cols = [[1 + 0j]]
    for f in fracs.tolist():
        cols.append(_site_step(f, cols[-1]))
    return cols


def _site_step(f: float, u: List[complex]) -> List[complex]:
    """``u`` times the site of rate fraction ``f``: P+ u_k + P- u_(k-1)."""
    e = complex(0.5 - f, -(f * (1 - f)) ** 0.5)  # e_j / 2
    return [(p + q) * 0.5 + e * (p - q).conjugate() for p, q in zip(u + [0j], [0j] + u)]


def _t21_jacobian(fracs: np.ndarray) -> np.ndarray:
    """dc_k/df_j of T21's coefficients c_k, in row j.

    dS_j/df_j = (1 - zeta) M_j, M_j = [[-1, -k], [-k, 1]] with k = (1 - 2f)/(2
    sqrt(f(1 - f))), so dT21/df_j = (1 - zeta) x M_j y for y column 0 of S_(j-1)
    ... S_1 and x row 1 of S_N ... S_(j+1), which the adjoint recurrence
    steps as a column, S_j being symmetric.  M_j is u -> m_j u* with m_j =
    -1 - ik, so x M_j y = Re(x (conj(m_j) y)): one convolution per site.
    """
    row, jac = [1j], []
    for f, col in zip(fracs.tolist()[::-1], _columns(fracs)[-2::-1]):
        m = complex(-1, (0.5 - f) / (f * (1 - f)) ** 0.5)
        row_1z = [p - q for p, q in zip(row + [0j], [0j] + row)]  # x (1 - zeta)
        jac.append(np.convolve(row_1z, [m * y for y in col]).real)
        row = _site_step(f, row)
    return np.array(jac[::-1])


def _search_grid(problem: OptimizationProblem):
    """(w, basis): the points of ``_grid_for(problem)`` and zeta^k at them
    in row k, k = 0 .. N; computed once per search."""
    w = _grid_for(problem).points()
    zeta = 1 - 4j / (w / problem.gamma_total + 2j)  # (w - 2iG)/(w + 2iG)
    return w, np.cumprod([np.ones_like(zeta)] + [zeta] * problem.n_sites, axis=0)


def _grid_metrics(fracs: np.ndarray, problem: OptimizationProblem, grid):
    """(fwhm, passband_min, troughs, derivatives) of the sampled spectrum.

    Crossings are linearly interpolated between grid points; this is the
    cheap surrogate the local search iterates on, while final reporting
    goes through the bisection-refined extractor.  ``grid`` is
    ``_search_grid(problem)``.

    The troughs are the N - 1 lowest local minima of the samples within the
    half-max span, ascending (the first is passband_min), padded with the
    peak when there are fewer.  The floor is the smallest trough, and the
    troughs are what an optimal ramp holds at the floor together, so a
    constraint on each of them is smooth where one on their minimum has a
    kink.

    ``derivatives()`` returns (d_fwhm, d_troughs): the FWHM's gradient in
    the rate fractions, and trough k's in row k, computed only on that call,
    since SLSQP's line search needs values alone.  Each crossing is
    differentiated through its interpolation formula, with the half level
    as half the peak sample, so T21's derivatives are needed only at the
    crossings' four samples, the peak and the troughs.
    """
    w, basis = grid
    # T21's coefficients are real: the imaginary parts of the last column's
    pairs = np.array(_columns(fracs)[-1]).imag @ basis.view(float)
    t21, v = pairs.view(complex), pairs ** 2
    v = v[0::2] + v[1::2]
    n_troughs = max(len(fracs) - 1, 1)
    try:
        _, half, i0, i1, pb_min = _halfmax(v)
    except SpectrumError:
        return 0.0, 0.0, np.zeros(n_troughs), lambda: (
            np.zeros(len(fracs)), np.zeros((n_troughs, len(fracs))))
    # v[i0 - 1] and v[i1 + 1] lie below half, so neither end is a minimum
    span = v[i0:i1 + 1]
    troughs = ((span <= v[i0 - 1:i1]) & (span < v[i0 + 1:i1 + 2])).nonzero()[0] + i0
    troughs = troughs[np.argsort(v[troughs], kind="stable")][:n_troughs].tolist()
    i_peak = int(np.argmax(v))
    idx = np.array([i0 - 1, i0, i1, i1 + 1, i_peak] + troughs
                   + [i_peak] * (n_troughs - len(troughs)))
    # the samples the derivatives need, so that a search's memo does not
    # hold on to the whole spectrum of every profile
    t_at, v_at, w_at = t21[idx], v[idx], w[idx]
    # the lower crossing lies between samples 0 and 1, the upper between 2 and 3
    lo, hi = slice(0, 3, 2), slice(1, 4, 2)

    def derivatives():
        run, rise, below = w_at[hi] - w_at[lo], v_at[hi] - v_at[lo], half - v_at[lo]
        dv = _t21_jacobian(fracs) @ (2 * (t_at.conjugate() * basis[:, idx]).real)
        dva, dvb = dv[:, lo], dv[:, hi]
        dcross = run * ((dv[:, 4:5] / 2 - dva) * rise - below * (dvb - dva)) / rise ** 2
        return dcross[:, 1] - dcross[:, 0], dv[:, 5:].T

    (wa, wb, wc, wd), (va, vb, vc, vd) = w_at[:4].tolist(), v_at[:4].tolist()
    fwhm = wc + (half - vc) * (wd - wc) / (vd - vc) - (wa + (half - va) * (wb - wa) / (vb - va))
    return fwhm, pb_min, v_at[5:], derivatives


def eliminated_bandwidth(gamma1_per_site: Sequence[float],
                         gamma_total: float):
    """Refined bandwidth of an explicit rate profile.

    The same pipeline the array module uses: sweep the eliminated
    cascade, then bisect the half-max crossings.
    """
    fracs = np.asarray(gamma1_per_site, dtype=float) / gamma_total
    problem = OptimizationProblem(n_sites=len(fracs), gamma_total=gamma_total,
                                  min_efficiency=1.0)
    sites = _sites_for(fracs, gamma_total)
    for widen in range(3):
        try:
            return extract_bandwidth(eliminated_spectrum(sites, _grid_for(problem, widen)))
        except SpectrumError:
            if widen == 2:
                raise


def _start_profiles(problem: OptimizationProblem, n_random: int,
                    seed: int) -> List[np.ndarray]:
    n = problem.n_sites
    m = n // 2
    d = np.arange(1, m + 1) / (n + 1)
    starts = [np.full(m, 0.5), d.copy()]
    for beta in (2.0, 4.5, 8.0):
        starts.append(0.5 * (np.tanh(beta * (d - 0.5)) + 1.0))
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        starts.append(rng.uniform(0.02, 0.5, size=m))
    return starts


def _local_search(start: np.ndarray, problem: OptimizationProblem):
    from scipy.optimize import minimize

    grid = _search_grid(problem)
    m = len(start)
    # the surrogate by clipped profile, computed once per search: SLSQP asks
    # for the objective and the constraint at every trial point of its line
    # search, and for their gradients at its iterates only
    values, gradients = {}, {}

    def metrics(x: np.ndarray, gradient: bool = False):
        """(fwhm, passband_min, troughs) at ``x``, or with ``gradient`` the
        gradients (d_fwhm, d_troughs) in the free fractions."""
        xc = _clip(x)
        key = xc.tobytes()
        if key not in values:
            values[key] = _grid_metrics(_mirror_fractions(xc, problem.n_sites), problem, grid)
        if not gradient:
            return values[key]
        if key not in gradients:
            d_fwhm, d_troughs = values[key][3]()
            # the mirror sets f_{N-1-i} = 1 - x_i
            gradients[key] = (d_fwhm[:m] - d_fwhm[::-1][:m],
                              d_troughs[:, :m] - d_troughs[:, ::-1][:, :m])
        return gradients[key]

    # the width in units of the budget, since SLSQP's ftol is absolute.  With
    # a constraint per trough the ramp starts converge in 13-45 iterations
    # for N = 6 to 20; the cap stops random starts that wander among
    # infeasible profiles
    scale = -1.0 / problem.gamma_total
    res = minimize(
        lambda x: scale * metrics(x)[0], start.astype(float),
        jac=lambda x: scale * metrics(x, gradient=True)[0], method="SLSQP",
        bounds=[(_FRAC_FLOOR, 1 - _FRAC_FLOOR)] * m,
        constraints=[{"type": "ineq",
                      "fun": lambda x: metrics(x)[2] - problem.min_efficiency,
                      "jac": lambda x: metrics(x, gradient=True)[1]}],
        options={"ftol": 1e-12, "maxiter": 50})
    x = _clip(res.x)

    # the solve can stop a hair below the ripple floor on this piecewise
    # smooth surrogate; Newton steps along the floor's gradient restore it
    for _ in range(12):
        deficit = problem.min_efficiency - metrics(x)[1]
        if deficit <= 0:
            break
        grad = metrics(x, gradient=True)[1][0]
        norm2 = float(grad @ grad)
        if norm2 < 1e-12:
            break
        x = _clip(x + (1.2 * deficit / norm2) * grad)
    return x, len(values)


def _finalize(fracs: np.ndarray, problem: OptimizationProblem,
              evals: int) -> OptimizationResult:
    profile = _mirror_fractions(fracs, problem.n_sites)
    gamma1 = tuple(float(f) * problem.gamma_total for f in profile)
    try:
        bw = eliminated_bandwidth(gamma1, problem.gamma_total)
    except SpectrumError:
        return OptimizationResult(gamma1_per_site=gamma1, bandwidth=0.0,
                                  passband_min=0.0, converged=False,
                                  evaluations=evals)
    feasible = bw.passband_min >= problem.min_efficiency - 1e-6
    return OptimizationResult(
        gamma1_per_site=gamma1, bandwidth=float(bw.fwhm),
        passband_min=float(bw.passband_min), converged=bool(feasible),
        evaluations=evals)


def optimize_couplings(problem: OptimizationProblem, n_random_starts: int = 3,
                       seed: int = 97, workers: int = 1) -> OptimizationResult:
    """Multi-start constrained search for the widest conversion band.

    From each of five ramp-shaped starting profiles and ``n_random_starts``
    random ones, one SLSQP solve maximizes the sampled-spectrum FWHM with
    every ripple trough held above the floor, all gradients exact (from the
    sites' polynomial, at each profile where the solver asks for a
    gradient); a few Newton steps along the floor's gradient then
    lift an endpoint that stopped just below the floor.  Each endpoint is
    refined by bisection, and the best feasible one is reported.  The starts
    run one after another; ``workers`` must be 1.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}: the search is serial")
    _count("n_random_starts", n_random_starts, 0)
    if problem.n_sites == 1:
        return _finalize(np.empty(0), problem, evals=1)

    starts = _start_profiles(problem, n_random_starts, seed)
    outcomes = [_local_search(s, problem) for s in starts]

    total_evals = sum(e for _, e in outcomes)
    candidates = [_finalize(x, problem, total_evals) for x, _ in outcomes]

    # the constrained maximum is a degenerate ridge: rearranged and even
    # rebalanced profiles reach the same bandwidth, and restarts land on
    # it with ~1e-5 solver scatter.  Treat near-equal bandwidths as ties
    # and resolve them by ripple floor, then smallest profile in
    # lexicographic order, which prefers the monotone ramp.
    pool = [c for c in candidates if c.converged] or candidates
    tol_bw = 1e-3 * problem.gamma_total
    best_bw = max(c.bandwidth for c in pool)
    near = [c for c in pool if c.bandwidth >= best_bw - tol_bw]
    best_pb = max(c.passband_min for c in near)
    near = [c for c in near if c.passband_min >= best_pb - 1e-4]
    return min(near, key=lambda c: c.gamma1_per_site)


def grid_oracle(problem: OptimizationProblem) -> OptimizationResult:
    """Brute-force reference optimizer for up to three sites.

    Exhaustive scan of the single free rate fraction at resolution 1/400
    of the budget, then a bracketed refinement around the best feasible
    point.
    """
    if problem.n_sites > 3:
        raise ValueError("grid oracle only covers n_sites <= 3")
    if problem.n_sites == 1:
        return _finalize(np.empty(0), problem, evals=1)

    evals = 0
    grid = _search_grid(problem)

    def objective(f: float) -> float:
        nonlocal evals
        evals += 1
        fwhm, pb, *_ = _grid_metrics(
            _mirror_fractions(np.array([f]), problem.n_sites), problem, grid)
        if fwhm <= 0 or pb < problem.min_efficiency - 1e-9:
            return -np.inf
        return fwhm

    step = 1.0 / 400
    fs = np.arange(1, 201) * step
    scores = np.array([objective(f) for f in fs])
    if not np.any(np.isfinite(scores)):
        return _finalize(np.array([0.5]), problem, evals)
    f_best = fs[int(np.argmax(scores))]

    lo, hi = max(step / 2, f_best - step), min(0.5, f_best + step)
    for _ in range(60):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if objective(m1) < objective(m2):
            lo = m1
        else:
            hi = m2
    f_best = (lo + hi) / 2
    return _finalize(np.array([f_best]), problem, evals)


def fit_tanh_beta(gamma1_per_site: Sequence[float], gamma_total: float) -> float:
    """Best-fit steepness of a tanh ramp through a rate profile.

    Two virtual endpoint sites (fully unpolarized and fully polarized)
    are appended before fitting, anchoring the ramp shape even for short
    arrays.
    """
    from scipy.optimize import minimize_scalar

    prof = np.asarray(gamma1_per_site, dtype=float)
    n = len(prof)
    if n < 3:
        raise ValueError("need at least 3 sites to fit a ramp shape")
    # NaN fails every comparison, so it would pass the monotonicity check
    for i, g in enumerate(prof.tolist()):
        _number(f"gamma1_per_site[{i}]", g)
    _number("gamma_total", gamma_total, gt=0)
    if np.any(np.diff(prof) < -1e-12 * gamma_total):
        raise ValueError("profile must be monotone nondecreasing")
    y = np.concatenate([[0.0], prof, [gamma_total]])
    d = np.arange(0, n + 2) / (n + 1)

    def sse(beta):
        # one sum per beta; an array of betas is scanned in one broadcast
        model = gamma_total / 2 * (np.tanh(np.multiply.outer(beta, d - 0.5)) + 1.0)
        return np.sum((y - model) ** 2, axis=-1)

    betas = np.logspace(-2, 1.8, 200)
    coarse = betas[np.argmin(sse(betas))]
    res = minimize_scalar(sse, bounds=(coarse / 2, coarse * 2),
                          method="bounded",
                          options={"xatol": 1e-10})
    return float(res.x)


def result_to_json(problem: OptimizationProblem, result: OptimizationResult,
                   path=None) -> dict:
    payload = {
        "n": problem.n_sites,
        "gamma_total": problem.gamma_total,
        "min_efficiency": problem.min_efficiency,
        "gamma1": list(result.gamma1_per_site),
        "bandwidth": result.bandwidth,
        "passband_min": result.passband_min,
        "converged": result.converged,
        "beta_fit": (fit_tanh_beta(result.gamma1_per_site, problem.gamma_total)
                     if problem.n_sites >= 3 else None),
    }
    _write_json(path, payload, sort_keys=True)
    return payload
