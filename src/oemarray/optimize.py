"""Constrained bandwidth maximization over mirror-symmetric coupling ramps.

The search runs in the cavity-eliminated picture, where each site is a
mechanical resonance with two external rates summing to a fixed budget.
The objective is the conversion FWHM of the sampled spectrum, with
crossings interpolated between grid points, and each in-band ripple trough
is held above a floor by an inequality constraint.  All are piecewise smooth
in the rate fractions, and their exact gradients come from one adjoint sweep
of the cascade, so each start is one gradient-based SLSQP solve.  The sweep
runs only at the profiles where the solver asks for a gradient, since its
line search needs values alone.  A brute-force
grid oracle covers the small arrays, and profiles can be summarized by
their best-fit tanh steepness.  scipy imports stay inside the functions
that call them, since every CLI run would otherwise pay them at start-up
(``scipy.optimize`` takes about 0.6 s to import, ``scipy.linalg`` alone
about 0.5 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import FrequencyGrid, SpectrumError, _count, _number, _write_json
from .transducer import EliminatedSite
from .cascade import _halfmax, _t21, eliminated_spectrum, extract_bandwidth

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
    prof = np.empty(n)
    half = n // 2
    prof[:half] = free
    if n % 2:
        prof[half] = 0.5
    prof[n - half:] = 1.0 - free[::-1]
    return prof


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


def _cross(w: np.ndarray, v: np.ndarray, half: float, ia: int, ib: int) -> float:
    """Half-max crossing linearly interpolated between grid points ia and ib."""
    wa, wb = w[ia], w[ib]
    va, vb = v[ia], v[ib]
    return wa + (half - va) * (wb - wa) / (vb - va)


def _t21_gradient(fracs: np.ndarray, gamma_total: float, omega: np.ndarray) -> np.ndarray:
    """dT21/df_j of the eliminated cascade at the frequencies ``omega`` (row j).

    With u = omega / gamma_total and d = 2(2f - 1), a site is [[-d - iu,
    o], [o, d - iu]] / (2 - iu) with o = -4 sqrt(f(1 - f)); G1 + G2 is the
    fixed budget, so the denominator does not depend on f, and dS/df =
    [[-4, -2k], [-2k, 4]] / (2 - iu) with k = (1 - 2f) / sqrt(f(1 - f)).
    A forward sweep carries column 0 of the prefix products P_j = S_j ...
    S_1, an adjoint sweep row 1 of the suffix products Q_j = S_N ...
    S_{j+1}, and dT21/df_j = (Q_j dS_j P_{j-1})_10.  Both carry their two
    entries as the two lanes of one array, so each site costs three ufunc
    calls per sweep, with every product's operands in the order of the
    entrywise formulas.
    """
    n = len(fracs)
    f = np.asarray(fracs, dtype=float)[:, None]
    iu = 1j * (omega / gamma_total)
    den = 2 - iu
    root = np.sqrt(f * (1 - f))
    # S_j is symmetric: s[j] is (s00, s01 = s10, s11), so a[j] = s[j, :2] is
    # its column and row 0 and b[j] = s[j, 1:] its column and row 1.  It maps
    # a column c to a[j] * c[0] + b[j] * c[1] and a row r to r[0] * a[j] +
    # r[1] * b[j]
    s = np.empty((n, 3, len(omega)), dtype=complex)
    s[:, 0], s[:, 1], s[:, 2] = ((2 - 4 * f - iu) / den, -4 * root / den,
                                 (4 * f - 2 - iu) / den)
    a, b = s[:, :2], s[:, 1:]
    cols = np.zeros((n, 2, len(omega)), dtype=complex)  # column 0 of P_{j-1}
    rows = np.zeros_like(cols)  # row 1 of Q_j
    cols[0, 0] = rows[-1, 1] = 1
    for j in range(n - 1):
        np.add(a[j] * cols[j, 0], b[j] * cols[j, 1], out=cols[j + 1])
    for j in range(n - 1, 0, -1):
        np.add(rows[j, 0] * a[j], rows[j, 1] * b[j], out=rows[j - 1])
    r0, r1, c0, c1 = rows[:, 0], rows[:, 1], cols[:, 0], cols[:, 1]
    k = (1 - 2 * f) / root
    return (-4 * (r0 * c0 - r1 * c1) - 2 * k * (r0 * c1 + r1 * c0)) / den


def _grid_metrics(fracs: np.ndarray, problem: OptimizationProblem, w: np.ndarray):
    """(fwhm, passband_min, troughs, derivatives) of the sampled spectrum.

    Crossings are linearly interpolated between grid points; this is the
    cheap surrogate the local search iterates on, while final reporting
    goes through the bisection-refined extractor.  ``w`` is the points of
    ``_grid_for(problem)``.

    The troughs are the N - 1 lowest local minima of the samples within the
    half-max span, ascending (the first is passband_min), padded with the
    peak when there are fewer.  The floor is the smallest trough, and the
    troughs are what an optimal ramp holds at the floor together, so a
    constraint on each of them is smooth where one on their minimum has a
    kink.

    ``derivatives()`` returns (d_fwhm, d_troughs): the FWHM's gradient in
    the rate fractions, and trough k's in row k.  They cost about as much
    as the values again, and SLSQP's line search needs values alone, so
    they are computed only on that call.  Each crossing is differentiated
    through its interpolation formula, with the half level as half the peak
    sample, so T21's derivatives are needed only at the crossings' four
    samples, the peak and the troughs.
    """
    t21 = _t21(_sites_for(fracs, problem.gamma_total), w)
    v = np.abs(t21) ** 2
    n_troughs = max(len(fracs) - 1, 1)
    try:
        _, half, i0, i1, pb_min = _halfmax(v)
    except SpectrumError:
        return 0.0, 0.0, np.zeros(n_troughs), lambda: (
            np.zeros(len(fracs)), np.zeros((n_troughs, len(fracs))))
    fwhm = float(_cross(w, v, half, i1, i1 + 1) - _cross(w, v, half, i0 - 1, i0))

    # v[i0 - 1] and v[i1 + 1] lie below half, so neither end is a minimum
    span = v[i0:i1 + 1]
    troughs = np.flatnonzero((span <= v[i0 - 1:i1]) & (span < v[i0 + 1:i1 + 2])) + i0
    troughs = troughs[np.argsort(v[troughs], kind="stable")][:n_troughs]
    i_peak = int(np.argmax(v))
    idx = np.concatenate([[i0 - 1, i0, i1, i1 + 1, i_peak], troughs,
                          np.full(n_troughs - len(troughs), i_peak)])
    # the samples the derivatives need, so that a search's memo does not
    # hold on to the whole spectrum of every profile
    t_at, v_at, w_at = t21[idx], v[idx], w[idx]

    def derivatives():
        dv = 2 * (t_at.conjugate() * _t21_gradient(fracs, problem.gamma_total, w_at)).real
        dhalf = dv[:, 4] / 2

        def dcross(col):  # the crossing between samples col and col + 1
            dva, dvb = dv[:, col], dv[:, col + 1]
            run, rise = w_at[col + 1] - w_at[col], v_at[col + 1] - v_at[col]
            return run * ((dhalf - dva) * rise - (half - v_at[col]) * (dvb - dva)) / rise ** 2

        return dcross(2) - dcross(0), dv[:, 5:].T

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

    w = _grid_for(problem).points()
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
            values[key] = _grid_metrics(_mirror_fractions(xc, problem.n_sites), problem, w)
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
    every ripple trough held above the floor, all gradients exact (one
    adjoint sweep of the cascade at each profile where the solver asks for
    a gradient); a few Newton steps along the floor's gradient then
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
    tol_bw = max(1e-6, 1e-3 * problem.gamma_total)
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
    w = _grid_for(problem).points()

    def objective(f: float) -> float:
        nonlocal evals
        evals += 1
        fwhm, pb, *_ = _grid_metrics(
            _mirror_fractions(np.array([f]), problem.n_sites), problem, w)
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

    def sse(beta: float) -> float:
        model = gamma_total / 2 * (np.tanh(beta * (d - 0.5)) + 1.0)
        return float(np.sum((y - model) ** 2))

    betas = np.logspace(-2, 1.8, 200)
    coarse = min(betas, key=sse)
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
