"""Tests for constrained bandwidth optimization and tanh-profile fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oemarray.cascade as cascade
import oemarray.optimize as opt
from oemarray.core import FrequencyGrid, SpectrumError
from oemarray.transducer import EliminatedSite
from oemarray.cascade import _t21, array_transfer, eliminated_spectrum, extract_bandwidth
from oemarray.optimize import (OptimizationProblem, OptimizationResult,
                               _coefficients, _grid_for, _sites_for,
                               _t21_jacobian, _trough_gradients, _troughs,
                               eliminated_bandwidth, fit_tanh_beta,
                               grid_oracle, optimize_couplings,
                               result_to_json)

GAMMA = 0.02


def _clip(x):
    # fractions of 0 or 1 leave a site coupled to one side only
    return np.clip(x, 1e-4, 1 - 1e-4)


@pytest.fixture(scope="module")
def n2_result():
    problem = OptimizationProblem(n_sites=2, gamma_total=0.05,
                                  min_efficiency=0.99)
    return problem, optimize_couplings(problem)


@pytest.fixture(scope="module")
def n6_result():
    problem = OptimizationProblem(n_sites=6, gamma_total=GAMMA,
                                  min_efficiency=0.95)
    return problem, optimize_couplings(problem)


@pytest.fixture(scope="module")
def constraint_sweep():
    out = {}
    for min_eff in (0.5, 0.9, 0.99):
        problem = OptimizationProblem(n_sites=6, gamma_total=GAMMA,
                                      min_efficiency=min_eff)
        out[min_eff] = optimize_couplings(problem)
    return out


class TestProblemValidation:
    def test_rejects_empty_array(self):
        with pytest.raises(ValueError):
            OptimizationProblem(n_sites=0, gamma_total=0.02)

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            OptimizationProblem(n_sites=2, gamma_total=0.0)

    @pytest.mark.parametrize("n_sites", [2.5, math.nan, 2.0])
    def test_rejects_fractional_site_count(self, n_sites):
        # optimize_couplings would fail later, in numpy, without naming it
        with pytest.raises(ValueError, match="n_sites must be a positive integer"):
            OptimizationProblem(n_sites=n_sites, gamma_total=0.05)

    def test_rejects_bad_efficiency_floor(self):
        with pytest.raises(ValueError):
            OptimizationProblem(n_sites=2, gamma_total=0.02, min_efficiency=0.0)
        with pytest.raises(ValueError):
            OptimizationProblem(n_sites=2, gamma_total=0.02, min_efficiency=1.2)


class TestSingleSite:
    def test_balanced_split_is_optimal(self):
        r = optimize_couplings(OptimizationProblem(n_sites=1, gamma_total=0.05))
        assert r.gamma1_per_site == (0.025,)
        assert r.converged
        assert r.passband_min == pytest.approx(1.0, abs=1e-9)
        # single balanced resonance: width is four times the rate budget
        assert r.bandwidth == pytest.approx(0.2, rel=1e-6)


class TestTwoSites:
    def test_known_constrained_optimum(self, n2_result):
        problem, r = n2_result
        assert r.converged
        assert r.gamma1_per_site[0] == pytest.approx(0.008, abs=5e-4)
        assert r.bandwidth == pytest.approx(0.332, abs=2e-3)
        assert r.passband_min >= 0.99 - 1e-6

    def test_result_is_pinned_bit_for_bit(self, n2_result):
        _, r = n2_result
        assert [g.hex() for g in r.gamma1_per_site] == [
            "0x1.0da9f7919af66p-7", "0x1.562f1bb532dc0p-5"]
        assert r.bandwidth.hex() == "0x1.53f8b43958108p-2"
        assert r.passband_min.hex() == "0x1.fae147ae147acp-1"

    def test_agrees_with_grid_oracle(self, n2_result):
        problem, r = n2_result
        o = grid_oracle(problem)
        resolution = problem.gamma_total / 400
        assert abs(r.gamma1_per_site[0] - o.gamma1_per_site[0]) <= resolution
        assert r.bandwidth >= o.bandwidth - resolution

    def test_search_is_serial(self, n2_result):
        # the benchmark's traced run passes workers=1; no other value exists
        problem, r = n2_result
        r1 = optimize_couplings(problem, workers=1)
        assert [g.hex() for g in r1.gamma1_per_site] == [g.hex() for g in r.gamma1_per_site]
        assert (r1.bandwidth.hex(), r1.passband_min.hex(), r1.evaluations) == (
            r.bandwidth.hex(), r.passband_min.hex(), r.evaluations)
        with pytest.raises(ValueError, match="workers must be 1"):
            optimize_couplings(problem, workers=2)


class TestGridOracle:
    def test_single_site_balanced(self):
        r = grid_oracle(OptimizationProblem(n_sites=1, gamma_total=0.05))
        assert r.gamma1_per_site == (0.025,)

    def test_unconstrained_maximum_has_mid_band_dip(self):
        problem = OptimizationProblem(n_sites=2, gamma_total=0.05,
                                      min_efficiency=1e-9)
        r = grid_oracle(problem)
        assert abs(r.gamma1_per_site[0] - 0.025) <= 0.05 / 400
        assert r.bandwidth == pytest.approx(0.4828, abs=2e-3)
        assert r.passband_min < 0.1

    def test_three_sites_agree_with_search(self):
        problem = OptimizationProblem(n_sites=3, gamma_total=0.05,
                                      min_efficiency=0.95)
        o = grid_oracle(problem)
        r = optimize_couplings(problem)
        resolution = problem.gamma_total / 400
        np.testing.assert_allclose(r.gamma1_per_site, o.gamma1_per_site,
                                   atol=resolution)
        assert o.gamma1_per_site[1] == pytest.approx(0.025, abs=1e-12)
        # judged on the refined troughs, the oracle's own best profile holds
        # the floor, where the sampled floor let it miss by 3e-5
        assert o.converged
        assert [g.hex() for g in r.gamma1_per_site] == [
            "0x1.35e7a1fdc7c09p-8", "0x1.999999999999ap-6", "0x1.72dca559e0a19p-5"]
        assert r.bandwidth.hex() == "0x1.088e962fc962ep-1"
        assert r.passband_min.hex() == "0x1.e66666666665ep-1"

    def test_rejects_larger_arrays(self):
        with pytest.raises(ValueError, match="n_sites <= 3"):
            grid_oracle(OptimizationProblem(n_sites=4, gamma_total=0.02))


def _t21_gradient(fracs, gamma_total, omega):
    """dT21/df_j of the eliminated cascade (row j): the adjoint sweep the
    surrogate used before its sites' polynomial, kept as the reference.

    With u = omega / gamma_total and d = 2(2f - 1), a site is [[-d - iu,
    o], [o, d - iu]] / (2 - iu) with o = -4 sqrt(f(1 - f)), and dS/df =
    [[-4, -2k], [-2k, 4]] / (2 - iu) with k = (1 - 2f) / sqrt(f(1 - f)).
    A forward sweep carries column 0 of the prefix products P_j, an adjoint
    sweep row 1 of the suffix products Q_j, and dT21/df_j = (Q_j dS_j
    P_{j-1})_10.
    """
    n = len(fracs)
    f = np.asarray(fracs, dtype=float)[:, None]
    iu = 1j * (omega / gamma_total)
    den = 2 - iu
    root = np.sqrt(f * (1 - f))
    s = np.empty((n, 3, len(omega)), dtype=complex)
    s[:, 0], s[:, 1], s[:, 2] = ((2 - 4 * f - iu) / den, -4 * root / den,
                                 (4 * f - 2 - iu) / den)
    a, b = s[:, :2], s[:, 1:]
    cols = np.zeros((n, 2, len(omega)), dtype=complex)
    rows = np.zeros_like(cols)
    cols[0, 0] = rows[-1, 1] = 1
    for j in range(n - 1):
        np.add(a[j] * cols[j, 0], b[j] * cols[j, 1], out=cols[j + 1])
    for j in range(n - 1, 0, -1):
        np.add(rows[j, 0] * a[j], rows[j, 1] * b[j], out=rows[j - 1])
    r0, r1, c0, c1 = rows[:, 0], rows[:, 1], cols[:, 0], cols[:, 1]
    k = (1 - 2 * f) / root
    return (-4 * (r0 * c0 - r1 * c1) - 2 * k * (r0 * c1 + r1 * c0)) / den


def _basis(problem):
    """zeta^k in row k, k = 0 .. N, at the points of ``_grid_for(problem)``."""
    w = _grid_for(problem).points()
    zeta = 1 - 4j / (w / problem.gamma_total + 2j)  # (w - 2iG)/(w + 2iG)
    return np.cumprod([np.ones_like(zeta)] + [zeta] * problem.n_sites, axis=0)


def _polynomial_t21(fracs, problem):
    """T21 of the sites' polynomial on the search grid."""
    return _coefficients(fracs) @ _basis(problem)


# the largest gap between |T21|^2 of the sites' polynomial and of the
# cascade on the search grid, relative to the peak: the worst of 300 random
# profiles measured 1.0e-14 at 24 sites, and a tanh ramp 6.0e-14 at 200
POLY_AGREEMENT = 5e-14


@settings(max_examples=60, deadline=None)
@given(fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
def test_polynomial_matches_the_cascade(fracs):
    fracs = _clip(np.array(fracs))
    problem = OptimizationProblem(n_sites=len(fracs), gamma_total=GAMMA)
    v = np.abs(_polynomial_t21(fracs, problem)) ** 2
    ref = np.abs(_t21(_sites_for(fracs, GAMMA), _grid_for(problem).points())) ** 2
    assert np.max(np.abs(v - ref)) <= POLY_AGREEMENT * ref.max()


@pytest.mark.parametrize("n", [60, 200])
def test_polynomial_holds_for_long_arrays(n):
    # every coefficient is at most 1 in modulus, so the rounding does not
    # grow with N as it does in powers of the frequency (6e-8 at 60 sites)
    d = np.arange(1, n + 1) / (n + 1)
    fracs = _clip(0.5 * (np.tanh(4.5 * (d - 0.5)) + 1))
    problem = OptimizationProblem(n_sites=n, gamma_total=GAMMA)
    v = np.abs(_polynomial_t21(fracs, problem)) ** 2
    ref = np.abs(_t21(_sites_for(fracs, GAMMA), _grid_for(problem).points())) ** 2
    assert np.max(np.abs(v - ref)) <= 2 * POLY_AGREEMENT * ref.max()
    assert np.sum(_coefficients(fracs) ** 2) <= 1 + 1e-12


def test_search_calls_no_site_kernel(monkeypatch):
    # the troughs and their gradients come from the polynomial at every
    # size; only the refined extractor in _finalize sweeps the cascade
    problem = OptimizationProblem(n_sites=30, gamma_total=GAMMA, min_efficiency=0.9)

    def kernel(*args, **kwargs):
        raise AssertionError("site kernel called during the search")

    monkeypatch.setattr(cascade, "scattering_eliminated", kernel)
    x, evaluations, solved = opt._equiripple(problem)
    assert solved and evaluations > 1 and np.all(np.isfinite(x))


class TestSurrogate:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_refined_troughs_are_stationary_points_below_their_samples(self, n):
        # each refined trough has dR/dtheta = 0 to rounding, and the smallest
        # lies at or below the floor sampled on the search grid
        problem = OptimizationProblem(n_sites=n, gamma_total=GAMMA, min_efficiency=0.9)
        basis = _basis(problem)
        d = np.arange(1, n + 1) / (n + 1)
        for fracs in (d, 0.5 * (np.tanh(4.5 * (d - 0.5)) + 1)):
            coef = _coefficients(fracs)
            v, t21, powers = _troughs(coef)
            assert len(v) == n // 2
            k = np.arange(n + 1)[:, None]
            d_theta = 2 * (t21.conjugate() * ((1j * k * coef[:, None]) * powers).sum(0)).real
            assert np.max(np.abs(d_theta)) <= 1e-12
            sampled = coef @ basis
            assert v.min() <= cascade._halfmax(sampled.real ** 2 + sampled.imag ** 2)[4] + 1e-15

    @pytest.mark.parametrize("coef", [[0.5, np.nan, -0.5], [np.inf, 0.0, -1.0],
                                      [0.0, 0.0, 0.0]])
    def test_unusable_coefficients_raise_spectrum_error(self, coef):
        with pytest.raises(SpectrumError):
            _troughs(np.array(coef))

    def test_failed_root_step_raises_spectrum_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(SpectrumError, match="did not converge"):
            _troughs(_coefficients(np.array([0.2, 0.5, 0.8])))

    @pytest.mark.parametrize("n", [3, 6, 11])
    def test_trough_gradients_match_central_differences(self, n):
        # a trough moves with the fractions, but dR/dtheta = 0 there, so
        # its gradient is dR/df at the refined point alone
        d = np.arange(1, n + 1) / (n + 1)
        fracs = 0.5 * (np.tanh(4.5 * (d - 0.5)) + 1)
        v, t21, powers = _troughs(_coefficients(fracs))
        grad = _trough_gradients(fracs, t21, powers)
        h = 1e-6
        for j, e in enumerate(np.eye(n)):
            up = _troughs(_coefficients(fracs + h * e))[0]
            down = _troughs(_coefficients(fracs - h * e))[0]
            np.testing.assert_allclose(grad[:, j], (up - down) / (2 * h),
                                       rtol=1e-6, atol=1e-9)


class TestAdjoint:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
    def test_matches_central_differences_of_the_cascade(self, n):
        rng = np.random.default_rng(1000 + n)
        fracs = rng.uniform(0.05, 0.95, size=n)
        problem = OptimizationProblem(n_sites=n, gamma_total=GAMMA)
        w = _grid_for(problem).points()
        grad = _t21_jacobian(fracs) @ _basis(problem)

        def t21(f):
            sites = [EliminatedSite(gamma1=x * GAMMA, gamma2=(1 - x) * GAMMA) for x in f]
            return array_transfer(sites, w)[..., 1, 0]

        h = 1e-6
        for j, e in enumerate(np.eye(n)):
            fd = (t21(fracs + h * e) - t21(fracs - h * e)) / (2 * h)
            assert np.max(np.abs(grad[j] - fd)) <= 1e-6 * np.max(np.abs(fd))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
    def test_matches_the_sweep_it_replaced(self, n):
        rng = np.random.default_rng(2000 + n)
        fracs = _clip(rng.uniform(0, 1, size=n))
        problem = OptimizationProblem(n_sites=n, gamma_total=GAMMA)
        ref = _t21_gradient(fracs, GAMMA, _grid_for(problem).points())
        grad = _t21_jacobian(fracs) @ _basis(problem)
        assert np.max(np.abs(grad - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_each_profile_is_evaluated_once_per_search(monkeypatch, n2_result):
    # one trough evaluation per Newton iterate, the start included, each at
    # a new profile; the result counts exactly those, and _finalize's own
    # evaluation of the reported profile (with the peak) is not counted
    problem, r = n2_result
    profiles = []
    troughs = opt._troughs

    def counted_troughs(coef, peak=False):
        if not peak:
            profiles.append(coef.tobytes())
        return troughs(coef, peak)

    monkeypatch.setattr(opt, "_troughs", counted_troughs)
    assert optimize_couplings(problem) == r
    assert len(set(profiles)) == len(profiles) == r.evaluations


def test_one_jacobian_per_newton_step(monkeypatch, n2_result):
    # every step here is taken whole, so the iterates are the start and one
    # per step, and the Jacobian is built once per step: not at the last
    # iterate, where the troughs already sit on the floor
    problem, r = n2_result
    sweeps = []
    gradient = opt._t21_jacobian

    def counted_gradient(*args):
        sweeps.append(1)
        return gradient(*args)

    monkeypatch.setattr(opt, "_t21_jacobian", counted_gradient)
    again = optimize_couplings(problem)
    assert again == r
    assert len(sweeps) == r.evaluations - 1 > 0


class TestStarts:
    """The search has one start; ``n_random_starts`` and ``seed`` are
    checked and otherwise ignored."""

    @pytest.mark.parametrize("n_random_starts,seed", [(0, 97), (1, 97), (5, 1)])
    def test_start_keywords_leave_the_result_unchanged(self, n2_result,
                                                       n_random_starts, seed):
        problem, r = n2_result
        again = optimize_couplings(problem, n_random_starts=n_random_starts, seed=seed)
        assert [g.hex() for g in again.gamma1_per_site] == [g.hex() for g in r.gamma1_per_site]
        assert (again.bandwidth.hex(), again.passband_min.hex(), again.converged,
                again.evaluations) == (r.bandwidth.hex(), r.passband_min.hex(),
                                       r.converged, r.evaluations)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n_random_starts must be >= 0"):
            optimize_couplings(OptimizationProblem(n_sites=2, gamma_total=0.05),
                               n_random_starts=-1)


def test_search_is_scale_free():
    # every rate and frequency scales with the budget, so the optimum's
    # rate fractions and bandwidth in units of the budget do not depend on
    # it.  Each run's profile is also measured again at a budget of 0.05,
    # which compares the profiles apart from the reported widths.
    fractions, widths = [], []
    for gamma_total in (1e-200, 0.05, 1e3):
        problem = OptimizationProblem(n_sites=2, gamma_total=gamma_total,
                                      min_efficiency=0.99)
        r = optimize_couplings(problem)
        assert r.converged
        assert r.passband_min >= 0.99 - 1e-6
        f = np.array(r.gamma1_per_site) / gamma_total
        fractions.append(f)
        widths.append(eliminated_bandwidth(0.05 * f, 0.05).fwhm / 0.05)
        widths.append(r.bandwidth / gamma_total)
    for f in fractions[1:]:
        np.testing.assert_allclose(f, fractions[0], rtol=1e-6)
    np.testing.assert_allclose(widths, widths[0], rtol=1e-6)


def test_reported_bandwidth_is_scale_free():
    widths = [optimize_couplings(OptimizationProblem(
        n_sites=2, gamma_total=gamma_total, min_efficiency=0.99)).bandwidth / gamma_total
        for gamma_total in (1e-200, 0.05, 1e3)]
    np.testing.assert_allclose(widths, widths[1], rtol=1e-9)


def _resampled_floor(r, n):
    """The in-band minimum of a result's |T21|^2, resampled from its zeta
    polynomial on 1.2M points of the search span."""
    coef = _coefficients(np.array(r.gamma1_per_site) / GAMMA)
    span = 4 * GAMMA * (n + 2)
    w = np.linspace(-span, span, 1_200_001)
    zeta = (w - 2j * GAMMA) / (w + 2j * GAMMA)
    t21 = np.zeros_like(zeta)
    for c in coef[::-1]:
        t21 = t21 * zeta + c
    return cascade._halfmax(t21.real ** 2 + t21.imag ** 2)[4]


@pytest.mark.parametrize("n,floor", [(3, 0.95), (6, 0.95), (10, 0.95), (16, 0.95),
                                     (20, 0.95), (10, 0.99), (24, 0.9999),
                                     (176, 0.95)])
def test_floor_holds_on_resampling(n, floor):
    # the reported floor is the smallest refined trough: a resampling of the
    # polynomial on 1.2M points of the search span finds the same in-band
    # minimum, and it holds, where grid samples missed it by up to 1.7e-2.
    # At 0.9999 and 24 sites the end fraction is 9.2e-5.  From 176 sites a
    # fixed 1201-point circle of samples missed the outermost trough.
    problem = OptimizationProblem(n_sites=n, gamma_total=GAMMA, min_efficiency=floor)
    r = optimize_couplings(problem)
    assert r.converged
    resampled = _resampled_floor(r, n)
    assert abs(r.passband_min - resampled) <= 1e-9
    assert resampled >= floor - 1e-9


@pytest.mark.parametrize("n", [2, 3, 6, 10, 24, 200])
def test_floor_of_one_is_met_within_the_tolerance(n):
    # at a floor of 1 the troughs would merge with the peaks, where the
    # solve's Jacobian is singular; they sit 5e-7 below 1 instead, within
    # the 1e-6 that converged allows
    r = optimize_couplings(OptimizationProblem(n_sites=n, gamma_total=GAMMA,
                                               min_efficiency=1.0))
    assert r.converged
    resampled = _resampled_floor(r, n)
    assert abs(r.passband_min - resampled) <= 1e-9
    assert 1 - 1e-6 <= resampled < 1


class TestOptimizerInvariants:
    def test_mirror_symmetry_of_output(self):
        r = optimize_couplings(OptimizationProblem(n_sites=5, gamma_total=GAMMA,
                                                   min_efficiency=0.9))
        prof = np.array(r.gamma1_per_site)
        np.testing.assert_allclose(prof + prof[::-1], GAMMA, atol=1e-8)
        assert prof[2] == pytest.approx(GAMMA / 2, abs=1e-12)

    def test_constraint_is_active(self, n6_result):
        problem, r = n6_result
        assert r.converged
        assert abs(r.passband_min - problem.min_efficiency) <= 1e-3

    def test_reported_bandwidth_reproduces_independently(self, n6_result):
        problem, r = n6_result
        span = 4 * problem.gamma_total * (problem.n_sites + 2)
        sites = [EliminatedSite(gamma1=g, gamma2=problem.gamma_total - g)
                 for g in r.gamma1_per_site]
        bw = extract_bandwidth(eliminated_spectrum(
            sites, FrequencyGrid(-span, span, 1201)))
        assert abs(bw.fwhm - r.bandwidth) <= 1e-6

    def test_optimal_profile_is_a_monotone_ramp(self, n6_result):
        _, r = n6_result
        assert np.all(np.diff(r.gamma1_per_site) > 0)


class TestBandwidthTrend:
    def test_grows_linearly_with_array_size(self):
        bws = []
        for n in range(1, 7):
            r = optimize_couplings(OptimizationProblem(
                n_sites=n, gamma_total=GAMMA, min_efficiency=0.9))
            assert r.converged
            bws.append(r.bandwidth)
        ns = np.arange(1, 7)
        ratios = np.array(bws) / (4 * GAMMA * ns)
        assert np.all((ratios > 0.85) & (ratios < 1.05))
        slope, intercept = np.polyfit(ns, bws, 1)
        resid = np.abs(np.polyval([slope, intercept], ns) - bws)
        assert resid.max() < 0.02 * max(bws)
        assert 0.85 <= slope / (4 * GAMMA) <= 1.0


class TestTanhFit:
    def test_recovers_generating_steepness(self):
        # the two anchor sites pull the fit slightly steep at this length;
        # the bias decays as the anchors get diluted
        d = np.arange(1, 7) / 7
        prof = GAMMA / 2 * (np.tanh(4.5 * (d - 0.5)) + 1)
        assert fit_tanh_beta(prof, GAMMA) == pytest.approx(4.5286, abs=2e-3)
        d = np.arange(1, 41) / 41
        prof = GAMMA / 2 * (np.tanh(4.5 * (d - 0.5)) + 1)
        assert fit_tanh_beta(prof, GAMMA) == pytest.approx(4.5, abs=0.01)

    def test_rejects_short_profiles(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_tanh_beta([0.005, 0.015], GAMMA)

    def test_rejects_non_monotone_profiles(self):
        with pytest.raises(ValueError, match="monotone"):
            fit_tanh_beta([0.01, 0.004, 0.016], GAMMA)

    @pytest.mark.parametrize("prof,total", [
        ([math.nan, 0.5, 1.0], 1.0),
        ([0.1, 0.5, math.inf], 1.0),
        ([0.1, 0.5, 0.9], math.nan),
    ])
    def test_rejects_non_finite_input(self, prof, total):
        # NaN passes the monotonicity check, and the fit then returns a number
        with pytest.raises(ValueError, match="finite"):
            fit_tanh_beta(prof, total)

    def test_optimized_profile_steepens_with_the_floor(self, constraint_sweep):
        betas = [fit_tanh_beta(r.gamma1_per_site, GAMMA)
                 for r in constraint_sweep.values()]
        assert all(a < b for a, b in zip(betas, betas[1:]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma_total", [0.02, 1.0, 1e-200, 1e-310, 1e300])
    def test_fit_is_scale_free(self, constraint_sweep, gamma_total):
        # the fit runs in rate fractions: at 1e-200 and 1e-310 a fit in rates
        # returned the lower edge of its scan, and at 1e300 it overflowed
        fracs = np.array(constraint_sweep[0.99].gamma1_per_site) / GAMMA
        beta = fit_tanh_beta(fracs * gamma_total, gamma_total)
        assert beta == pytest.approx(5.0316550406, abs=1e-9)

    def test_standard_constraint_lands_near_reference_steepness(self, n6_result):
        _, r = n6_result
        beta = fit_tanh_beta(r.gamma1_per_site, GAMMA)
        assert 4.0 <= beta <= 5.0


class TestResultExport:
    def test_payload_fields(self, n6_result, tmp_path):
        problem, r = n6_result
        path = tmp_path / "opt.json"
        payload = result_to_json(problem, r, path)
        assert set(payload) == {"n", "gamma_total", "min_efficiency", "gamma1",
                                "bandwidth", "passband_min", "converged",
                                "beta_fit"}
        assert payload["beta_fit"] == pytest.approx(4.19, abs=0.05)
        assert path.read_text().endswith("\n")

    def test_short_arrays_skip_the_fit(self, n2_result):
        problem, r = n2_result
        assert result_to_json(problem, r)["beta_fit"] is None
