"""Tests for constrained bandwidth optimization and tanh-profile fits."""

import math

import numpy as np
import pytest

import oemarray.optimize as opt
from oemarray.core import FrequencyGrid
from oemarray.transducer import EliminatedSite
from oemarray.cascade import array_transfer, eliminated_spectrum, extract_bandwidth
from oemarray.optimize import (OptimizationProblem, OptimizationResult,
                               _grid_for, _grid_metrics, _sites_for, _t21_gradient,
                               eliminated_bandwidth, fit_tanh_beta,
                               grid_oracle, optimize_couplings,
                               result_to_json)

GAMMA = 0.02


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
            "0x1.0da9f78ecb283p-7", "0x1.562f1bb5e6cf9p-5"]
        assert r.bandwidth.hex() == "0x1.53f8a94d242e8p-2"
        assert r.passband_min.hex() == "0x1.fae147af05e8ep-1"

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
        assert [g.hex() for g in r.gamma1_per_site] == [
            "0x1.35f5cf12a153cp-8", "0x1.999999999999ap-6", "0x1.72dadfb7456f3p-5"]
        assert r.bandwidth.hex() == "0x1.089206d3a06d2p-1"
        assert r.passband_min.hex() == "0x1.e66666666666bp-1"

    def test_rejects_larger_arrays(self):
        with pytest.raises(ValueError, match="n_sites <= 3"):
            grid_oracle(OptimizationProblem(n_sites=4, gamma_total=0.02))


class TestSurrogate:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_agrees_with_refined_extractor_on_its_grid(self, n):
        # the search's linearly interpolated half-max against the bisected
        # one: same samples, so the same ripple floor and a width within a
        # grid step
        problem = OptimizationProblem(n_sites=n, gamma_total=GAMMA, min_efficiency=0.9)
        grid = _grid_for(problem)
        step = grid.points()[1] - grid.points()[0]
        d = np.arange(1, n + 1) / (n + 1)
        for fracs in (np.full(n, 0.5), d, 0.5 * (np.tanh(4.5 * (d - 0.5)) + 1)):
            fwhm, pb_min, *_ = _grid_metrics(fracs, problem, grid.points())
            bw = extract_bandwidth(eliminated_spectrum(_sites_for(fracs, GAMMA), grid))
            assert pb_min == bw.passband_min
            assert abs(fwhm - bw.fwhm) <= step

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_gradient_path_gives_the_same_bits(self, n):
        problem = OptimizationProblem(n_sites=n, gamma_total=GAMMA, min_efficiency=0.9)
        w = _grid_for(problem).points()
        d = np.arange(1, n + 1) / (n + 1)
        for fracs in (np.full(n, 0.5), d, 0.5 * (np.tanh(4.5 * (d - 0.5)) + 1)):
            _, pb_min, troughs, _ = _grid_metrics(fracs, problem, w)
            assert troughs[0] == pb_min
            assert len(troughs) == n - 1 and np.all(np.diff(troughs) >= 0)

    def test_metric_gradients_match_central_differences(self):
        # away from the grid-point switches the metrics are smooth, and the
        # adjoint gradients agree with differences of the surrogate.  Each
        # trough has a twin at the opposite detuning, since S(-w) = S(w)*,
        # and the two move together, so the sorted troughs keep their order
        problem = OptimizationProblem(n_sites=6, gamma_total=GAMMA, min_efficiency=0.9)
        w = _grid_for(problem).points()
        fracs = np.array([0.05, 0.2, 0.35, 0.65, 0.8, 0.95])
        d_fwhm, d_troughs = _grid_metrics(fracs, problem, w)[3]()
        h = 1e-7
        for j, e in enumerate(np.eye(6)):
            up = _grid_metrics(fracs + h * e, problem, w)
            down = _grid_metrics(fracs - h * e, problem, w)
            assert d_fwhm[j] == pytest.approx((up[0] - down[0]) / (2 * h), rel=1e-5, abs=1e-9)
            np.testing.assert_allclose(d_troughs[:, j], (up[2] - down[2]) / (2 * h),
                                       rtol=1e-5, atol=1e-9)


class TestAdjoint:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
    def test_matches_central_differences_of_the_cascade(self, n):
        rng = np.random.default_rng(1000 + n)
        fracs = rng.uniform(0.05, 0.95, size=n)
        w = _grid_for(OptimizationProblem(n_sites=n, gamma_total=GAMMA)).points()
        grad = _t21_gradient(fracs, GAMMA, w)

        def t21(f):
            sites = [EliminatedSite(gamma1=x * GAMMA, gamma2=(1 - x) * GAMMA) for x in f]
            return array_transfer(sites, w)[..., 1, 0]

        h = 1e-6
        for j, e in enumerate(np.eye(n)):
            fd = (t21(fracs + h * e) - t21(fracs - h * e)) / (2 * h)
            assert np.max(np.abs(grad[j] - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_each_profile_is_evaluated_once_per_search(monkeypatch):
    # SLSQP asks for the objective, the constraint and their gradients at
    # the same point; a search computes each distinct profile once, and the
    # result counts exactly those
    calls = []
    search, metrics = opt._local_search, opt._grid_metrics

    def counted_search(start, problem):
        calls.append([])
        return search(start, problem)

    def counted_metrics(fracs, problem, *args):
        calls[-1].append(np.asarray(fracs).tobytes())
        return metrics(fracs, problem, *args)

    monkeypatch.setattr(opt, "_local_search", counted_search)
    monkeypatch.setattr(opt, "_grid_metrics", counted_metrics)
    r = optimize_couplings(OptimizationProblem(n_sites=2, gamma_total=0.05,
                                               min_efficiency=0.99))
    assert len(calls) == 8
    for profiles in calls:
        assert len(set(profiles)) == len(profiles)
    assert r.evaluations == sum(len(p) for p in calls)


def test_gradients_are_built_only_where_the_solver_asks(monkeypatch, n2_result):
    # SLSQP's line search needs values alone at its trial points, so the
    # adjoint sweep runs at fewer profiles than the surrogate is evaluated at,
    # and the search takes the same steps
    problem, r = n2_result
    sweeps = []
    gradient = opt._t21_gradient

    def counted_gradient(*args):
        sweeps.append(1)
        return gradient(*args)

    monkeypatch.setattr(opt, "_t21_gradient", counted_gradient)
    again = optimize_couplings(problem)
    assert again == r
    assert 0 < len(sweeps) < r.evaluations


class TestStarts:
    @staticmethod
    def searches(monkeypatch, n_random_starts):
        starts = []
        search = opt._local_search

        def counted_search(start, problem):
            starts.append(start)
            return search(start, problem)

        monkeypatch.setattr(opt, "_local_search", counted_search)
        r = optimize_couplings(OptimizationProblem(n_sites=2, gamma_total=0.05),
                               n_random_starts=n_random_starts)
        assert r.converged
        return len(starts)

    @pytest.mark.parametrize("n_random,searches", [(0, 5), (1, 6)])
    def test_runs_exactly_the_requested_random_starts(self, monkeypatch, n_random,
                                                      searches):
        # five ramp-shaped starts, then the random ones
        assert self.searches(monkeypatch, n_random) == searches

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="n_random_starts must be >= 0"):
            optimize_couplings(OptimizationProblem(n_sites=2, gamma_total=0.05),
                               n_random_starts=-1)


def test_search_is_scale_free():
    # every rate and frequency scales with the budget, so the optimum's
    # rate fractions and bandwidth in units of the budget do not depend on
    # it.  The reported width is refined to an absolute 1e-6, which at a
    # budget of 1e-200 is no refinement at all, so each run's profile is
    # also measured again at a budget of 0.05.
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
        if gamma_total >= 0.05:
            widths.append(r.bandwidth / gamma_total)
    for f in fractions[1:]:
        np.testing.assert_allclose(f, fractions[0], rtol=1e-6)
    np.testing.assert_allclose(widths, widths[0], rtol=1e-6)


@pytest.mark.xfail(strict=True, reason=(
    "extract_bandwidth bisects the crossings to an absolute 1e-6, so at a "
    "budget of 1e-200 it reports the unrefined grid width, 9.8e-6 relative "
    "below the refined one"))
def test_reported_bandwidth_is_scale_free():
    widths = [optimize_couplings(OptimizationProblem(
        n_sites=2, gamma_total=gamma_total, min_efficiency=0.99)).bandwidth / gamma_total
        for gamma_total in (1e-200, 0.05, 1e3)]
    np.testing.assert_allclose(widths, widths[1], rtol=1e-6)


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
