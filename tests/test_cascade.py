import functools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oemarray import (
    ArrayConfig,
    CouplingProfile,
    FrequencyGrid,
    SingularMatrixError,
    SpectrumError,
    SiteParams,
    materialize_sites,
)
from oemarray import cascade
from oemarray.cascade import (
    Spectrum,
    _bisect_crossings,
    _halfmax,
    _mul2,
    _t21,
    array_transfer,
    bandwidth_analytic,
    bandwidth_to_json,
    conversion_spectrum,
    eliminated_spectrum,
    extract_bandwidth,
    halfmax_roots_analytic,
    phase_winding,
    spectrum_to_csv,
)
from oemarray.optimize import eliminated_bandwidth
from oemarray.transducer import (
    EliminatedSite,
    scattering_eliminated,
    scattering_full,
)


def tanh_config(n, g=0.08, **kw):
    return ArrayConfig(n_sites=n, profile=CouplingProfile.tanh(g),
                       kappa1=kw.pop("kappa1", 1.0), kappa2=kw.pop("kappa2", 1.0),
                       gamma=kw.pop("gamma", 0.0), **kw)


def fwhm_of(config, width, pts=2001):
    grid = FrequencyGrid(-width, width, pts)
    return extract_bandwidth(conversion_spectrum(config, grid)).fwhm


class TestArrayTransfer:
    def test_single_site_reduces_to_site_matrix(self):
        site = SiteParams(g1=0.06, g2=0.09, kappa1=1.0, kappa2=1.1, gamma=1e-3)
        np.testing.assert_array_equal(
            array_transfer([site], 0.3), scattering_full(site, 0.3))

    def test_decoupled_sites_accumulate_reflection_phase(self):
        site = SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.3, gamma=0.01)
        t = array_transfer([site] * 7, 0.4)
        r1 = ((1.0 + 0.8j) / (1.0 - 0.8j)) ** 7
        r2 = ((1.3 + 0.8j) / (1.3 - 0.8j)) ** 7
        assert t[0, 0] == pytest.approx(r1, rel=1e-12)
        assert t[1, 1] == pytest.approx(r2, rel=1e-12)
        assert t[0, 1] == 0 and t[1, 0] == 0

    def test_product_reassociation_consistent(self):
        rng = np.random.default_rng(3)
        sites = [SiteParams(g1=rng.uniform(0, 0.1), g2=rng.uniform(0, 0.1),
                            kappa1=rng.uniform(0.5, 2), kappa2=rng.uniform(0.5, 2),
                            gamma=1e-3)
                 for _ in range(6)]
        w = 0.17
        seq = array_transfer(sites, w)
        mats = [scattering_full(s, w) for s in sites]
        grouped = (mats[5] @ mats[4]) @ ((mats[3] @ mats[2]) @ (mats[1] @ mats[0]))
        np.testing.assert_allclose(grouped, seq, atol=1e-12)

    def test_lossless_cascade_unitary(self):
        sites = materialize_sites(tanh_config(20))
        for w in (-1.2, 0.0, 0.31, 2.0):
            t = array_transfer(sites, w)
            np.testing.assert_allclose(t.conj().T @ t, np.eye(2), atol=1e-10)

    def test_near_unit_resonant_conversion_at_fifty_sites(self):
        t = array_transfer(materialize_sites(tanh_config(50)), 0.0)
        assert abs(t[1, 0]) ** 2 >= 0.95

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError):
            array_transfer([], 0.0)

    @pytest.mark.parametrize("omega", [0.13, np.linspace(-1.5, 1.5, 301),
                                       np.linspace(-0.4, 0.4, 12).reshape(3, 4)],
                             ids=["scalar", "vector", "2d"])
    @pytest.mark.parametrize("kind", ["full", "eliminated"])
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_matches_matmul_reference(self, n, kind, omega):
        rng = np.random.default_rng(n)
        if kind == "full":
            sites = [SiteParams(g1=rng.uniform(0, 0.1), g2=rng.uniform(0, 0.1),
                                kappa1=rng.uniform(0.5, 2), kappa2=rng.uniform(0.5, 2),
                                gamma=rng.uniform(0, 1e-2))
                     for _ in range(n)]
            site_matrix = scattering_full
        else:
            sites = [EliminatedSite(rng.uniform(0, 0.05), rng.uniform(0, 0.05))
                     for _ in range(n)]
            site_matrix = scattering_eliminated
        mats = [site_matrix(site, omega) for site in sites]
        ref = functools.reduce(np.matmul, mats[::-1])
        t = array_transfer(sites, omega)
        assert t.shape == np.shape(omega) + (2, 2)
        assert np.max(np.abs(t - ref)) <= 1e-12 * np.max(np.abs(ref))


def bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestSiteLoop:
    """The shared frequency factors and the column-0 fold give the bits of a
    plain fold of the site kernels' own 2x2 matrices."""

    @staticmethod
    def reference(sites, omega):
        t = None
        for site in sites:
            kernel = (scattering_eliminated if isinstance(site, EliminatedSite)
                      else scattering_full)
            m = kernel(site, omega)
            s = (m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1])
            t = s if t is None else _mul2(s, t)
        return t

    @staticmethod
    def sites(kind, n):
        if kind == "constant":
            return materialize_sites(tanh_config(n, kappa2=1.3, gamma=1e-3))
        if kind == "ramp":
            return materialize_sites(tanh_config(n, kappa1=(0.5, 2.0), gamma=1e-3))
        if kind == "signed-zero":
            return [SiteParams(g1=0.02 * (j + 1), g2=0.03, kappa1=1.0, kappa2=1.3,
                               gamma=(0.0, -0.0)[j % 2]) for j in range(n)]
        rng = np.random.default_rng(n)
        return [EliminatedSite(rng.uniform(0, 0.05), rng.uniform(0, 0.05))
                for _ in range(n)]

    @pytest.mark.parametrize("omega", [0.13, -0.0, np.linspace(-1.5, 1.5, 301),
                                       np.array([-0.5, -0.0, 0.0, 0.5]),
                                       np.linspace(-0.4, 0.4, 12).reshape(3, 4)],
                             ids=["scalar", "scalar-zero", "vector", "signed-zeros", "2d"])
    @pytest.mark.parametrize("kind,factor_sets", [
        ("constant", lambda n: 1), ("ramp", lambda n: n),
        ("signed-zero", lambda n: min(n, 2)), ("eliminated", lambda n: 0)])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_column_fold_and_shared_factors_are_bit_identical(
            self, monkeypatch, n, kind, factor_sets, omega):
        signs = []

        def counting(k1, k2, gam, w):
            signs.append(np.copysign(1.0, gam))
            return original(k1, k2, gam, w)

        original = cascade._omega_factors
        monkeypatch.setattr(cascade, "_omega_factors", counting)
        sites = self.sites(kind, n)
        ref = self.reference(sites, omega)
        full = array_transfer(sites, omega)
        # one set of factors per distinct (kappa1, kappa2, gamma) in each call,
        # and gamma = 0.0 and -0.0 each get their own
        assert len(signs) == factor_sets(n)
        for j, (i, k) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            assert bits(full[..., i, k]) == bits(ref[j])
        column = _t21(sites, omega)
        assert np.shape(column) == np.shape(omega)
        assert bits(column) == bits(full[..., 1, 0])
        assert len(signs) == 2 * factor_sets(n)
        if kind == "signed-zero" and n > 1:
            assert signs[:2] == [1.0, -1.0]


class TestPublicCalls:
    """The sweep (``array_transfer``) and the evaluator's scalar calls reach the
    site kernels through their public names, once per site, and a spectrum
    sweeps through ``array_transfer`` once, so that wrapping those names (as
    the benchmark's tracer does) sees every call.  ``_t21`` on an array of at
    most 1024 frequencies (the bisection rounds) takes blocked site terms and
    calls no public kernel; a larger array (the noise band window) takes one
    call per site."""

    @staticmethod
    def counting(monkeypatch, module, name, calls):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append((name, np.shape(args[1])))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def kernel_calls(self, monkeypatch):
        calls = []
        for name in ("scattering_full", "scattering_eliminated"):
            self.counting(monkeypatch, cascade, name, calls)
        return calls

    @pytest.mark.parametrize("fold,omega", [
        (array_transfer, 0.13), (array_transfer, np.linspace(-1.5, 1.5, 31)),
        (_t21, 0.13), (_t21, np.linspace(-1.5, 1.5, 1025))],
        ids=["full-scalar", "full-vector", "column-scalar", "column-window"])
    @pytest.mark.parametrize("kind", ["ramp", "eliminated"])
    def test_one_public_kernel_call_per_site(self, monkeypatch, kind, fold, omega):
        calls = self.kernel_calls(monkeypatch)
        fold(TestSiteLoop.sites(kind, 7), omega)
        name = "scattering_eliminated" if kind == "eliminated" else "scattering_full"
        assert calls == [(name, np.shape(omega))] * 7

    @pytest.mark.parametrize("points", [31, 1024])
    @pytest.mark.parametrize("kind", ["ramp", "eliminated", "constant", "signed-zero"])
    def test_blocked_t21_calls_no_public_kernel(self, monkeypatch, kind, points):
        calls, keys = self.kernel_calls(monkeypatch), []
        original = cascade._omega_factors

        def factors(k1, k2, gam, w):
            keys.append((k1, k2, gam, math.copysign(1.0, gam)))
            return original(k1, k2, gam, w)
        monkeypatch.setattr(cascade, "_omega_factors", factors)
        sites = TestSiteLoop.sites(kind, 7)
        _t21(sites, np.linspace(-1.5, 1.5, points))
        assert calls == []
        # the frequency factors once per distinct (kappa1, kappa2, gamma, sign
        # of gamma): 7 for the ramp, 1 constant, 2 for gamma = 0.0 and -0.0
        distinct = {(s.kappa1, s.kappa2, s.gamma, math.copysign(1.0, s.gamma))
                    for s in sites if not isinstance(s, EliminatedSite)}
        assert sorted(keys) == sorted(distinct)

    def test_spectrum_sweeps_through_array_transfer(self, monkeypatch):
        calls = []
        self.counting(monkeypatch, cascade, "array_transfer", calls)
        grid = FrequencyGrid(-0.5, 0.5, 41)
        spectrum = conversion_spectrum(tanh_config(5), grid)
        assert calls == [("array_transfer", (41,))]
        assert bits(spectrum.t21) == bits(_t21(materialize_sites(tanh_config(5)),
                                               grid.points()))


def per_site_t21(sites, omega):
    """T21 from the per-site fold, one public kernel call per site."""
    return cascade._fold(cascade._site_matrices(sites, omega), column=True)[1]


class TestBlockedTerms:
    """``_t21`` on an array folds the terms of blocks of sites, computed at
    once; it gives the per-site fold's bits, and takes that fold for a block
    where the kernels lift or raise."""

    @staticmethod
    def sites(n, g, kappa1, gamma, kind):
        full = materialize_sites(tanh_config(n, g=g, kappa1=kappa1, kappa2=1.3, gamma=gamma))
        eliminated = [EliminatedSite(s.g1 ** 2 / s.kappa1, s.g2 ** 2 / s.kappa2) for s in full]
        if kind == "full":
            return full
        if kind == "eliminated":
            return eliminated
        return [(e if j % 5 < 2 else s) for j, (s, e) in enumerate(zip(full, eliminated))]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 300),
        shape=st.sampled_from([(0,), (1,), (2,), (127,), (254,), (1024,), (1025,), (2049,),
                               (3001,), (7, 41)]),
        g=st.floats(0.01, 0.3),
        kappa1=st.sampled_from([1.0, (0.5, 2.0)]),
        gamma=st.sampled_from([0.0, -0.0, 5e-5]),
        kind=st.sampled_from(["full", "eliminated", "mixed"]),
    )
    def test_blocks_give_the_per_site_bits(self, n, shape, g, kappa1, gamma, kind):
        sites = self.sites(n, g, kappa1, gamma, kind)
        omega = np.linspace(-2.0, 2.0, math.prod(shape)).reshape(shape)
        t = _t21(sites, omega)
        assert t.shape == shape
        assert bits(t) == bits(per_site_t21(sites, omega))

    def test_python_squares_pin_the_coefficients(self):
        # 0.0794 ** 2 and 0.0588 ** 2 differ from 0.0794 * 0.0794 and
        # 0.0588 * 0.0588 in the last bit, so a block that squared the
        # couplings with numpy would not give the kernels' bits
        cfg = ArrayConfig(n_sites=6, profile=CouplingProfile.explicit([(0.0794, 0.0588)] * 6),
                          kappa1=1.0, kappa2=1.0, gamma=0.0)
        sites = materialize_sites(cfg)
        omega = np.linspace(-0.5, 0.5, 301)
        assert bits(_t21(sites, omega)) == bits(per_site_t21(sites, omega))
        assert bits(_t21(sites, omega)) == bits(array_transfer(sites, omega)[..., 1, 0])

    @pytest.mark.parametrize("omega", [np.array([0.1, 1e103, 1e200, -0.3]),
                                       np.array([0.1, 2e-320, 0.0])],
                             ids=["overflow", "subnormal"])
    def test_a_lifted_denominator_gives_the_per_site_bits(self, omega):
        # a near-lossless uncoupled first site has a subnormal denominator at
        # omega ~ 0, and every site's overflows from |omega| ~ 4e102: _lifted
        # lifts both; unlifted terms would give T21 = 0 in place of a subnormal
        # value at 1e103, and NaN at 1e200
        sites = [SiteParams(g1=0.0, g2=1e-160, kappa1=1.0, kappa2=1.0, gamma=5e-324)]
        sites += materialize_sites(tanh_config(5))
        with np.errstate(all="ignore"):
            t = _t21(sites, omega)
            assert bits(t) == bits(per_site_t21(sites, omega))
        assert np.all(np.isfinite(t))

    def test_non_finite_omega_is_named(self):
        sites = materialize_sites(tanh_config(5))
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="^omega must be finite, got nan$"):
            _t21(sites, np.array([0.1, np.nan]))

    @pytest.mark.parametrize("site", [
        SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.0, gamma=0.0),
        EliminatedSite(0.0, 0.0)], ids=["full", "eliminated"])
    def test_uncoupled_lossless_site_on_resonance_is_singular(self, site):
        sites = materialize_sites(tanh_config(3)) + [site]
        with pytest.raises(SingularMatrixError):
            _t21(sites, np.array([0.3, 0.0]))

    def test_no_points(self):
        t = _t21(materialize_sites(tanh_config(5)), np.array([]))
        assert t.shape == (0,) and t.dtype == complex

    @pytest.mark.parametrize("points", [1, 127, 254, 1024])
    @pytest.mark.parametrize("kind", ["constant", "ramp", "eliminated"])
    def test_no_block_array_exceeds_the_point_budget(self, monkeypatch, kind, points):
        sizes = []
        for name in ("_full_combine", "_eliminated_combine"):
            original = getattr(cascade, name)

            def combine(*args, original=original):
                terms = original(*args)
                sizes.extend(np.size(t) for t in terms)
                return terms
            monkeypatch.setattr(cascade, name, combine)
        sites = TestSiteLoop.sites(kind, 300)
        _t21(sites, np.linspace(-1.0, 1.0, points))
        assert sizes and max(sizes) <= 2048

    def test_peak_memory_matches_the_per_site_fold(self):
        sites = materialize_sites(tanh_config(50))
        omega = np.linspace(-1.5, 1.5, 20001)
        peaks = []
        for fold in (per_site_t21, _t21):
            tracemalloc.start()
            try:
                fold(sites, omega)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


class TestConversionSpectrum:
    def test_single_balanced_site_bandwidth(self):
        # eliminated-model estimate 4*(G1+G2) = 8 g^2/kappa = 0.0512; the
        # full model runs about 5% wide of it at g = 0.08
        cfg = ArrayConfig(n_sites=1, profile=CouplingProfile.explicit([(0.08, 0.08)]),
                          kappa1=1.0, kappa2=1.0, gamma=0.0)
        bw = extract_bandwidth(conversion_spectrum(cfg, FrequencyGrid(-0.3, 0.3, 2001)))
        assert bw.fwhm == pytest.approx(0.053799, abs=1e-4)
        assert bw.fwhm == pytest.approx(0.0512, rel=0.06)
        assert bw.peak_value == pytest.approx(1.0, abs=1e-10)

    def test_large_array_bandwidth_exceeds_cavity_linewidth(self):
        assert fwhm_of(tanh_config(200), 2.5) > 1.0

    def test_no_coupling_gives_dead_spectrum(self):
        cfg = ArrayConfig(n_sites=4, profile=CouplingProfile.linear(0.0),
                          kappa1=1.0, kappa2=1.0, gamma=0.01)
        sp = conversion_spectrum(cfg, FrequencyGrid(-1, 1, 101))
        assert np.all(sp.t21 == 0)
        with pytest.raises(SpectrumError, match="no positive maximum"):
            extract_bandwidth(sp)

    def test_conversion_amplitude_bounded(self):
        sp = conversion_spectrum(tanh_config(50), FrequencyGrid(-2, 2, 801))
        assert np.abs(sp.t21).max() <= 1 + 1e-10


class TestExtractBandwidth:
    def test_single_eliminated_transducer(self):
        sp = eliminated_spectrum([EliminatedSite(0.025, 0.025)],
                                 FrequencyGrid(-0.5, 0.5, 501))
        bw = extract_bandwidth(sp)
        assert bw.fwhm == pytest.approx(0.2, abs=1e-5)
        assert bw.omega_lo == pytest.approx(-0.1, abs=1e-5)
        assert bw.peak_value == pytest.approx(1.0, abs=1e-12)
        assert bw.passband_min == bw.peak_value

    def test_band_wider_than_grid_rejected(self):
        sp = eliminated_spectrum([EliminatedSite(0.025, 0.025)],
                                 FrequencyGrid(-0.05, 0.05, 101))
        with pytest.raises(SpectrumError, match="no half-max crossing"):
            extract_bandwidth(sp)

    def test_non_finite_spectrum_rejected(self):
        grid = FrequencyGrid(-1.0, 1.0, 5)
        t21 = np.array([0.1, np.nan, 0.9, 0.1, 0.05], dtype=complex)
        sp = Spectrum(grid=grid, t21=t21, evaluator=lambda w: 0.5)
        with pytest.raises(SpectrumError, match="not finite"):
            extract_bandwidth(sp)

    def test_refinement_needs_evaluator(self):
        grid = FrequencyGrid(-0.5, 0.5, 501)
        w = grid.points()
        t21 = 1.0 / (1 + (w / 0.1) ** 2) + 0j
        with pytest.raises(ValueError, match="evaluator"):
            extract_bandwidth(Spectrum(grid=grid, t21=t21))

    def test_samples_must_match_the_grid(self):
        # 401 samples on an 801-point grid gave an FWHM of 0.0525 after two
        # bracket warnings, where the spectrum's own grid gives 0.1075
        sp = conversion_spectrum(tanh_config(5), FrequencyGrid(-1.0, 1.0, 401))
        with pytest.raises(ValueError, match=r"t21 has shape \(401,\), but the grid has 801"):
            Spectrum(grid=FrequencyGrid(-1.0, 1.0, 801), t21=sp.t21, evaluator=sp.evaluator)


def _bisect_crossing_reference(f, a, b):
    # the scalar loop the batched replay must reproduce bit for bit: 13
    # halvings of the grid bracket, one evaluator call per midpoint
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if fa * fb > 0:
        # the grid bracketed the crossing; fall back to the closer endpoint
        return a if abs(fa) < abs(fb) else b
    for _ in range(13):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0:
            return m
        if fa * fm < 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def _reference_crossings(spectrum):
    """(omega_lo, omega_hi) from one scalar evaluator call per midpoint."""
    w = spectrum.grid.points()
    _, half, i_first, i_last, _ = _halfmax(np.abs(spectrum.t21) ** 2)

    def excess(x):
        return abs(complex(spectrum.evaluator(x))) ** 2 - half

    return (_bisect_crossing_reference(excess, w[i_first - 1], w[i_first]),
            _bisect_crossing_reference(excess, w[i_last], w[i_last + 1]))


class _CountingEvaluator:
    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.sizes = []
        self.array_calls = 0

    def __call__(self, w):
        self.sizes.append(np.size(w))
        self.array_calls += np.ndim(w) > 0
        return self.evaluator(w)


def _eliminated_sites(config):
    return [EliminatedSite(4 * s.g1 ** 2 / s.kappa1, 4 * s.g2 ** 2 / s.kappa2)
            for s in materialize_sites(config)]


class TestBatchedBisection:
    @pytest.mark.parametrize("kind", ["full", "eliminated"])
    @pytest.mark.parametrize("n", [1, 3, 20, 200])
    @pytest.mark.parametrize("kappa2", [1.0, 10.0])
    def test_bit_identical_to_scalar_loop(self, kind, n, kappa2):
        config = tanh_config(n, kappa2=kappa2)
        # the eliminated picture has no cavity cutoff, so its band at
        # N = 200 outgrows +-2.5
        width = 0.3 if n <= 3 else 10.0 if (kind, n) == ("eliminated", 200) else 2.5
        for pts in (601, 1201, 2001):
            grid = FrequencyGrid(-width, width, pts)
            if kind == "full":
                sp = conversion_spectrum(config, grid)
            else:
                sp = eliminated_spectrum(_eliminated_sites(config), grid)
            lo, hi = _reference_crossings(sp)
            with warnings.catch_warnings():
                # every bracket here holds, so no D5 warning
                warnings.simplefilter("error")
                bw = extract_bandwidth(sp)
            assert bw.omega_lo == lo
            assert bw.omega_hi == hi
            assert bw.fwhm == hi - lo

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_midpoint_tree_matches_level_loop(self, depth):
        # level by level, as the scalar loop forms them: each bracket [lo, hi]
        # of a level gives its midpoint and the two halves of the next level
        a, b = 0.1, 0.3
        brackets, expected = [(a, b)], []
        for _ in range(depth):
            mids = [0.5 * (lo + hi) for lo, hi in brackets]
            expected += mids
            brackets = [half for (lo, hi), m in zip(brackets, mids)
                        for half in ((lo, m), (m, hi))]
        tree = cascade._midpoints(a, b, depth)
        assert len(tree) == 2 ** depth - 1
        assert tree.tolist() == expected

    def test_midpoint_on_exact_root(self):
        # |T|^2 is 0, 1/4 and 1 below, at and above r: the ninth midpoint of
        # [0, 1] hits the root exactly, in the second round
        r = 0.5 - 2.0 ** -9

        def t21_at(w):
            w = np.asarray(w, dtype=float)
            return np.where(w < r, 0.0, np.where(w == r, 0.5, 1.0)) + 0j

        ref = _bisect_crossing_reference(
            lambda x: abs(complex(t21_at(x))) ** 2 - 0.25, 0.0, 1.0)
        assert ref == r
        counted = _CountingEvaluator(t21_at)
        assert _bisect_crossings(counted, 0.25, [(0.0, 1.0)]) == [r]
        assert counted.array_calls == 2

    def test_narrow_bracket_takes_both_rounds(self):
        # the halvings count from the bracket, not from an absolute width:
        # a bracket of 5e-7 takes the same two rounds as a grid step of 4e-3
        a, b = 0.1, 0.1 + 5e-7
        counted = _CountingEvaluator(lambda w: np.sqrt(np.asarray(w)) + 0j)
        ref = _bisect_crossing_reference(
            lambda x: abs(complex(np.sqrt(x))) ** 2 - (0.1 + 2.5e-7), a, b)
        assert _bisect_crossings(counted, 0.1 + 2.5e-7, [(a, b)]) == [ref]
        assert counted.sizes == [1, 1, 127, 63]

    def test_adjacent_float_bracket_ends(self):
        # a bracket two floats wide halves once, to two adjacent floats,
        # which no further halving can shrink
        a = 1e10
        b = np.nextafter(np.nextafter(a, np.inf), np.inf)
        mid = 0.5 * (a + b)

        def step(w):
            # a bisection that cannot end would call again, round after round
            assert counted.array_calls <= 2
            return np.where(np.asarray(w) < mid, 1.0, 0.0) + 0j

        counted = _CountingEvaluator(step)
        assert _bisect_crossings(counted, 0.5, [(a, b)]) == [0.5 * (a + mid)]
        assert counted.array_calls == 1

    def test_coarse_grid_takes_two_rounds(self):
        # a grid step of 0.04 takes the same 13 halvings, 7 + 6, as any other
        sp = eliminated_spectrum([EliminatedSite(0.25, 0.25)],
                                 FrequencyGrid(-2.0, 2.0, 101))
        lo, hi = _reference_crossings(sp)
        counted = _CountingEvaluator(sp.evaluator)
        sp.evaluator = counted
        bw = extract_bandwidth(sp)
        assert (bw.omega_lo, bw.omega_hi) == (lo, hi)
        assert counted.sizes == [1, 1, 1, 1, 2 * 127, 2 * 63]

    def test_readme_spectrum_evaluator_calls(self):
        # the README's N = 200 spectrum: four scalar bracket ends and two
        # array rounds, where the scalar loop made about 30 calls
        sp = conversion_spectrum(tanh_config(200), FrequencyGrid(-2.5, 2.5, 1201))
        counted = _CountingEvaluator(sp.evaluator)
        sp.evaluator = counted
        extract_bandwidth(sp)
        assert len(counted.sizes) <= 6
        assert counted.array_calls <= 2
        assert max(counted.sizes) <= 2 * 127

    def test_failed_bracket_warns_and_keeps_nearer_end(self):
        grid = FrequencyGrid(-0.5, 0.5, 501)
        w = grid.points()
        t21 = 1.0 / (1 + (w / 0.1) ** 2) + 0j
        sp = Spectrum(grid=grid, t21=t21, evaluator=lambda x: np.ones_like(x))
        _, _, i_first, i_last, _ = _halfmax(np.abs(t21) ** 2)
        with pytest.warns(RuntimeWarning) as record:
            bw = extract_bandwidth(sp)
        messages = [str(r.message) for r in record]
        assert any(m.startswith("lower half-max crossing is not bracketed by "
                                f"[{float(w[i_first - 1])!r}, {float(w[i_first])!r}]")
                   for m in messages)
        assert any(m.startswith("upper half-max crossing is not bracketed")
                   for m in messages)
        # equal excess at both ends: the loop's tie goes to the upper end
        assert bw.omega_lo == w[i_first]
        assert bw.omega_hi == w[i_last + 1]

    def test_end_on_halfmax_to_rounding_is_silent(self):
        # the samples (np.abs) put the grid point at -0.04 1.1e-16 above
        # half-max, the scalar evaluator (abs) 5.6e-17 below it: the
        # crossing is that grid point, and nothing is wrong to warn about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bw = eliminated_bandwidth([0.28118168197879206 * 0.02], 0.02)
        assert bw.omega_lo == -0.04000000000000001


def test_bandwidth_is_scale_free():
    # every rate and the grid scale together, so the width in units of the
    # cavity linewidth must not move
    widths = []
    for s in (1e-150, 1.0, 3e5):
        sp = conversion_spectrum(tanh_config(20, g=0.08 * s, kappa1=s, kappa2=s),
                                 FrequencyGrid(-2.5 * s, 2.5 * s, 1201))
        widths.append(extract_bandwidth(sp).fwhm / s)
    np.testing.assert_allclose(widths, widths[1], rtol=1e-9, atol=0)


class TestBandwidthAnalytic:
    def test_reference_point(self):
        assert bandwidth_analytic(0.08, 1.0, 200) == pytest.approx(1.3414, abs=2e-4)
        # quoted rounded value
        assert bandwidth_analytic(0.08, 1.0, 200) == pytest.approx(1.3417, abs=1e-3)

    def test_cube_root_scaling(self):
        assert bandwidth_analytic(0.08, 1.0, 8) == pytest.approx(
            2 * bandwidth_analytic(0.08, 1.0, 1), rel=1e-12)

    def test_vanishes_without_coupling(self):
        assert bandwidth_analytic(0.0, 1.0, 100) == 0.0

    @pytest.mark.parametrize("args,field", [
        ((0.08, 1.0, math.nan), "n_sites"),
        ((0.08, 1.0, 2.5), "n_sites"),
        ((0.08, -1.0, 3), "kappa"),
        ((math.inf, 1.0, 3), "g"),
    ])
    def test_rejects_invalid_input(self, args, field):
        # nan, a width for 2.5 sites and a negative width were returned
        with pytest.raises(ValueError, match=f"^{field} must be"):
            bandwidth_analytic(*args)


class TestHalfmaxRoots:
    def test_single_site_root_is_exactly_zero(self):
        lo, hi = halfmax_roots_analytic(0.08, 1.0, 1)
        assert lo == 0.0 and hi == 0.0

    def test_roots_symmetric(self):
        lo, hi = halfmax_roots_analytic(0.08, 1.0, 37)
        assert lo == -hi and hi > 0

    @pytest.mark.parametrize("args,field", [
        ((0.08, 1.0, math.nan), "n_sites"),
        ((0.08, math.nan, 3), "kappa"),
    ])
    def test_rejects_invalid_input(self, args, field):
        # (nan, nan) was returned
        with pytest.raises(ValueError, match=f"^{field} must be"):
            halfmax_roots_analytic(*args)

    def test_converges_to_cube_root_law(self):
        # finite-N gap decays as N^(-2/3); it is 1.37% at N=1e4 and crosses
        # 1% only near N=1.6e4 (the acceptance suite checks the derived
        # leading term at N=1e4 and the 1% bound at N=2e4)
        gaps = []
        for n in (1_000, 10_000, 20_000, 100_000):
            two_wp = 2 * halfmax_roots_analytic(0.08, 1.0, n)[1]
            ref = bandwidth_analytic(0.08, 1.0, n)
            gaps.append(abs(two_wp - ref) / ref)
        assert gaps[1] == pytest.approx(0.01365, abs=2e-4)
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[2] < 0.01
        # N^(-2/3) decay: tenfold N shrinks the gap by ~10^(2/3)
        assert gaps[0] / gaps[1] == pytest.approx(10 ** (2 / 3), rel=0.05)

    def test_against_numeric_linear_cascade(self):
        # the closed form overshoots the numeric linear-profile cascade by
        # about 7% at N=200 (first-order scattering is not small at the
        # half-max point)
        two_wp = 2 * halfmax_roots_analytic(0.08, 1.0, 200)[1]
        cfg = ArrayConfig(n_sites=200, profile=CouplingProfile.linear(0.08),
                          kappa1=1.0, kappa2=1.0, gamma=0.0)
        numeric = fwhm_of(cfg, 2.5)
        assert abs(two_wp - numeric) / numeric == pytest.approx(0.067, abs=0.01)
        assert two_wp == pytest.approx(numeric, rel=0.10)


class TestPhaseWinding:
    # the winding accumulates over a band that grows with the array; a
    # window of +-0.65*N picks up the full 2*pi*N while excluding the slow
    # far tails (which only complete at 2*pi*(N+1/2))
    @pytest.mark.parametrize("n,width,pts", [(5, 3.25, 120001), (20, 13.0, 200001)])
    def test_winding_grows_linearly_with_size(self, n, width, pts):
        sp = conversion_spectrum(tanh_config(n), FrequencyGrid(-width, width, pts))
        assert abs(phase_winding(sp)) / (2 * np.pi) == pytest.approx(n, abs=0.1)

    def test_vanishing_amplitude_rejected(self):
        cfg = ArrayConfig(n_sites=2, profile=CouplingProfile.linear(0.0),
                          kappa1=1.0, kappa2=1.0, gamma=0.01)
        sp = conversion_spectrum(cfg, FrequencyGrid(-1, 1, 51))
        with pytest.raises(SpectrumError, match="undefined"):
            phase_winding(sp)

    def test_aliased_grid_rejected(self):
        sp = Spectrum(grid=FrequencyGrid(0.0, 1.0, 2),
                      t21=np.array([1.0 + 0j, -1.0 + 0j]))
        with pytest.raises(SpectrumError, match="aliasing"):
            phase_winding(sp)


class TestArrayScalingProperties:
    def test_bandwidth_strictly_increasing_with_size(self):
        vals = [fwhm_of(tanh_config(n), 2.5, pts=1201) for n in range(1, 201)]
        assert np.all(np.diff(vals) > 0)

    def test_bandwidth_saturates_for_unequal_linewidths(self):
        f100 = fwhm_of(tanh_config(100, kappa2=10.0), 1.0)
        f200 = fwhm_of(tanh_config(200, kappa2=10.0), 1.0)
        assert f200 > f100
        assert (f200 - f100) / f100 < 0.05

    def test_linewidth_ramps_recover_growth(self):
        vals = [fwhm_of(tanh_config(n, kappa1=(1.0, 1.5), kappa2=(1.5, 1.0)), 1.5)
                for n in (5, 10, 20, 40, 80, 160)]
        assert np.all(np.diff(vals) > 0)


class TestExports:
    def test_spectrum_csv_round_trip(self, tmp_path):
        sp = eliminated_spectrum([EliminatedSite(0.025, 0.025)],
                                 FrequencyGrid(-0.5, 0.5, 21))
        path = tmp_path / "spec.csv"
        spectrum_to_csv(sp, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "omega,re_t21,im_t21,abs2_t21,phase_unwrapped"
        assert len(lines) == 22
        mid = lines[11].split(",")
        assert float(mid[0]) == 0.0
        assert float(mid[1]) == pytest.approx(-1.0, abs=1e-12)
        assert float(mid[3]) == pytest.approx(1.0, abs=1e-12)

    def test_bandwidth_json(self, tmp_path):
        sp = eliminated_spectrum([EliminatedSite(0.025, 0.025)],
                                 FrequencyGrid(-0.5, 0.5, 501))
        result = extract_bandwidth(sp)
        path = tmp_path / "bw.json"
        doc = bandwidth_to_json(result, path)
        assert set(doc) == {"fwhm", "omega_lo", "omega_hi", "peak_value",
                            "passband_min"}
        assert json.loads(path.read_text()) == doc
