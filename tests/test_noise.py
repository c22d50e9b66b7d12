"""Tests for thermal added noise and Stokes amplification noise."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oemarray import (
    ArrayConfig,
    BogoliubovSite,
    CouplingProfile,
    FrequencyGrid,
    SingularMatrixError,
    SiteParams,
    SpectrumError,
    added_noise_resonant_analytic,
    added_noise_spectrum,
    gamma_linear_profile,
    integrated_added_noise,
    integrated_stokes_noise,
    materialize_sites,
    noise_coupling_vector,
    noise_to_csv,
    scattering_bogoliubov,
    scattering_full,
    stokes_noise_spectrum,
    stokes_to_csv,
)
from oemarray.noise import _adaptive_trapezoid, _stokes_row

KAPPA = 1.0
GAMMA_M = 5e-5
N_BAR = 100.0


def linear_config(n, g=0.1, gamma=GAMMA_M, n_bar=N_BAR):
    return ArrayConfig(n_sites=n, profile=CouplingProfile.linear(g, g),
                       kappa1=KAPPA, kappa2=KAPPA, gamma=gamma, n_bar=n_bar)


def rate_config(n, gamma_total=0.02, n_bar=N_BAR):
    return ArrayConfig(n_sites=n, profile=gamma_linear_profile(n, gamma_total),
                       kappa1=KAPPA, kappa2=KAPPA, gamma=GAMMA_M, n_bar=n_bar)


class TestNoiseCouplingVector:
    def test_decoupled_bath_gives_zero(self):
        cfg = linear_config(3, gamma=0.0)
        sites = materialize_sites(cfg)
        v = noise_coupling_vector(sites, 2, np.linspace(-1, 1, 7))
        assert np.all(v == 0)

    def test_matches_symmetric_linear_closed_form(self):
        # independent closed form for g1_j = g*j/N, g2_j = g*(1-j/N),
        # equal decay rates
        n, g = 10, 0.1
        sites = materialize_sites(linear_config(n))
        for w in (0.0, 0.07, -0.3):
            for j in range(1, n + 1):
                den = (4 * (g / n) ** 2 * (n * n - 2 * j * n + 2 * j * j)
                       + (KAPPA - 2j * w) * (GAMMA_M - 2j * w))
                ref = (-4j * g * np.sqrt(KAPPA * GAMMA_M) / den
                       * np.array([j / n, 1 - j / n]))
                v = noise_coupling_vector(sites, j, w)
                np.testing.assert_allclose(v, ref, rtol=0, atol=1e-10)

    def test_uncoupled_lane_gets_nothing(self):
        prof = CouplingProfile.explicit([(0.0, 0.08)])
        cfg = ArrayConfig(n_sites=1, profile=prof, gamma=1e-4)
        v = noise_coupling_vector(materialize_sites(cfg), 1, 0.2)
        assert abs(v[0]) <= 1e-16
        assert abs(v[1]) > 0

    def test_singular_site_raises(self):
        # uncoupled, lossless mechanics: the response denominator is 0 at dc
        site = SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.0, gamma=0.0)
        with pytest.raises(SingularMatrixError):
            noise_coupling_vector([site], 1, np.array([0.3, 0.0]))

    def test_site_index_validated(self):
        sites = materialize_sites(linear_config(4))
        with pytest.raises(IndexError):
            noise_coupling_vector(sites, 0, 0.0)
        with pytest.raises(IndexError):
            noise_coupling_vector(sites, 5, 0.0)
        # a fractional index failed inside list indexing, and NaN failed the
        # range check as an IndexError
        with pytest.raises(ValueError, match="^j must be a positive integer, got 1.5$"):
            noise_coupling_vector(sites, 1.5, 0.0)
        with pytest.raises(ValueError, match="^j must be a positive integer, got nan$"):
            noise_coupling_vector(sites, math.nan, 0.0)


class TestAddedNoiseSpectrum:
    def test_cold_decoupled_baths_give_zero(self):
        cfg = linear_config(4, gamma=0.0, n_bar=0.0)
        sp = added_noise_spectrum(cfg, FrequencyGrid(-1, 1, 21))
        assert np.all(sp.s_add_1 == 0)
        assert np.all(sp.s_add_2 == 0)

    def test_matches_matmul_downstream_reference(self):
        # reference sum with each bath vector carried through the downstream
        # product S_N ... S_{j+1} by matmul
        cfg = linear_config(7)
        sites = materialize_sites(cfg)
        grid = FrequencyGrid(-0.5, 0.5, 201)
        w = grid.points()
        ref = np.zeros((2, len(w)))
        downstream = np.broadcast_to(np.eye(2), w.shape + (2, 2))
        for j in range(len(sites), 0, -1):
            chi = (downstream @ noise_coupling_vector(sites, j, w)[..., None])[..., 0]
            ref += np.abs(chi.T) ** 2 * (2 * N_BAR + 1)
            downstream = downstream @ scattering_full(sites[j - 1], w)
        sp = added_noise_spectrum(cfg, grid)
        np.testing.assert_allclose(sp.s_add_1, ref[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(sp.s_add_2, ref[1], rtol=1e-12, atol=0)

    def test_single_site_resonant_value(self):
        # balanced single transducer, C~ = 4g^2/kappa/gamma = 800:
        # both ports get 4*C~*(2n+1)/(2C~+1)^2
        cfg = ArrayConfig(n_sites=1, profile=CouplingProfile.explicit([(0.1, 0.1)]),
                          gamma=GAMMA_M, n_bar=N_BAR)
        sp = added_noise_spectrum(cfg, FrequencyGrid(-0.01, 0.01, 3))
        expect = 4 * 800 * 201 / (2 * 800 + 1) ** 2
        assert sp.s_add_1[1] == pytest.approx(expect, rel=1e-10)
        assert sp.s_add_2[1] == pytest.approx(expect, rel=1e-10)

    def test_two_site_dark_port_value(self):
        # site 1 sits at the coupling crossing and dumps half its noise
        # into port 2; site 2 transmits that lane without attenuation and
        # adds nothing itself: 2*400*201/401^2 on resonance
        sp = added_noise_spectrum(rate_config(2), FrequencyGrid(-0.01, 0.01, 3))
        assert sp.s_add_2[1] == pytest.approx(160800 / 160801, rel=1e-6)

    def test_array_growth_moves_noise_to_bright_port(self):
        at_zero = []
        for n in range(1, 7):
            sp = added_noise_spectrum(rate_config(n), FrequencyGrid(-0.01, 0.01, 3))
            at_zero.append((sp.s_add_1[1], sp.s_add_2[1]))
        bright = [b for b, _ in at_zero]
        dark = [d for _, d in at_zero]
        assert all(bright[i] < bright[i + 1] for i in range(5))
        # dark-port suppression sets in after the N=2 peak; by N=6 the
        # resonant density falls below the single-transducer level
        assert all(dark[i] > dark[i + 1] for i in range(1, 5))
        assert dark[5] < dark[0]
        assert dark[5] == pytest.approx(0.24838, abs=2e-3)
        assert bright[5] == pytest.approx(8.9588, rel=1e-3)

    def test_against_first_order_resonant_estimate(self):
        # The first-order estimate replaces every site's own cooperativity
        # with the global one and assumes a uniform frame-rotation rate, so
        # it undercounts by a j-independent factor: pi/2 on the bright port
        # (exactly, in the strong-coupling limit) and 1 + 5*pi/8 on the
        # dark port.  At C~ = 800 corrections of order N/C~ (on the bright
        # port, absorption by downstream sites) lower both; pin the exact
        # cascade against the estimate at the factors found.
        sp = added_noise_spectrum(linear_config(50), FrequencyGrid(-0.01, 0.01, 3))
        ana = added_noise_resonant_analytic(800.0, N_BAR, 50)
        assert sp.s_add_1[1] == pytest.approx(65.253, rel=2e-3)
        assert sp.s_add_2[1] == pytest.approx(0.028417, rel=2e-3)
        assert sp.s_add_1[1] / ana[0] == pytest.approx(1.302, abs=0.02)
        assert sp.s_add_2[1] / ana[1] == pytest.approx(2.835, abs=0.04)

    def test_mirror_relabeling_consistency(self):
        # a mirror-symmetric profile maps onto itself when the site order
        # is reversed and the lanes are swapped; both constructions must
        # produce identical spectra
        pairs = [(0.03, 0.07), (0.05, 0.05), (0.07, 0.03)]
        twin = [(b, a) for (a, b) in pairs[::-1]]
        grid = FrequencyGrid(-0.5, 0.5, 41)
        sp = added_noise_spectrum(
            ArrayConfig(n_sites=3, profile=CouplingProfile.explicit(pairs),
                        gamma=1e-4, n_bar=10.0), grid)
        sp_twin = added_noise_spectrum(
            ArrayConfig(n_sites=3, profile=CouplingProfile.explicit(twin),
                        gamma=1e-4, n_bar=10.0), grid)
        np.testing.assert_array_equal(sp.s_add_1, sp_twin.s_add_1)
        np.testing.assert_array_equal(sp.s_add_2, sp_twin.s_add_2)

    def test_single_site_port_swap(self):
        grid = FrequencyGrid(-0.4, 0.4, 17)
        a = added_noise_spectrum(
            ArrayConfig(n_sites=1, profile=CouplingProfile.explicit([(0.03, 0.09)]),
                        kappa1=1.0, kappa2=1.4, gamma=2e-4, n_bar=5.0), grid)
        b = added_noise_spectrum(
            ArrayConfig(n_sites=1, profile=CouplingProfile.explicit([(0.09, 0.03)]),
                        kappa1=1.4, kappa2=1.0, gamma=2e-4, n_bar=5.0), grid)
        np.testing.assert_allclose(a.s_add_1, b.s_add_2, rtol=1e-12)
        np.testing.assert_allclose(a.s_add_2, b.s_add_1, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2 ** 31),
        n_bar=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_densities_nonnegative(self, n, seed, n_bar):
        rng = np.random.default_rng(seed)
        pairs = rng.uniform(0.0, 0.3, size=(n, 2))
        cfg = ArrayConfig(n_sites=n, profile=CouplingProfile.explicit(pairs),
                          gamma=float(rng.uniform(0, 0.01)), n_bar=n_bar)
        sp = added_noise_spectrum(cfg, FrequencyGrid(-2, 2, 31))
        assert np.all(sp.s_add_1 >= 0)
        assert np.all(sp.s_add_2 >= 0)


class TestResonantAnalytic:
    def test_formula_values(self):
        out = added_noise_resonant_analytic(800.0, 100.0, 10)
        assert out[1] == pytest.approx(0.050125, abs=1e-5)
        assert out[0] == pytest.approx(10.025, abs=1e-3)

    def test_vacuum_and_strong_coupling_limits(self):
        vac = added_noise_resonant_analytic(4.0, 0.0, 2)
        np.testing.assert_allclose(vac, [4 * 4 / 25 * 2, 4 * 4 / 25 / 4])
        strong = added_noise_resonant_analytic(1e12, 100.0, 2)
        assert np.all(strong < 1e-8)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            added_noise_resonant_analytic(-1.0, 100.0, 5)
        with pytest.raises(ValueError):
            added_noise_resonant_analytic(800.0, 100.0, 0)
        # [nan nan] and a noise for 2.5 sites were returned
        with pytest.raises(ValueError, match="^c_tilde must be finite and >= 0, got nan$"):
            added_noise_resonant_analytic(math.nan, 1.0, 3)
        with pytest.raises(ValueError, match="^n_sites must be a positive integer"):
            added_noise_resonant_analytic(1.0, 1.0, 2.5)


class TestIntegratedAddedNoise:
    def test_cold_decoupled_baths_integrate_to_zero(self):
        out = integrated_added_noise(linear_config(3, gamma=0.0, n_bar=0.0))
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_linear_in_force_noise(self):
        # 2*(2*100+1) = 2*200.5+1, so doubling is exact up to rounding
        a = integrated_added_noise(rate_config(3, n_bar=100.0))
        b = integrated_added_noise(rate_config(3, n_bar=200.5))
        np.testing.assert_allclose(b, 2 * a, rtol=1e-12)

    def test_dark_total_grows_sublinearly(self):
        totals = [integrated_added_noise(rate_config(n))[1] for n in range(1, 7)]
        assert totals[5] > totals[0]
        assert totals[5] / totals[0] == pytest.approx(1.369, abs=0.05)
        assert totals[5] / totals[0] < 6
        assert totals[0] == pytest.approx(0.017070, rel=5e-3)
        assert totals[5] == pytest.approx(0.023364, rel=5e-3)

    def test_window_override(self):
        cfg = rate_config(2)
        half = 1e-4
        out = integrated_added_noise(cfg, window=(-half, half))
        sp = added_noise_spectrum(cfg, FrequencyGrid(-half, half, 3))
        np.testing.assert_allclose(
            out, 2 * half * np.array([sp.s_add_1[1], sp.s_add_2[1]]), rtol=1e-3)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            integrated_added_noise(rate_config(2), window=(0.1, 0.1))
        # [nan nan] was returned after 12 doublings
        with pytest.raises(ValueError, match=r"^window\[1\] must be finite and > 0\.0, got inf$"):
            integrated_added_noise(rate_config(2), window=(0.0, math.inf))

    def test_dead_conversion_band_propagates(self):
        prof = CouplingProfile.explicit([(0.0, 0.0), (0.0, 0.0)])
        cfg = ArrayConfig(n_sites=2, profile=prof, gamma=0.01, n_bar=1.0)
        with pytest.raises(SpectrumError):
            integrated_added_noise(cfg)


class TestQuadrature:
    def test_nested_rule_evaluates_each_point_once(self):
        seen = []

        def f(w):
            seen.extend(w.tolist())
            return np.exp(w)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = _adaptive_trapezoid(f, 0.0, 1.0)
        assert total == pytest.approx(math.e - 1, rel=1e-4)
        # the points of the last rule, each evaluated once
        assert sorted(seen) == np.linspace(0.0, 1.0, len(seen)).tolist()
        assert len(seen) == 129

    def test_unconverged_rule_warns_and_returns_last_estimate(self):
        # an integrand that rises on every call never settles
        calls = itertools.count(1)

        def rising(w):
            return np.full(np.shape(w), float(next(calls)))

        estimates = [1.0]
        for k in range(2, 14):
            estimates.append(0.5 * estimates[-1] + 0.5 * k)
        with pytest.warns(RuntimeWarning, match=r"\[0\.0, 1\.0\] did not converge") as rec:
            out = _adaptive_trapezoid(rising, 0.0, 1.0)
        assert out == estimates[-1]
        assert f"{estimates[-2]} and {estimates[-1]}" in str(rec[0].message)


OMEGA_M = 10.0


def stokes_config(n, kappa):
    prof = gamma_linear_profile(n, 0.02 * kappa, kappa, kappa)
    return ArrayConfig(n_sites=n, profile=prof, kappa1=kappa, kappa2=kappa,
                       gamma=GAMMA_M, n_bar=N_BAR)


class TestStokesNoise:
    def test_uncoupled_array_is_silent(self):
        prof = CouplingProfile.explicit([(0.0, 0.0)] * 3)
        cfg = ArrayConfig(n_sites=3, profile=prof, gamma=GAMMA_M)
        grid = FrequencyGrid(OMEGA_M - 1, OMEGA_M + 1, 101)
        sp = stokes_noise_spectrum(cfg, OMEGA_M, grid)
        assert np.all(sp.density == 0)
        total = integrated_stokes_noise(cfg, OMEGA_M,
                                        window=(OMEGA_M - 0.5, OMEGA_M + 0.5))
        assert total == 0.0

    def test_unresolved_sideband_warns(self):
        cfg = stokes_config(2, 1.0)
        grid = FrequencyGrid(1.0, 3.0, 11)
        with pytest.warns(UserWarning, match="resolved-sideband"):
            stokes_noise_spectrum(cfg, 2.0, grid)
        # the ratio is printed to 3 significant digits, not in full
        with pytest.warns(UserWarning, match=r"kappa/omega_m = 1e\+300 is outside"):
            stokes_noise_spectrum(cfg, 1e-300, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stokes_noise_spectrum(cfg, OMEGA_M, grid)

    @pytest.mark.parametrize("omega_m", [0.0, float("nan"), float("inf")])
    def test_bad_mechanical_frequency_rejected(self, omega_m):
        # checked before the sideband ratio divides by it
        cfg = stokes_config(2, 1.0)
        with pytest.raises(ValueError, match="omega_m"):
            stokes_noise_spectrum(cfg, omega_m, FrequencyGrid(1.0, 3.0, 11))
        with pytest.raises(ValueError, match="omega_m"):
            integrated_stokes_noise(cfg, omega_m, window=(1.0, 3.0))

    def test_sideband_ratio_suppression(self):
        # halving/thirding kappa/omega_m drops the integrated total much
        # faster than quadratically
        totals = {}
        peaks = {}
        for kappa in (1.0, 0.3):
            band = FrequencyGrid(OMEGA_M - 2 * kappa, OMEGA_M + 2 * kappa, 1201)
            cfg = stokes_config(10, kappa)
            totals[kappa] = integrated_stokes_noise(cfg, OMEGA_M, band_grid=band)
            peaks[kappa] = stokes_noise_spectrum(cfg, OMEGA_M, band).density.max()
        assert peaks[1.0] > peaks[0.3]
        assert totals[1.0] / totals[0.3] > 10
        assert totals[1.0] == pytest.approx(3.912e-6, rel=1e-2)

    def test_moderate_arrays_beat_single_transducer(self):
        band = FrequencyGrid(OMEGA_M - 2, OMEGA_M + 2, 1201)
        single = integrated_stokes_noise(stokes_config(1, 1.0), OMEGA_M,
                                         band_grid=band)
        ten = integrated_stokes_noise(stokes_config(10, 1.0), OMEGA_M,
                                      band_grid=band)
        forty = integrated_stokes_noise(stokes_config(40, 1.0), OMEGA_M,
                                        band_grid=band)
        assert ten < single
        assert forty < single

    def test_noise_concentrates_near_sideband(self):
        # the central spike is about a linewidth of 1e-3, so the grid
        # spacing must stay at or below that for the inner integral
        grid = FrequencyGrid(OMEGA_M - 3, OMEGA_M + 3, 6001)
        sp = stokes_noise_spectrum(stokes_config(100, 1.0), OMEGA_M, grid)
        w = grid.points()
        peak = w[sp.density.argmax()]
        assert peak == pytest.approx(OMEGA_M, abs=0.05)
        inner = np.abs(w - peak) <= 0.25
        frac = np.trapezoid(sp.density[inner], w[inner]) / np.trapezoid(sp.density, w)
        assert frac > 0.8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        pairs=st.lists(st.tuples(st.floats(0.01, 0.3), st.floats(0.01, 0.3)),
                       min_size=1, max_size=12),
        kappa1=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)),
        kappa2=st.tuples(st.floats(0.2, 2.0), st.floats(0.2, 2.0)),
        gamma=st.floats(0.0, 0.01),
        omega_m=st.floats(2.0, 50.0),
    )
    def test_row_fold_matches_matmul_product(self, pairs, kappa1, kappa2, gamma, omega_m):
        # reference: row 1 of the full product S_N ... S_1, accumulated by
        # matmul from the input end
        cfg = ArrayConfig(n_sites=len(pairs), profile=CouplingProfile.explicit(pairs),
                          kappa1=kappa1, kappa2=kappa2, gamma=gamma)
        sites = materialize_sites(cfg)
        w = omega_m + np.linspace(-1.5, 1.5, 61)
        product = np.eye(4)
        for site in sites:
            product = np.matmul(scattering_bogoliubov(BogoliubovSite(site, omega_m), w),
                                product)
        ref = product[..., 1, :]
        scale = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.all(np.abs(_stokes_row(sites, omega_m, w) - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_lossless_row_keeps_the_commutators(self, n):
        # a lossless Bogoliubov cascade preserves eta = diag(1, 1, -1, -1), so
        # its row 1 has |r0|^2 + |r1|^2 - |r2|^2 - |r3|^2 = 1
        cfg = ArrayConfig(n_sites=n, profile=CouplingProfile.tanh(0.08), gamma=0.0)
        w = FrequencyGrid(OMEGA_M - 1.5, OMEGA_M + 1.5, 401).points()
        row = np.abs(_stokes_row(materialize_sites(cfg), OMEGA_M, w)) ** 2
        norm = row[:, 0] + row[:, 1] - row[:, 2] - row[:, 3]
        np.testing.assert_allclose(norm, 1.0, rtol=0, atol=1e-12)

    def test_window_override_and_validation(self):
        cfg = stokes_config(2, 1.0)
        out = integrated_stokes_noise(cfg, OMEGA_M,
                                      window=(OMEGA_M - 0.1, OMEGA_M + 0.1))
        assert out > 0
        with pytest.raises(ValueError, match="window"):
            integrated_stokes_noise(cfg, OMEGA_M, window=(OMEGA_M, OMEGA_M))


class TestExports:
    def test_noise_csv(self, tmp_path):
        sp = added_noise_spectrum(rate_config(2), FrequencyGrid(-0.1, 0.1, 5))
        path = tmp_path / "noise.csv"
        noise_to_csv(sp, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "omega,s_add_port1,s_add_port2"
        assert len(lines) == 6
        cells = lines[3].split(",")
        assert float(cells[0]) == 0.0
        assert float(cells[1]) == pytest.approx(sp.s_add_1[2], rel=1e-10)

    def test_stokes_csv(self, tmp_path):
        grid = FrequencyGrid(OMEGA_M - 0.5, OMEGA_M + 0.5, 5)
        sp = stokes_noise_spectrum(stokes_config(2, 1.0), OMEGA_M, grid)
        path = tmp_path / "stokes.csv"
        stokes_to_csv(sp, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,stokes_density"
        assert len(lines) == 6
        assert float(lines[1].split(",")[0]) == pytest.approx(OMEGA_M - 0.5)
