"""Tests for two-sided sites, propagation loss, and backscatter fits."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oemarray.core import (ArrayConfig, CouplingProfile, SingularMatrixError,
                           SiteParams, materialize_sites)
from oemarray.cascade import array_transfer
from oemarray.loss import (BiScatter, CellLink, LossySite, alpha_fit_to_json,
                           backscatter_alpha_fit, backscatter_efficiency_table,
                           conversion_efficiency, efficiency_vs_loss,
                           envelope_efficiency, free_propagation,
                           lossy_array_scattering, scatter_to_transfer,
                           scattering_two_sided, transfer_to_scatter,
                           sweep_to_csv)
from oemarray.transducer import scattering_full

KAPPA = 1.0
GAMMA_M = 5e-5


def tanh_sites(n, g=0.08, beta=4.5):
    cfg = ArrayConfig(n_sites=n, profile=CouplingProfile.tanh(g, beta=beta),
                      kappa1=KAPPA, kappa2=KAPPA, gamma=GAMMA_M)
    return materialize_sites(cfg)


def one_site(g1=0.07, g2=0.05, **losses):
    return LossySite(site=SiteParams(g1=g1, g2=g2, kappa1=KAPPA, kappa2=0.8,
                                     gamma=GAMMA_M), **losses)


class TestLossySite:
    def test_right_ports_default_to_site_linewidths(self):
        ls = one_site()
        assert ls.kappa_r1 == KAPPA
        assert ls.kappa_r2 == 0.8
        assert ls.total1 == KAPPA
        assert ls.total2 == 0.8

    def test_extra_channels_add_to_totals(self):
        ls = one_site(kappa_l1=0.2, kappa_int1=0.05, kappa_l2=0.1)
        assert ls.total1 == pytest.approx(1.25)
        assert ls.total2 == pytest.approx(0.9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            one_site(kappa_l1=-0.1)

    def test_zero_total_linewidth_rejected(self):
        dead = SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.0, gamma=0.0)
        with pytest.raises(ValueError):
            LossySite(site=dead, kappa_r1=0.0)


class TestCellLink:
    def test_negative_loss_rejected(self):
        with pytest.raises(ValueError):
            CellLink(zeta=-0.01)

    def test_from_epsilon_sets_amplitude_transmission(self):
        link = CellLink.from_epsilon(0.01)
        assert np.exp(-link.zeta) == pytest.approx(0.99, rel=1e-12)

    def test_from_epsilon_bounds(self):
        with pytest.raises(ValueError):
            CellLink.from_epsilon(1.0)
        with pytest.raises(ValueError):
            CellLink.from_epsilon(-0.2)


class TestScatteringTwoSided:
    def test_reduces_to_one_sided_model(self):
        ls = one_site()
        w = np.array([0.0, 0.13, -0.4])
        bi = scattering_two_sided(ls, w)
        np.testing.assert_allclose(bi.s_r, scattering_full(ls.site, w),
                                   atol=1e-10)
        np.testing.assert_allclose(bi.s_rl, 0.0, atol=1e-10)
        np.testing.assert_allclose(bi.s_lr, 0.0, atol=1e-10)
        np.testing.assert_allclose(bi.s_l + np.eye(2), 0.0, atol=1e-10)

    def test_bare_cavity_reflection_with_internal_loss(self):
        # dead couplings turn cavity 1 into a one-port resonator whose
        # reflection is (kR - kint + 2iw) / (kR + kint - 2iw)
        bare = LossySite(site=SiteParams(g1=0, g2=0, kappa1=KAPPA, kappa2=KAPPA,
                                         gamma=GAMMA_M),
                         kappa_int1=0.01, kappa_int2=0.01)
        w = np.array([0.0, 0.05, -0.3])
        bi = scattering_two_sided(bare, w)
        oracle = (KAPPA - 0.01 + 2j * w) / (KAPPA + 0.01 - 2j * w)
        np.testing.assert_allclose(bi.s_r[..., 0, 0], oracle, atol=1e-10)
        assert np.all(np.abs(bi.s_r[..., 0, 0]) < 1.0)

    def test_symmetric_site_converts_equally_both_ways(self):
        s = SiteParams(g1=0.06, g2=0.06, kappa1=KAPPA, kappa2=KAPPA,
                       gamma=GAMMA_M)
        bi = scattering_two_sided(LossySite(site=s, kappa_l1=KAPPA,
                                            kappa_l2=KAPPA), 0.0)
        assert abs(bi.s_r[1, 0]) == pytest.approx(abs(bi.s_l[1, 0]), rel=1e-12)

    @given(
        g1=st.floats(0, 0.3).map(lambda x: 0.0 if x < 1e-9 else x),
        g2=st.floats(0, 0.3).map(lambda x: 0.0 if x < 1e-9 else x),
        kl=st.floats(0, 2.0),
        kint=st.floats(0, 0.5),
        w=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_passive(self, g1, g2, kl, kint, w):
        s = SiteParams(g1=g1, g2=g2, kappa1=KAPPA, kappa2=KAPPA, gamma=GAMMA_M)
        ls = LossySite(site=s, kappa_l1=kl, kappa_l2=kl,
                       kappa_int1=kint, kappa_int2=kint)
        sv = np.linalg.svd(scattering_two_sided(ls, w).matrix,
                           compute_uv=False)
        assert sv.max() <= 1 + 1e-10


class TestTransferConversion:
    def test_round_trip_is_identity(self):
        ls = one_site(kappa_l1=0.3, kappa_l2=0.2, kappa_int1=0.01)
        w = np.array([0.07, -0.22, 0.5])
        bi = scattering_two_sided(ls, w)
        back = transfer_to_scatter(scatter_to_transfer(bi))
        np.testing.assert_allclose(back.matrix, bi.matrix, atol=1e-10)

    def test_one_sided_site_gives_block_diagonal_transfer(self):
        bi = scattering_two_sided(one_site(), 0.1)
        t = scatter_to_transfer(bi)
        np.testing.assert_allclose(t[:2, :2], bi.s_r, atol=1e-12)
        np.testing.assert_allclose(t[:2, 2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(t[2:, :2], 0.0, atol=1e-12)
        np.testing.assert_allclose(t[2:, 2:], -np.eye(2), atol=1e-12)

    def test_transparent_left_block_raises(self):
        # kappa_L = kappa_R on a bare cavity transmits perfectly at
        # resonance, so no left-going output exists to invert
        bare = LossySite(site=SiteParams(g1=0, g2=0, kappa1=KAPPA,
                                         kappa2=KAPPA, gamma=GAMMA_M),
                         kappa_l1=KAPPA, kappa_l2=KAPPA)
        bi = scattering_two_sided(bare, 0.0)
        with pytest.raises(SingularMatrixError, match="near-singular"):
            scatter_to_transfer(bi)


class TestFreePropagation:
    def test_lossless_zero_phase_is_identity(self):
        np.testing.assert_allclose(free_propagation(CellLink()), np.eye(4),
                                   atol=1e-15)

    def test_loss_attenuates_forward_and_amplifies_backward_lanes(self):
        t = free_propagation(CellLink.from_epsilon(0.01))
        assert abs(t[0, 0]) == pytest.approx(0.99, rel=1e-12)
        assert abs(t[1, 1]) == pytest.approx(0.99, rel=1e-12)
        # the transfer matrix runs against the left lane's travel, so its
        # entries are reciprocal; the reassembled scattering still decays
        assert abs(t[2, 2]) == pytest.approx(1 / 0.99, rel=1e-12)

    def test_pi_phases_leave_conversion_magnitude_alone(self):
        sites = [LossySite(site=s) for s in tanh_sites(6)]
        w = np.linspace(-0.4, 0.4, 101)
        plain = conversion_efficiency(lossy_array_scattering(
            sites, [CellLink(zeta=0.01)] * 6, w))
        flipped = conversion_efficiency(lossy_array_scattering(
            sites, [CellLink(zeta=0.01, k1_d=np.pi, k2_d=np.pi)] * 6, w))
        np.testing.assert_allclose(flipped, plain, atol=1e-12)


class TestLossyArrayScattering:
    def test_zero_losses_match_unidirectional_pipeline(self):
        w = np.linspace(-0.6, 0.6, 301)
        for n in (1, 4, 10):
            sites = tanh_sites(n)
            bi = lossy_array_scattering([LossySite(site=s) for s in sites],
                                        [CellLink()] * n, w)
            np.testing.assert_allclose(bi.s_r, array_transfer(sites, w),
                                       atol=1e-10)

    def test_link_count_must_match(self):
        sites = [LossySite(site=s) for s in tanh_sites(3)]
        with pytest.raises(ValueError, match="links"):
            lossy_array_scattering(sites, [CellLink()], 0.0)

    def test_trailing_link_is_optional(self):
        sites = [LossySite(site=s, kappa_l1=0.1, kappa_l2=0.1)
                 for s in tanh_sites(4)]
        interior = [CellLink(zeta=0.02, k1_d=0.3, k2_d=0.3)] * 3
        a = lossy_array_scattering(sites, interior, 0.11)
        b = lossy_array_scattering(sites, interior + [CellLink()], 0.11)
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-14)

    def test_assembled_array_stays_passive(self):
        sites = [LossySite(site=s, kappa_l1=0.3 * KAPPA, kappa_l2=0.3 * KAPPA,
                           kappa_int1=0.005, kappa_int2=0.005)
                 for s in tanh_sites(8)]
        links = [CellLink(zeta=0.01, k1_d=0.7, k2_d=0.4)] * 8
        w = np.linspace(-1.2, 1.2, 401)
        sv = np.linalg.svd(lossy_array_scattering(sites, links, w).matrix,
                           compute_uv=False)
        assert sv.max() <= 1 + 1e-10

    def test_ripple_count_grows_with_array_size(self):
        # standing waves between reflective sites produce spectral
        # ripples whose spacing shrinks as the array gets longer
        w = np.linspace(-0.5, 0.5, 2000)
        counts = {}
        for n in (10, 50):
            sites = [LossySite(site=s, kappa_l1=0.5 * KAPPA,
                               kappa_l2=0.5 * KAPPA) for s in tanh_sites(n)]
            eff = conversion_efficiency(
                lossy_array_scattering(sites, [CellLink()] * n, w))
            counts[n] = int(np.sum((eff[1:-1] > eff[:-2])
                                   & (eff[1:-1] > eff[2:])))
        assert counts[10] >= 8
        assert counts[50] > 2 * counts[10]

    def test_envelope_efficiency_insensitive_to_array_size(self):
        envs = {}
        for n in (10, 50):
            sites = [LossySite(site=s, kappa_l1=0.1 * KAPPA,
                               kappa_l2=0.1 * KAPPA) for s in tanh_sites(n)]
            envs[n] = envelope_efficiency(sites, [CellLink()] * n)
        assert abs(envs[50] - envs[10]) / envs[10] < 0.1

    def test_balanced_backscatter_carves_deep_minima(self):
        sites = tanh_sites(10)
        lossless = abs(array_transfer(sites, 0.0)[1, 0]) ** 2
        lossy = [LossySite(site=s, kappa_l1=KAPPA, kappa_l2=KAPPA)
                 for s in sites]
        w = np.linspace(-0.5, 0.5, 2000)
        eff = conversion_efficiency(
            lossy_array_scattering(lossy, [CellLink()] * 10, w))
        assert eff.min() < 1e-2 * lossless


class TestEfficiencyVsLoss:
    def test_internal_loss_strictly_degrades(self):
        rows = efficiency_vs_loss("kappa_int",
                                  [0.0, 0.002, 0.005, 0.01, 0.02, 0.05],
                                  tanh_sites(10))
        effs = [e for _, e in rows]
        assert effs[0] == pytest.approx(0.93857, rel=1e-3)
        assert all(a > b for a, b in zip(effs, effs[1:]))

    def test_small_propagation_loss_stays_near_lossless(self):
        rows = efficiency_vs_loss("epsilon", [0.0, 0.001], tanh_sites(10))
        assert rows[1][1] > 0.97 * rows[0][1]

    def test_large_array_amplifies_propagation_loss(self):
        rows = efficiency_vs_loss("epsilon", [0.05], tanh_sites(40))
        assert rows[0][1] < 0.1

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="sweep parameter"):
            efficiency_vs_loss("detuning", [0.1], tanh_sites(2))

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            efficiency_vs_loss("epsilon", [-0.01], tanh_sites(2))


class TestBackscatterAlphaFit:
    def test_recovers_synthetic_slope(self):
        xs = [0.02, 0.05, 0.1, 0.15, 0.2]
        fit = backscatter_alpha_fit([(x, 1 - 1.6 * x) for x in xs])
        assert fit["alpha"] == pytest.approx(1.6, rel=1e-12)
        assert fit["stderr"] == pytest.approx(0.0, abs=1e-12)
        assert fit["points_used"] == 5

    def test_simulated_sweep_lands_in_expected_window(self):
        table = backscatter_efficiency_table([0.02, 0.05, 0.1, 0.15, 0.2],
                                             tanh_sites(10))
        fit = backscatter_alpha_fit(table)
        assert 1.4 <= fit["alpha"] <= 1.8
        assert fit["stderr"] < 0.1

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="4 sweep points"):
            backscatter_alpha_fit([(0.02, 0.9), (0.05, 0.85), (0.1, 0.8)])

    def test_points_outside_linear_regime_rejected(self):
        pts = [(0.05, 0.9), (0.1, 0.85), (0.2, 0.7), (0.4, 0.5)]
        with pytest.raises(ValueError, match="linear regime"):
            backscatter_alpha_fit(pts)

    def test_zero_ratio_rejected(self):
        pts = [(0.0, 0.95), (0.05, 0.9), (0.1, 0.85), (0.15, 0.8)]
        with pytest.raises(ValueError, match="positive"):
            backscatter_alpha_fit(pts)

    @pytest.mark.parametrize("point,field", [
        ((math.nan, 0.85), r"table\[1\] ratio"),
        ((0.05, math.inf), r"table\[1\] efficiency"),
    ])
    def test_non_finite_point_rejected(self, point, field):
        # one NaN ratio gave alpha = nan
        pts = [(0.02, 0.95), point, (0.1, 0.85), (0.15, 0.8)]
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            backscatter_alpha_fit(pts)


class TestExports:
    def test_sweep_csv_layout(self, tmp_path):
        path = tmp_path / "sweep.csv"
        sweep_to_csv([(0.01, 0.93), (0.02, 0.9)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "param,omega,abs2_t21"
        assert lines[1] == "0.01,0,0.93"
        assert len(lines) == 3

    def test_alpha_fit_json_round_trips(self, tmp_path):
        fit = {"alpha": 1.601, "stderr": 0.046, "points_used": 5}
        path = tmp_path / "fit.json"
        alpha_fit_to_json(fit, path)
        assert json.loads(path.read_text()) == fit
