import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oemarray import (
    ArrayConfig,
    BogoliubovSite,
    CellLink,
    ConfigError,
    CouplingProfile,
    EliminatedSite,
    FrequencyGrid,
    LossySite,
    OptimizationProblem,
    SiteParams,
    adiabaticity_margin,
    classical_cooperativity,
    config_from_dict,
    config_to_dict,
    efficiency_vs_loss,
    gamma_linear_profile,
    load_config,
    materialize_sites,
)


def test_linear_profile_single_site_is_endpoint():
    cfg = ArrayConfig(n_sites=1, profile=CouplingProfile.linear(0.08))
    (site,) = materialize_sites(cfg)
    assert site.g1 == pytest.approx(0.08)
    assert site.g2 == 0.0


def test_linear_profile_two_sites():
    cfg = ArrayConfig(n_sites=2, profile=CouplingProfile.linear(0.08))
    s1, s2 = materialize_sites(cfg)
    assert (s1.g1, s1.g2) == pytest.approx((0.04, 0.04))
    assert (s2.g1, s2.g2) == pytest.approx((0.08, 0.0))


def test_tanh_profile_matches_rate_split():
    # with constant kappa the effective rates must follow
    # Gamma1(d) = Gamma/2 * (tanh(beta*(d - 1/2)) + 1) at d = j/(N+1)
    g, beta, n = 0.1, 4.5, 10
    cfg = ArrayConfig(n_sites=n, profile=CouplingProfile.tanh(g, beta=beta))
    sites = materialize_sites(cfg)
    gamma_total = g * g  # kappa = 1
    for j, site in enumerate(sites, start=1):
        d = j / (n + 1)
        expect_g1sq = gamma_total * 0.5 * (math.tanh(beta * (d - 0.5)) + 1.0)
        assert site.g1 ** 2 == pytest.approx(expect_g1sq, rel=1e-12)
        assert site.g2 ** 2 == pytest.approx(gamma_total - expect_g1sq, rel=1e-12)


def test_tanh_rate_sum_constant_with_varying_linewidths():
    cfg = ArrayConfig(
        n_sites=7,
        profile=CouplingProfile.tanh(0.08, beta=3.0),
        kappa1=(1.0, 1.5),
        kappa2=(1.5, 1.0),
    )
    sites = materialize_sites(cfg)
    sums = [s.g1 ** 2 / s.kappa1 + s.g2 ** 2 / s.kappa2 for s in sites]
    # Gamma_bar1 = g^2/kappa1(N), Gamma_bar2 = g^2/kappa2(1); both ends see 1.5
    expected = 0.08 ** 2 / 1.5
    assert sums == pytest.approx([expected] * 7, rel=1e-12)


def test_explicit_profile_passthrough_and_length_check():
    prof = CouplingProfile.explicit([(0.01, 0.03), (0.03, 0.01)])
    cfg = ArrayConfig(n_sites=2, profile=prof)
    sites = materialize_sites(cfg)
    assert [(s.g1, s.g2) for s in sites] == [(0.01, 0.03), (0.03, 0.01)]
    with pytest.raises(ValueError):
        ArrayConfig(n_sites=3, profile=prof)


def test_linewidth_ramp_interpolation():
    cfg = ArrayConfig(n_sites=3, profile=CouplingProfile.linear(0.05), kappa1=(1.0, 1.5))
    ks = [s.kappa1 for s in materialize_sites(cfg)]
    assert ks == pytest.approx([1.0, 1.25, 1.5])
    # a single site sits at the ramp midpoint
    cfg1 = ArrayConfig(n_sites=1, profile=CouplingProfile.linear(0.05), kappa1=(1.0, 1.5))
    assert materialize_sites(cfg1)[0].kappa1 == pytest.approx(1.25)


def test_materialize_is_deterministic():
    cfg = ArrayConfig(n_sites=5, profile=CouplingProfile.tanh(0.08))
    a = materialize_sites(cfg)
    b = materialize_sites(cfg)
    assert a == b


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ArrayConfig(n_sites=0, profile=CouplingProfile.linear(0.1))
    with pytest.raises(ValueError):
        ArrayConfig(n_sites=2, profile=CouplingProfile.linear(0.1), kappa1=0.0)
    with pytest.raises(ValueError):
        ArrayConfig(n_sites=2, profile=CouplingProfile.linear(0.1), gamma=-1e-3)
    with pytest.raises(ValueError):
        CouplingProfile(kind="spline")
    with pytest.raises(ValueError):
        CouplingProfile.tanh(0.1, beta=0.0)
    with pytest.raises(ValueError):
        FrequencyGrid(1.0, -1.0, 100)
    with pytest.raises(ValueError):
        FrequencyGrid(-1.0, 1.0, 1)
    for n_points in (2.5, math.nan, 3.0):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            FrequencyGrid(0.0, 1.0, n_points)
    # a ramp of three values failed to unpack, naming no field
    with pytest.raises(ValueError, match=r"kappa1 must be a number or a \(start, end\) pair"):
        ArrayConfig(n_sites=3, profile=CouplingProfile.linear(0.1), kappa1=(1.0, 2.0, 3.0))


@pytest.mark.parametrize("build", [
    lambda: SiteParams(g1=0.1, g2=0.1, kappa1=1.0, kappa2=1.0, gamma=math.nan),
    lambda: SiteParams(g1=math.inf, g2=0.1, kappa1=1.0, kappa2=1.0),
    lambda: CouplingProfile.tanh(0.1, beta=math.nan),
    lambda: CouplingProfile.explicit([(0.1, math.inf)]),
    lambda: ArrayConfig(n_sites=2, profile=CouplingProfile.linear(0.1), kappa1=(1.0, math.nan)),
    lambda: ArrayConfig(n_sites=math.inf, profile=CouplingProfile.linear(0.1)),
    lambda: ArrayConfig(n_sites=2, profile=CouplingProfile.linear(0.1), n_bar=math.nan),
    lambda: EliminatedSite(gamma1=0.01, gamma2=-math.inf),
    lambda: LossySite(site=SiteParams(0.1, 0.1, 1.0, 1.0), kappa_l1=math.nan),
    lambda: CellLink(zeta=math.inf),
    lambda: CellLink(k1_d=math.nan),
    lambda: efficiency_vs_loss("kappa_int", [0.0, math.nan],
                               [SiteParams(0.1, 0.1, 1.0, 1.0)]),
    lambda: OptimizationProblem(n_sites=2, gamma_total=math.nan),
    lambda: FrequencyGrid(-1.0, math.inf, 11),
    lambda: BogoliubovSite(SiteParams(0.1, 0.1, 1.0, 1.0), omega_m=math.nan),
    lambda: BogoliubovSite(SiteParams(0.1, 0.1, 1.0, 1.0), omega_m=math.inf),
    lambda: ArrayConfig(n_sites=3.0, profile=CouplingProfile.tanh(0.08)),
    lambda: classical_cooperativity(math.nan, 1.0, 1.0),
])
def test_non_finite_parameters_rejected(build):
    with pytest.raises(ValueError, match="finite|positive integer"):
        build()


def test_rejections_name_the_field_and_value():
    with pytest.raises(ValueError, match=r"^n_sites must be a positive integer, got 3\.0$"):
        ArrayConfig(n_sites=3.0, profile=CouplingProfile.tanh(0.08))
    with pytest.raises(ValueError, match=r"^g must be finite and >= 0, got nan$"):
        classical_cooperativity(math.nan, 1.0, 1.0)
    # this raised too, but named explicit_values
    with pytest.raises(ValueError, match=r"^n_sites must be a positive integer, got 2\.5$"):
        gamma_linear_profile(2.5, 0.02)


def test_infinite_site_count_in_config_is_config_error():
    doc = {"schema_version": "1", "n_sites": math.inf,
           "profile": {"kind": "linear", "g_bar1": 0.1, "g_bar2": 0.1}}
    with pytest.raises(ConfigError):
        config_from_dict(doc)


def test_adiabaticity_margin_values():
    large = ArrayConfig(n_sites=200, profile=CouplingProfile.tanh(0.08))
    assert adiabaticity_margin(large) == pytest.approx(0.08 * math.sqrt(200), rel=1e-12)
    assert adiabaticity_margin(large) > 1

    small = ArrayConfig(n_sites=10, profile=CouplingProfile.tanh(0.08))
    assert adiabaticity_margin(small) == pytest.approx(0.08 * math.sqrt(10), rel=1e-12)
    assert adiabaticity_margin(small) == pytest.approx(0.253, abs=5e-4)
    assert adiabaticity_margin(small) < 1

    edge = ArrayConfig(n_sites=1, profile=CouplingProfile.linear(1.0))
    assert adiabaticity_margin(edge) == pytest.approx(1.0, rel=1e-12)


def test_classical_cooperativity():
    assert classical_cooperativity(0.0, 1.0, 1e-4) == 0.0
    assert classical_cooperativity(0.1, 1.0, 5e-5) == pytest.approx(800.0, rel=1e-12)
    # Gamma = 0.02 total, n_bar = 100: C = C_tilde/n_bar = 2*Gamma/(gamma*n_bar) = 8
    assert classical_cooperativity(0.1, 1.0, 5e-5) / 100 == pytest.approx(8.0, rel=1e-12)
    with pytest.raises(ValueError):
        classical_cooperativity(0.1, 1.0, 0.0)


def test_gamma_linear_profile_balanced_at_single_site():
    prof = gamma_linear_profile(1, 0.02)
    cfg = ArrayConfig(n_sites=1, profile=prof)
    (site,) = materialize_sites(cfg)
    assert site.g1 == pytest.approx(0.1)
    assert site.g2 == pytest.approx(0.1)


def test_gamma_linear_profile_ramps_to_full_polarization():
    prof = gamma_linear_profile(6, 0.02)
    cfg = ArrayConfig(n_sites=6, profile=prof)
    sites = materialize_sites(cfg)
    assert sites[-1].g1 == pytest.approx(0.1)
    assert sites[-1].g2 == 0.0
    assert sites[2].g1 == pytest.approx(0.05)
    assert sites[2].g2 == pytest.approx(0.05)


@given(
    n=st.integers(min_value=1, max_value=40),
    g=st.floats(min_value=1e-3, max_value=0.5),
    beta=st.floats(min_value=0.5, max_value=12.0),
)
def test_profiles_monotone(n, g, beta):
    for prof in (CouplingProfile.linear(g), CouplingProfile.tanh(g, beta=beta)):
        sites = materialize_sites(ArrayConfig(n_sites=n, profile=prof))
        g1s = [s.g1 for s in sites]
        g2s = [s.g2 for s in sites]
        assert all(a <= b + 1e-15 for a, b in zip(g1s, g1s[1:]))
        assert all(a >= b - 1e-15 for a, b in zip(g2s, g2s[1:]))
        assert all(s.g1 ** 2 + s.g2 ** 2 > 0 for s in sites)


def test_config_json_round_trip(tmp_path):
    cfg = ArrayConfig(
        n_sites=4,
        profile=CouplingProfile.tanh(0.08, 0.09, beta=3.2),
        kappa1=(1.0, 1.5),
        kappa2=2.0,
        gamma=5e-5,
        n_bar=100.0,
    )
    doc = config_to_dict(cfg)
    assert doc["schema_version"] == "1"
    assert config_from_dict(doc) == cfg

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert load_config(path) == cfg


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        config_from_dict({"n_sites": 2})  # no schema_version
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": "99", "n_sites": 2,
                          "profile": {"kind": "linear", "g_bar1": 0.1, "g_bar2": 0.1}})
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": "1", "n_sites": 2,
                          "profile": {"kind": "spline"}})

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1",\n  "n_sites": oops}')
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "line 2" in str(err.value)
