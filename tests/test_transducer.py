import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oemarray import SingularMatrixError, SiteParams, classical_cooperativity
from oemarray.cascade import array_transfer
from oemarray.transducer import (
    BogoliubovSite,
    EliminatedSite,
    scattering_bogoliubov,
    scattering_eliminated,
    scattering_full,
    scattering_resonant,
    _omega_factors,
)


def svd_max(m):
    return np.linalg.svd(np.atleast_2d(m), compute_uv=False).max()


def bits(a):
    return np.ascontiguousarray(a).tobytes()


_SUBNORMAL_SITE = SiteParams(g1=0.0, g2=0.0, kappa1=1e-110, kappa2=1e-110, gamma=1e-110)


class TestScatteringFull:
    def test_decoupled_cavities_reflect(self):
        site = SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.3, gamma=0.02)
        for w in (-0.7, 0.3, 2.0):
            s = scattering_full(site, w)
            r1 = (1.0 + 2j * w) / (1.0 - 2j * w)
            r2 = (1.3 + 2j * w) / (1.3 - 2j * w)
            assert s[0, 0] == pytest.approx(r1, rel=1e-12)
            assert s[1, 1] == pytest.approx(r2, rel=1e-12)
            assert s[0, 1] == 0 and s[1, 0] == 0
            assert abs(s[0, 0]) == pytest.approx(1.0, rel=1e-12)

    def test_unit_cooperativities_on_resonance(self):
        # C_tilde = 4g^2/(kappa*gamma) = 1 for g=0.1, kappa=1, gamma=0.04
        site = SiteParams(g1=0.1, g2=0.1, kappa1=1.0, kappa2=1.0, gamma=0.04)
        s = scattering_full(site, 0.0)
        expect = np.array([[1.0, -2.0], [-2.0, 1.0]]) / 3.0
        np.testing.assert_allclose(s, expect, rtol=1e-12, atol=1e-14)

    def test_perfect_conversion_at_large_cooperativity(self):
        site = SiteParams(g1=0.1, g2=0.1, kappa1=1.0, kappa2=1.0, gamma=1e-9)
        s = scattering_full(site, 0.0)
        assert s[0, 1] == pytest.approx(-1.0, abs=1e-7)
        assert abs(s[0, 0]) < 1e-7

    def test_matches_resonant_form_at_zero_frequency(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g1, g2 = rng.uniform(0.0, 0.3, 2)
            k1, k2 = rng.uniform(0.3, 3.0, 2)
            gamma = rng.uniform(1e-5, 0.1)
            site = SiteParams(g1=g1, g2=g2, kappa1=k1, kappa2=k2, gamma=gamma)
            c1 = classical_cooperativity(g1, k1, gamma)
            c2 = classical_cooperativity(g2, k2, gamma)
            np.testing.assert_allclose(
                scattering_full(site, 0.0), scattering_resonant(c1, c2),
                rtol=1e-10, atol=1e-10)

    def test_reciprocity_is_exact(self):
        site = SiteParams(g1=0.07, g2=0.11, kappa1=1.0, kappa2=1.4, gamma=1e-3)
        w = np.linspace(-2, 2, 101)
        s = scattering_full(site, w)
        assert np.array_equal(s[..., 0, 1], s[..., 1, 0])

    def test_vectorized_matches_scalar(self):
        site = SiteParams(g1=0.08, g2=0.05, kappa1=1.0, kappa2=1.2, gamma=1e-4)
        w = np.array([-1.0, 0.0, 0.5])
        batch = scattering_full(site, w)
        assert batch.shape == (3, 2, 2)
        for i, wi in enumerate(w):
            np.testing.assert_allclose(batch[i], scattering_full(site, wi), rtol=1e-15)

    def test_scalar_call_gives_the_array_bits(self):
        # numpy's scalar complex product rounds differently from its array
        # loop; batched bisection needs a scalar omega to give the bits it
        # has inside an array
        rng = np.random.default_rng(8)
        w = np.linspace(-2.5, 2.5, 1201)
        for _ in range(30):
            g1, g2 = rng.uniform(0.01, 0.3, 2)
            k1, k2 = rng.uniform(0.5, 10.0, 2)
            site = SiteParams(g1=g1, g2=g2, kappa1=k1, kappa2=k2,
                              gamma=rng.uniform(0.0, 1e-2))
            batch = scattering_full(site, w)
            for i in range(len(w)):
                assert np.array_equal(batch[i], scattering_full(site, w[i]))

    def test_subnormal_lift_leaves_other_frequencies_alone(self):
        # the denominator is subnormal at omega = 0 only; lifting the whole
        # array once overflowed omega = 1 to NaN
        site = SiteParams(g1=0.0, g2=0.0, kappa1=1e-110, kappa2=1e-110, gamma=1e-110)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = scattering_full(site, np.array([0.0, 1.0]))
            single = scattering_full(site, 1.0)
        assert np.all(np.isfinite(batch))
        assert np.array_equal(batch[1], single)
        np.testing.assert_array_equal(batch[0], np.eye(2))

    def test_lift_is_sized_by_the_frequency_too(self):
        # rates near 2**-660 and omega = 2**-360: the denominator underflows,
        # and a lift sized by the rates alone once overflowed omega to NaN
        s = 2.0 ** -660
        w = np.array([2.0 ** -360, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lifted = scattering_full(SiteParams(s, 2 * s, s, 3 * s, s), w)
        expected = scattering_full(SiteParams(1.0, 2.0, 1.0, 3.0, 1.0), w / s)
        np.testing.assert_allclose(lifted, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("site,omega", [
        (SiteParams(g1=0.08, g2=0.05, kappa1=1.0, kappa2=1.2, gamma=1e-4),
         np.linspace(-2, 2, 101)),
        (SiteParams(g1=0.08, g2=0.05, kappa1=1.0, kappa2=1.2, gamma=1e-4), 0.3),
        (SiteParams(g1=0.1, g2=0.0, kappa1=0.7, kappa2=1.3, gamma=0.0),
         np.array([-0.5, -0.0, 0.0, 0.5])),
        (SiteParams(g1=0.1, g2=0.2, kappa1=0.7, kappa2=1.3, gamma=-0.0),
         np.array([-0.5, -0.0, 0.0, 0.5])),
        (SiteParams(g1=0.1, g2=0.2, kappa1=0.7, kappa2=1.3, gamma=-0.0), -0.0),
        # the lift recomputes every factor from the lifted rates
        (_SUBNORMAL_SITE, np.array([0.0, 1.0])),
        (_SUBNORMAL_SITE, 0.0),
        (_SUBNORMAL_SITE, 1.0),
    ], ids=["vector", "scalar", "gamma-zero", "gamma-negative-zero",
            "gamma-negative-zero-scalar", "subnormal-lift", "subnormal-lift-scalar",
            "subnormal-site-normal-omega"])
    def test_shared_factors_give_the_same_bits(self, site, omega):
        factors = _omega_factors(site.kappa1, site.kappa2, site.gamma,
                                 np.asarray(omega, dtype=float))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            shared = scattering_full(site, omega, _factors=factors)
        assert bits(shared) == bits(scattering_full(site, omega))

    def test_singular_denominator_guard(self):
        site = SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.0, gamma=0.0)
        with pytest.raises(SingularMatrixError):
            scattering_full(site, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(
        g1=st.floats(0.0, 0.5).map(lambda x: 0.0 if x < 1e-9 else x),
        g2=st.floats(0.0, 0.5).map(lambda x: 0.0 if x < 1e-9 else x),
        k1=st.floats(0.1, 10.0), k2=st.floats(0.1, 10.0),
        w=st.floats(-5.0, 5.0).map(lambda x: 0.0 if abs(x) < 1e-9 else x),
    )
    def test_unitary_without_mechanical_loss(self, g1, g2, k1, k2, w):
        if 4 * g1 * g1 * k2 + 4 * g2 * g2 * k1 == 0.0 and w == 0.0:
            return  # lossless uncoupled mechanics: response singular at dc
        site = SiteParams(g1=g1, g2=g2, kappa1=k1, kappa2=k2, gamma=0.0)
        s = scattering_full(site, w)
        np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(
        g1=st.floats(0.0, 0.5), g2=st.floats(0.0, 0.5),
        k1=st.floats(0.1, 10.0), k2=st.floats(0.1, 10.0),
        gamma=st.floats(0.0, 0.5),
        w=st.floats(-5.0, 5.0).map(lambda x: 0.0 if abs(x) < 1e-9 else x),
    )
    # subnormal denominators: the first once overflowed to inf+nanj, the
    # second rounded the response to |S11| = 2
    @example(g1=0.0, g2=0.0, k1=1.0, k2=1.0, gamma=5e-324, w=0.0)
    @example(g1=0.0, g2=0.0, k1=1.14, k2=1.14, gamma=5e-324, w=0.0)
    def test_sub_unitary_with_mechanical_loss(self, g1, g2, k1, k2, gamma, w):
        if 4 * g1 * g1 * k2 + 4 * g2 * g2 * k1 + k1 * k2 * gamma == 0.0 and w == 0.0:
            return
        site = SiteParams(g1=g1, g2=g2, kappa1=k1, kappa2=k2, gamma=gamma)
        assert svd_max(scattering_full(site, w)) <= 1 + 1e-10

    def test_sub_unitary_tight_at_moderate_parameters(self):
        site = SiteParams(g1=0.09, g2=0.06, kappa1=1.0, kappa2=1.4, gamma=2e-3)
        for w in (-0.5, 0.0, 0.02, 1.3):
            assert svd_max(scattering_full(site, w)) <= 1 + 1e-12


class TestScatteringResonant:
    def test_no_coupling_is_identity(self):
        np.testing.assert_allclose(scattering_resonant(0.0, 0.0), np.eye(2))

    def test_dark_optical_port(self):
        np.testing.assert_allclose(scattering_resonant(1.0, 0.0), np.diag([0.0, 1.0]))

    def test_unit_cooperativity_conversion(self):
        s = scattering_resonant(1.0, 1.0)
        assert s[1, 0] == pytest.approx(-2.0 / 3.0, rel=1e-12)
        assert s.dtype == np.float64

    @pytest.mark.parametrize("args,field", [
        ((math.inf, 1.0), "c1_tilde"),
        ((1.0, math.nan), "c2_tilde"),
        ((1.0, -1.0), "c2_tilde"),
    ])
    def test_rejects_invalid_cooperativities(self, args, field):
        # an infinite cooperativity gave a NaN matrix
        with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0"):
            scattering_resonant(*args)


class TestScatteringEliminated:
    def test_balanced_site_converts_perfectly_on_resonance(self):
        site = EliminatedSite(0.025, 0.025)
        np.testing.assert_allclose(
            scattering_eliminated(site, 0.0), [[0, -1], [-1, 0]], atol=1e-15)

    def test_balanced_conversion_lorentzian(self):
        gamma_total = 0.05
        site = EliminatedSite(gamma_total / 2, gamma_total / 2)
        for w in (0.0, 0.03, 0.1, 0.4):
            s21 = scattering_eliminated(site, w)[1, 0]
            expect = 4 * gamma_total ** 2 / (4 * gamma_total ** 2 + w ** 2)
            assert abs(s21) ** 2 == pytest.approx(expect, rel=1e-12)

    def test_far_detuned_limit_is_identity(self):
        s = scattering_eliminated(EliminatedSite(0.02, 0.03), 1e7)
        np.testing.assert_allclose(s, np.eye(2), atol=1e-6)

    def test_degenerate_zero_rejected(self):
        with pytest.raises(SingularMatrixError):
            scattering_eliminated(EliminatedSite(0.0, 0.0), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        G1=st.floats(0.0, 0.2).map(lambda x: 0.0 if x < 1e-9 else x),
        G2=st.floats(0.0, 0.2).map(lambda x: 0.0 if x < 1e-9 else x),
        w=st.floats(-3.0, 3.0).map(lambda x: 0.0 if abs(x) < 1e-9 else x),
    )
    # tiny rates: the first once returned NaN (subnormal denominator), the
    # second the zero matrix (G1*G2 underflowed)
    @example(G1=5e-324, G2=5e-324, w=0.0)
    @example(G1=1e-200, G2=1e-200, w=0.0)
    # rates where gamma1*gamma2 underflows or overflows while the
    # denominator stays normal, at frequencies from 0 to near overflow
    @example(G1=2.0 ** -520, G2=2.0 ** -519, w=0.0)
    @example(G1=2.0 ** -520, G2=2.0 ** -519, w=1e-300)
    @example(G1=2.0 ** -520, G2=2.0 ** -519, w=1.0)
    @example(G1=2.0 ** -520, G2=2.0 ** -519, w=1e300)
    @example(G1=1e300, G2=2e300, w=0.0)
    @example(G1=1e300, G2=2e300, w=1e308)
    def test_unitary_for_real_frequencies(self, G1, G2, w):
        if G1 == G2 == 0.0 and w == 0.0:
            return
        s = scattering_eliminated(EliminatedSite(G1, G2), w)
        np.testing.assert_allclose(s.conj().T @ s, np.eye(2), atol=1e-10)

    def test_agrees_with_full_model_in_validity_window(self):
        # the eliminated matrix omits the off-resonant cavity phase
        # t = (kappa+2i*omega)/(kappa-2i*omega) common to every channel, so
        # the comparison is against t * S_eliminated; the residual error is
        # ~4*(g/kappa)^2, peaking at the mechanical linewidth scale
        for g1, g2, bound in [(0.05, 0.05, 1e-2), (0.04, 0.05, 1e-2),
                              (0.1, 0.1, 5 * 0.1 ** 2), (0.07, 0.1, 5 * 0.1 ** 2)]:
            full_site = SiteParams(g1=g1, g2=g2, kappa1=1.0, kappa2=1.0, gamma=0.0)
            elim_site = EliminatedSite(g1 ** 2, g2 ** 2)
            for w in np.linspace(-0.2, 0.2, 81):
                t = (1 + 2j * w) / (1 - 2j * w)
                diff = scattering_full(full_site, w) \
                    - t * scattering_eliminated(elim_site, w)
                assert np.abs(diff).max() <= bound


class TestScatteringBogoliubov:
    def test_decoupled_site_has_no_squeezing_blocks(self):
        bsite = BogoliubovSite(
            SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.2, gamma=1e-4),
            omega_m=10.0)
        s = scattering_bogoliubov(bsite, 9.4)
        assert np.all(s[:2, 2:] == 0) and np.all(s[2:, :2] == 0)
        np.testing.assert_allclose(np.abs(np.diag(s)), 1.0, rtol=1e-12)
        # annihilation block reduces to the rotating-frame reflection
        rot = scattering_full(bsite.site, 9.4 - 10.0)
        np.testing.assert_allclose(s[:2, :2], rot, rtol=1e-12, atol=1e-14)

    def test_rotating_wave_limit(self):
        # fixed kappa, growing omega_m: the annihilation block approaches the
        # rotating-frame beam-splitter matrix and the squeezing blocks vanish
        site = SiteParams(g1=0.05, g2=0.05, kappa1=1.0, kappa2=1.0, gamma=1e-6)
        block_devs, squeeze_peaks = [], []
        for om in (10.0, 100.0, 1000.0):
            bsite = BogoliubovSite(site, omega_m=om)
            dev = 0.0
            squeeze = 0.0
            for w_rel in np.linspace(-0.4, 0.4, 21):
                s = scattering_bogoliubov(bsite, om + w_rel)
                rot = scattering_full(site, w_rel)
                dev = max(dev, np.abs(s[:2, :2] - rot).max())
                squeeze = max(squeeze, abs(s[1, 2]) ** 2 + abs(s[1, 3]) ** 2)
            block_devs.append(dev)
            squeeze_peaks.append(squeeze)
        assert block_devs[0] > block_devs[1] > block_devs[2]
        assert squeeze_peaks[0] > squeeze_peaks[1] > squeeze_peaks[2]

    def test_conversion_peaks_near_sideband(self):
        site = SiteParams(g1=0.08, g2=0.08, kappa1=1.0, kappa2=1.0, gamma=1e-6)
        bsite = BogoliubovSite(site, omega_m=10.0)
        w = np.linspace(8.0, 12.0, 801)
        s = scattering_bogoliubov(bsite, w)
        conv = np.abs(s[:, 1, 0]) ** 2
        peak = w[np.argmax(conv)]
        assert abs(peak - 10.0) < 0.1

    def test_singular_site_raises(self):
        # uncoupled, lossless mechanics driven at omega_m
        bsite = BogoliubovSite(
            SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.0, gamma=0.0), omega_m=10.0)
        with pytest.raises(SingularMatrixError):
            scattering_bogoliubov(bsite, np.array([9.5, 10.0]))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_frequency_is_named_before_a_singular_one(self):
        # a bad input is a usage error (CLI exit 2), not a numerical one, and
        # the message names the first non-finite frequency
        bsite = BogoliubovSite(
            SiteParams(g1=0.0, g2=0.0, kappa1=1.0, kappa2=1.0, gamma=0.0), omega_m=10.0)
        with pytest.raises(ValueError, match="^omega must be finite, got inf$"):
            scattering_bogoliubov(bsite, np.array([10.0, np.inf, np.nan]))

    def test_invalid_mechanical_frequency(self):
        site = SiteParams(g1=0.05, g2=0.05, kappa1=1.0, kappa2=1.0)
        with pytest.raises(ValueError):
            BogoliubovSite(site, omega_m=0.0)


LAYOUT_CASES = {
    "full": (SiteParams(g1=0.08, g2=0.05, kappa1=1.0, kappa2=1.2, gamma=1e-4),
             np.linspace(-2.0, 2.0, 41)),
    "eliminated": (EliminatedSite(0.01, 0.03), np.linspace(-0.2, 0.2, 41)),
    # the D1 lifts: a subnormal denominator at omega = 0 only
    "full-lifted": (SiteParams(g1=0, g2=0, kappa1=1e-110, kappa2=1e-110, gamma=1e-110),
                    np.array([0.0, 1.0])),
    "eliminated-lifted": (EliminatedSite(5e-324, 5e-324), np.linspace(-1.0, 1.0, 5)),
}


class TestEntryMajorLayout:
    """Site kernels and the cascade keep the (..., 2, 2) shape, with each
    entry one contiguous array."""

    @staticmethod
    def functions(site):
        kernel = (scattering_eliminated if isinstance(site, EliminatedSite)
                  else scattering_full)
        return [lambda w: kernel(site, w), lambda w: array_transfer([site, site], w)]

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_shape_and_contiguous_entries(self, case):
        site, w = LAYOUT_CASES[case]
        for f in self.functions(site):
            s = f(w)
            assert s.shape == w.shape + (2, 2)
            for i in range(2):
                for j in range(2):
                    assert s[..., i, j].flags.c_contiguous
            for wk, sk in zip(w, s):
                assert f(wk).shape == (2, 2)
                assert np.array_equal(f(wk), sk)

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_rows_of_two_dimensional_omega(self, case):
        site, w = LAYOUT_CASES[case]
        w2 = np.stack([w, w[::-1]])
        for f in self.functions(site):
            s = f(w2)
            assert s.shape == w2.shape + (2, 2)
            for row, s_row in zip(w2, s):
                assert np.array_equal(s_row, f(row))
