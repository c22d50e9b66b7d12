"""The closed-form site kernels against a dense state-space solve.

Every site kernel is the three-mode resolvent (A + i*omega)^-1 of the site's
drift matrix A, read through its ports.  The references here build A (3x3,
or 6x6 in the lab frame with counter-rotating terms) and solve it with
``np.linalg.solve`` at every frequency; the closed forms must agree with
them to 1e-12, and must raise ``SingularMatrixError`` where the solve finds
the system singular.
"""

import inspect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oemarray
from oemarray import (
    ArrayConfig,
    BogoliubovSite,
    CellLink,
    CouplingProfile,
    EliminatedSite,
    FrequencyGrid,
    LossySite,
    SingularMatrixError,
    SiteParams,
    array_transfer,
    conversion_spectrum,
    lossy_array_scattering,
    noise_coupling_vector,
    scattering_bogoliubov,
    scattering_eliminated,
    scattering_full,
    scattering_two_sided,
)

GRID = np.linspace(-3.0, 3.0, 61)


def _drift(g1, g2, k1, k2, gamma):
    return np.array([
        [-k1 / 2, 0, -1j * g1],
        [0, -k2 / 2, -1j * g2],
        [-1j * g1, -1j * g2, -gamma / 2],
    ])


def _solve(a, b, omega):
    w = np.asarray(omega, dtype=float)
    m = a + 1j * w[..., None, None] * np.eye(len(a))
    return np.linalg.solve(m, np.broadcast_to(b, m.shape[:-1] + b.shape[-1:]))


def vector_reference(site, omega):
    a = _drift(site.g1, site.g2, site.kappa1, site.kappa2, site.gamma)
    x = _solve(a, np.array([[0.0], [0.0], [np.sqrt(site.gamma)]]), omega)[..., 0]
    return np.stack([-np.sqrt(site.kappa1) * x[..., 0],
                     -np.sqrt(site.kappa2) * x[..., 1]], axis=-1)


def two_sided_reference(lossy, omega):
    s = lossy.site
    a = _drift(s.g1, s.g2, lossy.total1, lossy.total2, s.gamma)
    b = np.sqrt([[lossy.kappa_r1, 0, lossy.kappa_l1, 0],
                 [0, lossy.kappa_r2, 0, lossy.kappa_l2],
                 [0, 0, 0, 0]])
    return -np.eye(4) - b.T @ _solve(a, b, omega)


def bogoliubov_reference(bsite, omega):
    # lab-frame drift on (a1, a2, b, a1^dag, a2^dag, b^dag): the beam-splitter
    # drift D, and the couplings alone as the counter-rotating terms C
    s = bsite.site
    d = _drift(s.g1, s.g2, s.kappa1, s.kappa2, s.gamma)
    c = _drift(s.g1, s.g2, 0, 0, 0)
    shift = 1j * bsite.omega_m * np.eye(3)
    a = np.block([[d - shift, c], [c.conj(), d.conj() + shift]])
    b = np.kron(np.eye(2), np.sqrt([[s.kappa1, 0], [0, s.kappa2], [0, 0]]))
    return -np.eye(4) - b.T @ _solve(a, b, omega)


def assert_matches(kernel, reference, omega):
    """The kernel is finite and agrees with the reference at ``omega`` to
    1e-12, or both find the site singular there.  Where a pivot of the solve
    is subnormal (a decoupled site at a subnormal detuning) the reference
    is NaN, and only the kernel's finiteness is checked."""
    try:
        with np.errstate(all="ignore"):
            expected = reference(omega)
    except np.linalg.LinAlgError:
        with pytest.raises(SingularMatrixError):
            kernel(omega)
        return
    actual = kernel(omega)
    assert np.all(np.isfinite(actual))
    held = np.isfinite(expected)
    np.testing.assert_allclose(actual[held], expected[held], rtol=0, atol=1e-12)


coupling = st.one_of(st.just(0.0), st.floats(1e-3, 0.5))
linewidth = st.floats(0.05, 2.0)
mechanical = st.one_of(st.just(0.0), st.floats(1e-6, 0.1))
extra = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))
frequency = st.floats(-3.0, 3.0)
sites = st.builds(SiteParams, coupling, coupling, linewidth, linewidth, mechanical)


@settings(max_examples=200, deadline=None)
@given(site=sites, w=frequency)
@example(site=SiteParams(0.0, 0.0, 1.0, 1.0, 0.0), w=0.0)
@example(site=SiteParams(0.1, 0.2, 0.5, 1.5, 0.0), w=0.0)
def test_noise_vector_matches_solve(site, w):
    def kernel(omega):
        return noise_coupling_vector([site], 1, omega)

    def reference(omega):
        return vector_reference(site, omega)

    assert_matches(kernel, reference, np.append(GRID, w))
    assert_matches(kernel, reference, w)


@settings(max_examples=200, deadline=None)
@given(site=sites, kl1=extra, kl2=extra, kint1=extra, kint2=extra, w=frequency)
@example(site=SiteParams(0.0, 0.0, 1.0, 1.0, 0.0), kl1=0.0, kl2=0.0,
         kint1=0.0, kint2=0.0, w=0.0)
@example(site=SiteParams(0.0, 0.0, 1.0, 1.0, 5e-5), kl1=1.0, kl2=1.0,
         kint1=0.0, kint2=0.0, w=0.0)
def test_two_sided_matches_solve(site, kl1, kl2, kint1, kint2, w):
    lossy = LossySite(site=site, kappa_l1=kl1, kappa_l2=kl2,
                      kappa_int1=kint1, kappa_int2=kint2)

    def kernel(omega):
        return scattering_two_sided(lossy, omega).matrix

    def reference(omega):
        return two_sided_reference(lossy, omega)

    assert_matches(kernel, reference, np.append(GRID, w))
    assert_matches(kernel, reference, w)


# resolved sidebands, kappa/omega_m <= 0.3, where stokes does not warn
@settings(max_examples=200, deadline=None)
@given(site=sites, omega_m=st.floats(7.0, 30.0), w=frequency)
@example(site=SiteParams(0.0, 0.0, 1.0, 1.0, 0.0), omega_m=10.0, w=0.0)
@example(site=SiteParams(0.3, 0.1, 2.0, 0.05, 0.0), omega_m=7.0, w=0.0)
def test_bogoliubov_matches_solve(site, omega_m, w):
    bsite = BogoliubovSite(site, omega_m)

    def kernel(omega):
        return scattering_bogoliubov(bsite, omega)

    def reference(omega):
        return bogoliubov_reference(bsite, omega)

    assert_matches(kernel, reference, omega_m + np.append(GRID, w))
    assert_matches(kernel, reference, omega_m + w)


@pytest.mark.parametrize("kernel,scale", [
    ("full", 2.0 ** -360), ("vector", 2.0 ** -360), ("two-sided", 2.0 ** -360),
    ("bogoliubov", 2.0 ** -360), ("bogoliubov", 2.0 ** -1000),
    ("full", 1e120), ("vector", 1e120), ("two-sided", 1e120),
    ("full", 1e200), ("vector", 1e200), ("two-sided", 1e200),
    ("full", 1e300), ("vector", 1e300), ("two-sided", 1e300),
    ("bogoliubov", 1e160), ("bogoliubov", 1e300),
    ("eliminated", 2.0 ** -1000), ("eliminated", 1e160), ("eliminated", 1e300)])
@pytest.mark.filterwarnings(
    # the first, unlifted evaluation overflows at 1e120 and 1e200 by design
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")
def test_kernels_are_scale_free(kernel, scale):
    # every response is homogeneous of degree 0 in the rates and the
    # frequencies; at 2**-360 the cubic denominators of the first three
    # underflow unless they are lifted, and the Bogoliubov kernel's, of
    # degree 1, stays normal down to 2**-1000.  At 1e120 the cubic terms
    # overflow, and at 1e200 so does the square of a Python float rate,
    # unless they are lifted down.  The eliminated kernel takes
    # sqrt(gamma1)*sqrt(gamma2), since gamma1*gamma2 underflows at 2**-1000
    # and overflows at 1e160.
    def response(scale):
        site = SiteParams(scale, 2 * scale, scale, 3 * scale, scale)
        w = scale * np.array([0.0, 1.0])
        if kernel == "full":
            return scattering_full(site, w)
        if kernel == "vector":
            return noise_coupling_vector([site], 1, w)
        if kernel == "eliminated":
            return scattering_eliminated(EliminatedSite(scale, 2 * scale), w)
        if kernel == "two-sided":
            lossy = LossySite(site=site, kappa_l1=scale, kappa_int2=2 * scale)
            return scattering_two_sided(lossy, w).matrix
        return scattering_bogoliubov(BogoliubovSite(site, 10 * scale), 10 * scale + w)

    np.testing.assert_allclose(response(scale), response(1.0), rtol=0, atol=1e-12)


_SITE = SiteParams(0.1, 0.1, 1.0, 1.0, 0.01)
_LOSSY = LossySite(site=_SITE, kappa_l1=0.1)
# every public function with an ``omega`` parameter, by name, and the
# spectrum's evaluator
_NON_FINITE_CALLS = {
    "scattering_full": lambda w: scattering_full(_SITE, w),
    "scattering_eliminated": lambda w: scattering_eliminated(EliminatedSite(0.02, 0.03), w),
    "scattering_bogoliubov": lambda w: scattering_bogoliubov(BogoliubovSite(_SITE, 10.0), w),
    "noise_coupling_vector": lambda w: noise_coupling_vector([_SITE], 1, w),
    "scattering_two_sided": lambda w: scattering_two_sided(_LOSSY, w),
    "lossy_array_scattering": lambda w: lossy_array_scattering(
        [_LOSSY, _LOSSY], [CellLink(zeta=0.1)], w),
    "array_transfer": lambda w: array_transfer([_SITE, EliminatedSite(0.02, 0.03)], w),
    "evaluator": lambda w: conversion_spectrum(
        ArrayConfig(n_sites=3, kappa1=1.0, kappa2=1.0,
                    profile=CouplingProfile("linear", 0.1, 0.1)),
        FrequencyGrid(-2.0, 2.0, 11)).evaluator(w),
}


def test_every_public_frequency_function_is_in_the_non_finite_table():
    takes_omega = {name for name, value in vars(oemarray).items()
                   if name[0] != "_" and inspect.isfunction(value)
                   and "omega" in inspect.signature(value).parameters}
    assert takes_omega == set(_NON_FINITE_CALLS) - {"evaluator"}


@pytest.mark.parametrize("call", sorted(_NON_FINITE_CALLS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("in_array", [False, True], ids=["scalar", "array"])
@pytest.mark.filterwarnings(
    # at +-inf the first, unlifted evaluation overflows, as it does at 1e120
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_frequency_raises(call, value, in_array):
    # the lift brings any finite frequency into range, so a lifted
    # denominator that is not finite names the frequency
    omega = np.array([0.0, 1.0, value, value]) if in_array else value
    with pytest.raises(ValueError, match=f"^omega must be finite, got {value}$"):
        _NON_FINITE_CALLS[call](omega)
