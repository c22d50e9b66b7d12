"""Frequency conversion in optoelectromechanical transducer arrays.

Scattering/transfer-matrix models of 1D arrays of microwave-optomechanical
transducers: conversion spectra and bandwidth, thermal and Stokes noise,
propagation loss and backscatter, and constrained coupling-profile
optimization.
"""

from .core import (
    ArrayConfig,
    ConfigError,
    CouplingProfile,
    FrequencyGrid,
    SCHEMA_VERSION,
    SingularMatrixError,
    SiteParams,
    SpectrumError,
    adiabaticity_margin,
    classical_cooperativity,
    config_from_dict,
    config_to_dict,
    gamma_linear_profile,
    load_config,
    materialize_sites,
)
from .transducer import (
    BogoliubovSite,
    EliminatedSite,
    matrix_to_json,
    offres_coefficients,
    scattering_bogoliubov,
    scattering_eliminated,
    scattering_full,
    scattering_resonant,
)
from .noise import (
    NoiseSpectrum,
    StokesSpectrum,
    added_noise_resonant_analytic,
    added_noise_spectrum,
    integrated_added_noise,
    integrated_stokes_noise,
    noise_coupling_vector,
    noise_to_csv,
    stokes_noise_spectrum,
    stokes_to_csv,
)
from .cascade import (
    BandwidthResult,
    Spectrum,
    array_transfer,
    bandwidth_analytic,
    bandwidth_to_json,
    conversion_spectrum,
    eliminated_spectrum,
    extract_bandwidth,
    halfmax_roots_analytic,
    perturbative_t21,
    phase_winding,
    spectrum_to_csv,
    waveguide_dispersion,
)
from .loss import (
    BiScatter,
    CellLink,
    LossySite,
    alpha_fit_to_json,
    backscatter_alpha_fit,
    backscatter_efficiency_table,
    conversion_efficiency,
    efficiency_vs_loss,
    envelope_efficiency,
    free_propagation,
    lossy_array_scattering,
    scatter_to_transfer,
    scattering_two_sided,
    sweep_to_csv,
    transfer_to_scatter,
)
from .optimize import (
    OptimizationProblem,
    OptimizationResult,
    eliminated_bandwidth,
    fit_tanh_beta,
    grid_oracle,
    optimize_couplings,
    result_to_json,
)

__version__ = "0.1.0"
