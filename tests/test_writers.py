"""Byte-exact data-file formats: every CSV and JSON writer on a tiny input.

CSV: LF endings, one header line, numbers at 12 significant digits.  JSON:
two-space indent and a final LF; the optimizer and alpha-fit documents sort
their keys, the others keep insertion order.
"""

import types

import numpy as np

import oemarray.cli as cli
from oemarray import (BandwidthResult, FrequencyGrid, NoiseSpectrum,
                      OptimizationProblem, OptimizationResult, Spectrum,
                      StokesSpectrum, alpha_fit_to_json, bandwidth_to_json,
                      noise_to_csv, result_to_json, spectrum_to_csv,
                      stokes_to_csv, sweep_to_csv)

GRID = FrequencyGrid(-1.0, 1.0, 3)


def test_spectrum_csv(tmp_path):
    path = tmp_path / "s.csv"
    t21 = np.array([0.1 + 0.2j, 1 / 3 - 1j / 7, -0.5 + 0j])
    spectrum_to_csv(Spectrum(grid=GRID, t21=t21), path)
    assert path.read_bytes() == (
        b"omega,re_t21,im_t21,abs2_t21,phase_unwrapped\n"
        b"-1,0.1,0.2,0.05,1.10714871779\n"
        b"0,0.333333333333,-0.142857142857,0.131519274376,-0.404891786285\n"
        b"1,-0.5,0,0.25,-3.14159265359\n")


def test_noise_csv(tmp_path):
    path = tmp_path / "n.csv"
    noise_to_csv(NoiseSpectrum(grid=GRID, s_add_1=np.array([1 / 3, 2.0, 1e-20]),
                               s_add_2=np.array([0.0, 2 / 7, 12345.678901234])), path)
    assert path.read_bytes() == (
        b"omega,s_add_port1,s_add_port2\n"
        b"-1,0.333333333333,0\n"
        b"0,2,0.285714285714\n"
        b"1,1e-20,12345.6789012\n")


def test_stokes_csv(tmp_path):
    path = tmp_path / "st.csv"
    stokes_to_csv(StokesSpectrum(grid=GRID, density=np.array([1 / 3, 0.0, 5e-9])), path)
    assert path.read_bytes() == (
        b"omega,stokes_density\n-1,0.333333333333\n0,0\n1,5e-09\n")


def test_sweep_csv(tmp_path):
    path = tmp_path / "sw.csv"
    sweep_to_csv([(0.0, 1 / 3), (0.05, 0.9876543210987)], path)
    assert path.read_bytes() == (
        b"param,omega,abs2_t21\n0,0,0.333333333333\n0.05,0,0.987654321099\n")
    sweep_to_csv([(0.1, 2 / 3)], path, omega=0.25)
    assert path.read_bytes() == b"param,omega,abs2_t21\n0.1,0.25,0.666666666667\n"


def test_bandwidth_scan_csv(tmp_path, monkeypatch):
    # a stand-in width keeps the table's values fixed; the closed-form
    # columns are computed as in a real run
    monkeypatch.setattr(cli, "conversion_spectrum", lambda config, grid: config)
    monkeypatch.setattr(cli, "extract_bandwidth", lambda config: types.SimpleNamespace(
        fwhm=config.n_sites / 3 + config.kappa2 / 7))
    out = tmp_path / "scan"
    assert cli.main(["bandwidth-scan", "--n-min", "1", "--n-max", "3", "--g", "0.3",
                     "--asymmetric", "--out", str(out)]) == 0
    assert (tmp_path / "scan.csv").read_bytes() == (
        b"n,fwhm_numeric,fwhm_eq4,fwhm_linear_fit,fwhm_asymmetric\n"
        b"1,0.47619047619,0.553645891304,0.36,1.7619047619\n"
        b"2,0.809523809524,0.697550112641,0.72,2.09523809524\n"
        b"3,1.14285714286,0.798495548835,1.08,2.42857142857\n")


def test_bandwidth_json(tmp_path):
    path = tmp_path / "bw.json"
    result = BandwidthResult(fwhm=1 / 3, omega_lo=-1 / 6, omega_hi=1 / 6,
                             peak_value=0.999, passband_min=0.9)
    doc = bandwidth_to_json(result, path)
    assert list(doc) == ["fwhm", "omega_lo", "omega_hi", "peak_value", "passband_min"]
    assert path.read_bytes() == (
        b'{\n  "fwhm": 0.3333333333333333,\n  "omega_lo": -0.16666666666666666,\n'
        b'  "omega_hi": 0.16666666666666666,\n  "peak_value": 0.999,\n'
        b'  "passband_min": 0.9\n}\n')


def test_alpha_fit_json_sorts_keys(tmp_path):
    path = tmp_path / "alpha.json"
    text = alpha_fit_to_json({"stderr": 1e-17, "alpha": 1 / 3, "points_used": 5}, path)
    assert text == ('{\n  "alpha": 0.3333333333333333,\n  "points_used": 5,\n'
                    '  "stderr": 1e-17\n}')
    assert path.read_bytes() == text.encode() + b"\n"
    assert alpha_fit_to_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}'


def test_result_json_sorts_keys(tmp_path):
    path = tmp_path / "opt.json"
    problem = OptimizationProblem(n_sites=2, gamma_total=0.02, min_efficiency=0.95)
    result = OptimizationResult(gamma1_per_site=(0.002, 0.02 / 3), bandwidth=1 / 30,
                                passband_min=0.96, converged=True, evaluations=7)
    result_to_json(problem, result, path)
    assert path.read_bytes() == (
        b'{\n  "bandwidth": 0.03333333333333333,\n  "beta_fit": null,\n'
        b'  "converged": true,\n  "gamma1": [\n    0.002,\n'
        b'    0.006666666666666667\n  ],\n  "gamma_total": 0.02,\n'
        b'  "min_efficiency": 0.95,\n  "n": 2,\n  "passband_min": 0.96\n}\n')


def test_manifest_json(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 2.5))
    path = cli._write_manifest(str(tmp_path / "run"), "spectrum", {"x": 1 / 3, "n": 2},
                               ["a.csv"], started=1.25)
    assert path == str(tmp_path / "run_manifest.json")
    assert (tmp_path / "run_manifest.json").read_bytes() == (
        b'{\n  "command": "spectrum",\n  "tool_version": "0.1.0",\n'
        b'  "schema_version": "1",\n  "config": {\n    "x": 0.3333333333333333,\n'
        b'    "n": 2\n  },\n  "duration_seconds": 1.25,\n  "outputs": [\n'
        b'    "a.csv"\n  ]\n}\n')
