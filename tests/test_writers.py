"""Byte-exact data-file formats: every CSV and JSON writer on a tiny input.

CSV: LF endings, one header line, numbers at 12 significant digits.  JSON:
two-space indent and a final LF; the optimizer and alpha-fit documents sort
their keys, the others keep insertion order.
"""

import types
from dataclasses import replace

import numpy as np
import pytest

import oemarray.cli as cli
from oemarray.core import _write_csv
from oemarray import (ArrayConfig, BandwidthResult, CouplingProfile,
                      FrequencyGrid, NoiseSpectrum, OptimizationProblem,
                      OptimizationResult, Spectrum, StokesSpectrum,
                      added_noise_spectrum, alpha_fit_to_json,
                      bandwidth_to_json, conversion_spectrum, noise_to_csv,
                      result_to_json, spectrum_to_csv, stokes_noise_spectrum,
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


# ---------------------------------------------------------------------------
# the row formatter against the per-number formula it replaced

def _old_write_csv(path, header, rows):
    """The former `_write_csv` body, verbatim: one f-string per number."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


def _random_doubles(rng, n):
    """``n`` float64 values from random bit patterns, plus the edge cases."""
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
             np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max,
             np.inf, -np.inf, np.nan, -np.nan, 1e16, 123456789012.5, 0.1]
    return np.concatenate([bits.view(np.float64), edges])


def test_row_format_matches_per_number_formula(tmp_path):
    rng = np.random.default_rng(20261018)
    values = _random_doubles(rng, 40_000)
    rows = list(zip(*(rng.permutation(values).tolist() for _ in range(4))))
    # every kind of number a writer is handed: Python and numpy scalars
    with np.errstate(over="ignore"):  # float32 of a large double is inf
        rows += [(np.float64(v), np.float32(v), np.int64(k), k) for v, k in
                 zip(values[:2000], rng.integers(-2**62, 2**62, 2000).tolist())]
    rows += [(True, 0, -7, 2**80), (np.int32(-3), np.uint8(200), 10**15 + 1, -0.0)]
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    _write_csv(new, "a,b,c,d", rows)
    _old_write_csv(old, "a,b,c,d", rows)
    assert new.read_bytes() == old.read_bytes()


def test_row_format_streams_generator_rows(tmp_path):
    produced = []

    def rows():
        for n in range(3):
            produced.append(n)
            yield [n, n / 3]

    path = tmp_path / "gen.csv"
    _write_csv(path, "n,x", rows())
    assert produced == [0, 1, 2]
    assert path.read_bytes() == b"n,x\n0,0\n1,0.333333333333\n2,0.666666666667\n"


@pytest.mark.parametrize("bad_row", [(1.0,), (1.0, 2.0, 3.0)])
def test_row_of_wrong_width_leaves_no_file(tmp_path, bad_row):
    path = tmp_path / "w.csv"
    with pytest.raises(TypeError):
        _write_csv(path, "a,b", [(0.5, 1.5), bad_row, (2.5, 3.5)])
    assert list(tmp_path.iterdir()) == []


def _old_spectrum_to_csv(spectrum, path):
    """The former `spectrum_to_csv`, verbatim: numpy scalars indexed one by one."""
    w = spectrum.grid.points()
    t = spectrum.t21
    phase = np.unwrap(np.angle(t))
    _old_write_csv(path, "omega,re_t21,im_t21,abs2_t21,phase_unwrapped",
                   ((w[i], t[i].real, t[i].imag, abs(t[i]) ** 2, phase[i])
                    for i in range(len(w))))


def _random_config(rng):
    n = int(rng.integers(1, 201))
    g1, g2 = rng.uniform(0.02, 0.2, size=2)
    if rng.random() < 0.5:
        profile = CouplingProfile.tanh(g1, g2, beta=rng.uniform(1.0, 6.0))
    else:
        profile = CouplingProfile.linear(g1, g2)
    k1, k2 = rng.uniform(0.5, 2.0, size=2)
    return ArrayConfig(n_sites=n, profile=profile, kappa1=k1, kappa2=k2,
                       gamma=float(rng.choice([0.0, rng.uniform(1e-6, 1e-3)])),
                       n_bar=float(rng.uniform(0.0, 100.0)))


def test_spectrum_csv_matches_indexed_formula(tmp_path):
    rng = np.random.default_rng(7)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    for _ in range(24):
        half = rng.uniform(0.5, 3.0)
        grid = FrequencyGrid(-half * rng.uniform(0.5, 1.5), half, 1201)
        sp = conversion_spectrum(_random_config(rng), grid)
        spectrum_to_csv(sp, new)
        _old_spectrum_to_csv(sp, old)
        assert new.read_bytes() == old.read_bytes()


def test_noise_and_stokes_csv_match_zipped_arrays(tmp_path):
    rng = np.random.default_rng(11)
    config = replace(_random_config(rng), n_sites=12, gamma=5e-5)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"

    sp = added_noise_spectrum(config, FrequencyGrid(-2.0, 2.0, 1201))
    noise_to_csv(sp, new)
    _old_write_csv(old, "omega,s_add_port1,s_add_port2",
                   zip(sp.grid.points(), sp.s_add_1, sp.s_add_2))
    assert new.read_bytes() == old.read_bytes()

    st = stokes_noise_spectrum(replace(config, n_sites=4), 10.0,
                               FrequencyGrid(8.5, 11.5, 1201))
    stokes_to_csv(st, new)
    _old_write_csv(old, "omega,stokes_density", zip(st.grid.points(), st.density))
    assert new.read_bytes() == old.read_bytes()
