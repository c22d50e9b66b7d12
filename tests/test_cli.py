"""CLI runs: outputs, manifests, override precedence, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oemarray
import oemarray.cli as cli
import oemarray.optimize as opt
from oemarray import ConfigError, adiabaticity_margin, config_from_dict, load_config
from oemarray.cli import main
from oemarray.optimize import OptimizationResult


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


# a JSON integer literal that float() cannot convert
HUGE_INT = "1" + "0" * 400

EXPLICIT3 = {
    "schema_version": "1",
    "n_sites": 3,
    "profile": {"kind": "explicit", "pairs": [[0.1, 0.05], [0.08, 0.08], [0.05, 0.1]]},
}

FIG2 = {
    "schema_version": "1",
    "n_sites": 200,
    "profile": {"kind": "tanh", "g_bar1": 0.08, "g_bar2": 0.08, "beta": 4.5},
    "grid": {"omega_max": 2.5, "points": 1201},
}


class TestSpectrum:
    def test_row_count_and_outputs(self, tmp_path):
        out = str(tmp_path / "sp")
        rc = main(["spectrum", "--n", "5", "--omega-max", "2",
                   "--points", "4001", "--out", out])
        assert rc == 0
        header, rows = read_rows(tmp_path / "sp.csv")
        assert header == "omega,re_t21,im_t21,abs2_t21,phase_unwrapped"
        assert len(rows) == 4001
        bw = json.loads((tmp_path / "sp_bandwidth.json").read_text())
        assert bw["fwhm"] > 0
        manifest = json.loads((tmp_path / "sp_manifest.json").read_text())
        assert manifest["command"] == "spectrum"
        assert manifest["outputs"] == [out + ".csv", out + "_bandwidth.json"]

    def test_large_tanh_array_band_exceeds_linewidth(self, tmp_path):
        config = write_config(tmp_path, FIG2)
        out = str(tmp_path / "fig2")
        assert main(["spectrum", "--config", config, "--out", out]) == 0
        bw = json.loads((tmp_path / "fig2_bandwidth.json").read_text())
        assert bw["fwhm"] > 1.0

    def test_flags_override_config_fields(self, tmp_path):
        config = write_config(tmp_path, FIG2)
        out = str(tmp_path / "ovr")
        rc = main(["spectrum", "--config", config, "--n", "4",
                   "--points", "101", "--out", out])
        assert rc == 0
        manifest = json.loads((tmp_path / "ovr_manifest.json").read_text())
        assert manifest["config"]["array"]["n_sites"] == 4
        assert manifest["config"]["grid"]["points"] == 101
        # untouched fields keep their file values
        assert manifest["config"]["grid"]["omega_max"] == 2.5

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        for tag in ("a", "b"):
            main(["spectrum", "--n", "6", "--points", "301",
                  "--out", str(tmp_path / tag)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_manifest_is_unique_and_complete(self, tmp_path):
        main(["spectrum", "--n", "3", "--points", "101",
              "--out", str(tmp_path / "m")])
        manifests = list(tmp_path.glob("*_manifest.json"))
        assert len(manifests) == 1
        doc = json.loads(manifests[0].read_text())
        assert set(doc) == {"command", "tool_version", "schema_version",
                            "config", "duration_seconds", "outputs"}
        assert doc["tool_version"]
        assert doc["duration_seconds"] >= 0

    @pytest.mark.filterwarnings(
        # the first, unlifted evaluation overflows at 1e150 by design
        "ignore:overflow encountered:RuntimeWarning",
        "ignore:invalid value encountered:RuntimeWarning")
    def test_huge_rates_give_the_unit_spectrum(self, tmp_path):
        # every site's cubic terms overflow at 1e150, so each frequency is
        # evaluated lifted down; the spectrum is that of unit rates
        columns = []
        for scale in ("1", "1e150"):
            out = tmp_path / f"s{scale}"
            assert main(["spectrum", "--n", "3", "--g", scale, "--kappa1", scale,
                         "--kappa2", scale, "--omega-max", f"1.5{scale[1:]}",
                         "--points", "301", "--out", str(out)]) == 0
            _, rows = read_rows(tmp_path / f"s{scale}.csv")
            columns.append([float(v) for row in rows for v in row[1:]])
        assert columns[1] == pytest.approx(columns[0], rel=1e-9, abs=1e-11)


class TestExitCodes:
    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": "1", "n_sites": 3,,}')
        rc = main(["spectrum", "--config", str(path),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_missing_schema_version_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, {"n_sites": 3})
        assert main(["spectrum", "--config", path,
                     "--out", str(tmp_path / "x")]) == 2
        assert "schema_version" in capsys.readouterr().err

    def test_unreadable_config_rejected(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("text", [
        '{"schema_version": "1", "n_sites": 3,,}',  # malformed
        '[1, 2]',                                    # not an object
        '{"schema_version": "2", "n_sites": 3}',     # wrong version
        None,                                        # unreadable path
    ])
    def test_config_errors_match_load_config(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_numerical_failure_maps_to_three(self, tmp_path, capsys):
        # zero coupling and zero mechanical damping make the site matrix
        # singular on resonance
        rc = main(["spectrum", "--n", "2", "--g", "0", "--points", "101",
                   "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "numerical" in capsys.readouterr().err

    def test_out_of_range_rates_exit_three(self, tmp_path, capsys):
        # the tanh profile squares g_bar, which overflows a Python float
        rc = main(["spectrum", "--n", "3", "--g", "1e200", "--kappa1", "1e200",
                   "--kappa2", "1e200", "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical" in err
        assert "g_bar" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["noise", "loss", "backscatter", "stokes"])
    def test_singular_site_solve_maps_to_three(self, tmp_path, capsys, command):
        # uncoupled, undamped mechanics: the site's state-space solve is
        # singular on resonance
        points = ["--points", "3"] if command == "noise" else []
        rc = main([command, "--g", "0", "--gamma", "0", *points,
                   "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "numerical" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["loss", "--param", "epsilon", "--values", "0.999999", "--n", "400"],
         "near-singular"),
        (["backscatter", "--ratios", "0.1", "--zeta", "1e300"], "near-singular"),
        (["noise", "--n", "2", "--n-bar", "1e308", "--gamma", "1"],
         "added-noise density is not finite"),
        (["stokes", "--n", "2", "--omega-m", "1e-300"], "Stokes density is not finite"),
    ], ids=["lossy-product", "lossy-link", "noise-strength", "stokes-product"])
    @pytest.mark.filterwarnings("error::RuntimeWarning", "ignore::UserWarning")
    def test_overflow_exits_three_without_files(self, tmp_path, capsys, argv, message):
        # each lossy product or noise density overflows the float range
        assert main([*argv, "--out", str(tmp_path / "x")]) == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_numpy_error_state_is_left_as_found(self, tmp_path):
        # the run silences numpy's warnings for itself only
        before = np.geterr()
        with np.errstate(over="raise"):
            assert main(["stokes", "--n", "2", "--omega-m", "1e-300",
                         "--out", str(tmp_path / "x")]) == 3
            assert np.geterr()["over"] == "raise"
        assert np.geterr() == before

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2

    def test_threads_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["--threads", "2", "optimize", "--n", "2", "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["loss", "--n", "4", "--param", "kappa_int", "--values", "0,nan"],
        ["backscatter", "--n", "4", "--ratios", "0.1,nan"],
        ["backscatter", "--n", "4", "--ratios", "0.1", "--zeta", "inf"],
        ["noise", "--n", "3", "--n-bar", "nan"],
        ["spectrum", "--n", "4", "--gamma", "nan"],
        ["spectrum", "--n", "4", "--omega-max", "inf"],
        ["optimize", "--n", "2", "--gamma-total", "nan"],
    ])
    def test_non_finite_input_exits_two(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,config,message", [
        (["spectrum", "--profile", "linear", "--beta", "3"], None,
         "--beta applies only to the tanh profile"),
        (["spectrum", "--g", "0.1"], EXPLICIT3,
         "--g cannot override an explicit coupling profile"),
        (["loss", "--values", "a,b"], None,
         "--values must be a comma-separated list of numbers: 'a,b'"),
    ], ids=["beta-on-linear", "g-on-explicit", "values-not-numbers"])
    def test_rejected_flags_exit_two(self, tmp_path, capsys, argv, config, message):
        files = [] if config is None else [write_config(tmp_path, config)]
        config_flags = ["--config", files[0]] if files else []
        assert main([*argv, *config_flags, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [str(p) for p in tmp_path.iterdir()] == files

    def test_infeasible_optimization_exits_four(self, tmp_path, monkeypatch, capsys):
        stuck = OptimizationResult(gamma1_per_site=(0.01, 0.04), bandwidth=0.1,
                                   passband_min=0.9, converged=False,
                                   evaluations=1000)
        monkeypatch.setattr(cli, "optimize_couplings",
                            lambda problem, **kw: stuck)
        out = str(tmp_path / "stuck")
        rc = main(["optimize", "--n", "2", "--out", out])
        assert rc == 4
        assert "infeasible" in capsys.readouterr().err
        # the run still leaves its data and manifest behind
        assert json.loads((tmp_path / "stuck.json").read_text())["converged"] is False
        assert (tmp_path / "stuck_manifest.json").exists()

    @pytest.mark.parametrize("argv,code", [
        (["bandwidth-scan", "--n-min", "5", "--n-max", "3"], 2),
        (["spectrum", "--n", "2", "--g", "0", "--points", "101"], 3),
    ])
    def test_failed_runs_write_no_manifest(self, tmp_path, argv, code):
        assert main([*argv, "--out", str(tmp_path / "x")]) == code
        assert list(tmp_path.glob("*_manifest.json")) == []

    def test_failed_scan_leaves_no_partial_csv(self, tmp_path, capsys):
        # with g = 0 the sites are singular on resonance, so the scan fails
        # after its header line
        argv = ["bandwidth-scan", "--n-min", "1", "--n-max", "3", "--g", "0",
                "--points", "101", "--out", str(tmp_path / "scan")]
        assert main(argv) == 3
        assert "numerical" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # an earlier table at the same path is left as it was
        (tmp_path / "scan.csv").write_text("earlier\n")
        assert main(argv) == 3
        assert list(tmp_path.iterdir()) == [tmp_path / "scan.csv"]
        assert (tmp_path / "scan.csv").read_text() == "earlier\n"

    def test_grid_over_memory_budget_rejected_before_running(self, tmp_path, monkeypatch,
                                                             capsys):
        budget = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2
        monkeypatch.setattr(cli, "_BYTES_PER_POINT", budget // 1000)
        rc = main(["spectrum", "--points", "1001", "--out", str(tmp_path / "big")])
        assert rc == 2
        assert "memory budget" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # the budget is half of physical memory: 1000 points still fit
        assert main(["spectrum", "--points", "1000", "--out", str(tmp_path / "fits")]) == 0

    @pytest.mark.parametrize("command,fields,name", [
        ("spectrum", '"grid": {"points": Infinity}', "points"),
        ("spectrum", '"n_sites": Infinity', "n_sites"),
        ("optimize", '"n_sites": Infinity', "n_sites"),
        ("bandwidth-scan", '"n_min": 1e400', "n_min"),
        ("bandwidth-scan", '"n_max": Infinity', "n_max"),
        ("spectrum", '"n_sites": 3.7', "n_sites"),
        ("spectrum", '"grid": {"points": 100.9}', "points"),
        ("spectrum", '"n_sites": true', "n_sites"),
        ("spectrum", '"n_sites": "3"', "n_sites"),
        ("spectrum", '"grid": {"points": "101"}', "points"),
    ])
    def test_non_finite_config_integer_exits_two(self, tmp_path, capsys, command,
                                                 fields, name):
        # int() of an infinity overflows and NaN has no int: both name the field
        path = tmp_path / "cfg.json"
        path.write_text('{"schema_version": "1", ' + fields + "}")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"{name} must be an integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command,fields,name", [
        ("spectrum", '"grid": {"omega_max": %s}' % HUGE_INT, "omega_max"),
        ("optimize", '"gamma_total": %s' % HUGE_INT, "gamma_total"),
        ("stokes", '"omega_m": %s' % HUGE_INT, "omega_m"),
        ("backscatter", '"zeta": %s' % HUGE_INT, "zeta"),
        ("backscatter", '"ratios": [0.1, %s]' % HUGE_INT, "ratios[1]"),
        ("loss", '"values": [0.1, %s]' % HUGE_INT, "values[1]"),
        ("optimize", '"min_efficiency": null', "min_efficiency"),
        ("backscatter", '"ratios": 0.1', "ratios"),
        ("spectrum", '"grid": "x"', "grid"),
        ("spectrum", '"grid": 5', "grid"),
        ("spectrum", '"grid": [1, 2]', "grid"),
        ("spectrum", '"profile": 5', "profile"),
        ("spectrum", '"profile": "tanh"', "profile"),
        ("bandwidth-scan", '"asymmetric": "no"', "asymmetric"),
        ("backscatter", '"fit_alpha": "no"', "fit_alpha"),
        ("spectrum", '"gamma": "abc"', "gamma"),
        ("spectrum", '"n_bar": null', "n_bar"),
        ("spectrum", '"kappa_ref": "abc"', "kappa_ref"),
        ("spectrum", '"kappa1": [1, "abc"]', "kappa1[1]"),
        ("spectrum", '"profile": {"kind": "tanh", "g_bar1": "abc", "g_bar2": 0.08}',
         "profile.g_bar1"),
        ("spectrum", '"gamma": true', "gamma"),
        ("spectrum", '"gamma": "1e-3"', "gamma"),
        ("spectrum", '"grid": {"omega_max": "2.5"}', "omega_max"),
    ], ids=["spectrum-omega_max", "optimize-gamma_total", "stokes-omega_m",
            "backscatter-zeta", "backscatter-ratio", "loss-value",
            "optimize-null-min_efficiency", "backscatter-ratios-not-a-list",
            "grid-string", "grid-number", "grid-list", "profile-number",
            "profile-string", "asymmetric-string", "fit_alpha-string",
            "gamma-string", "null-n_bar", "kappa_ref-string", "kappa1-ramp-end",
            "profile-g_bar1-string", "gamma-boolean", "gamma-numeric-string",
            "omega_max-numeric-string"])
    def test_unconvertible_config_number_exits_two(self, tmp_path, capsys, command,
                                                   fields, name):
        # float() of an integer literal beyond the float range overflows
        path = tmp_path / "cfg.json"
        path.write_text('{"schema_version": "1", ' + fields + "}")
        assert main([command, "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert f"{name} must be a" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("argv", [["spectrum", "--n", "3", "--points", "101"],
                                      ["optimize", "--n", "2"]])
    def test_unwritable_out_path_exits_two(self, tmp_path, capsys, argv):
        out = str(tmp_path / "missing" / "x")
        assert main([*argv, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and out in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
    def test_bad_mechanical_frequency_is_named(self, tmp_path, capsys, value):
        # checked before the grid is centred on it, so the grid is not blamed
        assert main(["stokes", "--n", "2", "--points", "21", f"--omega-m={value}",
                     "--out", str(tmp_path / "x")]) == 2
        assert "omega_m must be finite and > 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# one small run of every subcommand: data files written, manifest keys
MANIFEST_RUNS = {
    "spectrum": (["--n", "3", "--points", "101"], ["{}.csv", "{}_bandwidth.json"],
                 {"array", "grid"}),
    "bandwidth-scan": (["--n-min", "1", "--n-max", "2", "--points", "201"], ["{}.csv"],
                       {"array", "grid", "n_min", "n_max", "asymmetric"}),
    "noise": (["--n", "3", "--points", "51"], ["{}.csv"], {"array", "grid"}),
    "stokes": (["--n", "2", "--gamma", "5e-5", "--points", "21"], ["{}.csv"],
               {"array", "grid", "omega_m"}),
    "loss": (["--n", "3", "--values", "0,0.01"], ["{}.csv"], {"array", "param", "values"}),
    "backscatter": (["--n", "4", "--ratios", "0.02,0.05,0.1,0.15", "--fit-alpha"],
                    ["{}.csv", "{}_alpha.json"], {"array", "ratios", "zeta", "fit_alpha"}),
    "optimize": (["--n", "2"], ["{}.json"], {"problem"}),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_every_subcommand_writes_one_matching_manifest(tmp_path, command):
    flags, outputs, config_keys = MANIFEST_RUNS[command]
    out = str(tmp_path / "run")
    assert main([command, *flags, "--out", out]) == 0
    manifests = list(tmp_path.glob("*_manifest.json"))
    assert manifests == [tmp_path / "run_manifest.json"]
    doc = json.loads(manifests[0].read_text())
    assert doc["command"] == command
    assert doc["outputs"] == [o.format(out) for o in outputs]
    written = sorted(str(p) for p in tmp_path.iterdir() if p not in manifests)
    assert sorted(doc["outputs"]) == written
    assert set(doc["config"]) == config_keys


# flags that no other run sets, as the manifest records them
@pytest.mark.parametrize("argv,section,expected", [
    (["--n", "3", "--beta", "3"], ("array", "profile"),
     {"kind": "tanh", "g_bar1": 0.08, "g_bar2": 0.08, "beta": 3.0}),
    (["--n", "3", "--omega-min", "-1", "--omega-max", "2"], ("grid",),
     {"omega_min": -1.0, "omega_max": 2.0, "points": 101}),
], ids=["beta", "omega_min"])
def test_manifest_echoes_the_resolved_config(tmp_path, argv, section, expected):
    out = str(tmp_path / "run")
    assert main(["spectrum", *argv, "--points", "101", "--out", out]) == 0
    recorded = json.loads((tmp_path / "run_manifest.json").read_text())["config"]
    for key in section:
        recorded = recorded[key]
    assert recorded == expected


def test_explicit_config_round_trips_through_the_manifest(tmp_path):
    path = write_config(tmp_path, EXPLICIT3)
    assert main(["spectrum", "--config", path, "--points", "101",
                 "--out", str(tmp_path / "ex")]) == 0
    recorded = json.loads((tmp_path / "ex_manifest.json").read_text())["config"]["array"]
    assert recorded["profile"] == EXPLICIT3["profile"]
    # the peak coupling of each lane, 0.1, at unit linewidths
    assert adiabaticity_margin(config_from_dict(recorded)) == pytest.approx(
        0.1 * 3 ** 0.5, rel=1e-15)


class TestBandwidthScan:
    def test_comparison_table_columns(self, tmp_path):
        out = str(tmp_path / "scan")
        rc = main(["bandwidth-scan", "--n-min", "1", "--n-max", "3",
                   "--points", "801", "--out", out])
        assert rc == 0
        header, rows = read_rows(tmp_path / "scan.csv")
        assert header == "n,fwhm_numeric,fwhm_eq4,fwhm_linear_fit"
        assert [r[0] for r in rows] == ["1", "2", "3"]
        for r in rows:
            n = int(r[0])
            assert float(r[3]) == pytest.approx(4 * 0.08 ** 2 * n, rel=1e-10)
        numeric = [float(r[1]) for r in rows]
        assert numeric[0] < numeric[1] < numeric[2]

    def test_single_size_range_single_row(self, tmp_path):
        out = str(tmp_path / "one")
        assert main(["bandwidth-scan", "--n-min", "4", "--n-max", "4",
                     "--points", "801", "--out", out]) == 0
        _, rows = read_rows(tmp_path / "one.csv")
        assert len(rows) == 1 and rows[0][0] == "4"

    def test_asymmetric_flag_adds_column(self, tmp_path):
        out = str(tmp_path / "asym")
        rc = main(["bandwidth-scan", "--n-min", "2", "--n-max", "4",
                   "--points", "801", "--asymmetric", "--out", out])
        assert rc == 0
        header, rows = read_rows(tmp_path / "asym.csv")
        assert header.endswith(",fwhm_asymmetric")
        for r in rows:
            # a linewidth mismatch can only narrow the band at these sizes
            assert 0 < float(r[4]) < float(r[1])

    def test_explicit_profile_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "schema_version": "1", "n_sites": 2,
            "profile": {"kind": "explicit", "pairs": [[0.1, 0.1], [0.1, 0.1]]},
        })
        assert main(["bandwidth-scan", "--config", config,
                     "--out", str(tmp_path / "x")]) == 2
        assert "parametric" in capsys.readouterr().err

    def test_inverted_range_rejected(self, tmp_path):
        assert main(["bandwidth-scan", "--n-min", "5", "--n-max", "3",
                     "--out", str(tmp_path / "x")]) == 2


class TestNoise:
    def test_cold_lossless_mechanics_gives_all_zero_table(self, tmp_path):
        out = str(tmp_path / "nz")
        assert main(["noise", "--n", "4", "--points", "51", "--out", out]) == 0
        _, rows = read_rows(tmp_path / "nz.csv")
        assert len(rows) == 51
        assert all(float(r[1]) == 0 and float(r[2]) == 0 for r in rows)

    def test_thermal_bath_lights_up(self, tmp_path):
        out = str(tmp_path / "warm")
        assert main(["noise", "--n", "4", "--gamma", "1e-4", "--n-bar", "10",
                     "--points", "51", "--out", out]) == 0
        _, rows = read_rows(tmp_path / "warm.csv")
        assert max(float(r[1]) for r in rows) > 0


class TestStokes:
    def test_grid_centers_on_mechanical_frequency(self, tmp_path):
        out = str(tmp_path / "st")
        rc = main(["stokes", "--n", "2", "--omega-m", "8", "--gamma", "5e-5",
                   "--points", "21", "--out", out])
        assert rc == 0
        _, rows = read_rows(tmp_path / "st.csv")
        assert float(rows[0][0]) == pytest.approx(6.5)
        assert float(rows[-1][0]) == pytest.approx(9.5)
        assert all(float(r[1]) >= 0 for r in rows)
        manifest = json.loads((tmp_path / "st_manifest.json").read_text())
        assert manifest["config"]["omega_m"] == 8.0

    def test_warning_prints_its_message_alone(self, tmp_path, capsys):
        # no file name, line number or source line of the program
        shown = warnings.showwarning
        assert main(["stokes", "--n", "2", "--points", "21", "--omega-m", "1",
                     "--gamma", "5e-5", "--out", str(tmp_path / "st")]) == 0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("warning: kappa/omega_m = 1 is outside the resolved-sideband")
        assert "cli.py" not in err
        # the printer is local to the run
        assert warnings.showwarning is shown


class TestLossSweep:
    def test_intrinsic_loss_degrades_monotonically(self, tmp_path):
        out = str(tmp_path / "loss")
        assert main(["loss", "--n", "4", "--values", "0,0.01,0.02",
                     "--out", out]) == 0
        _, rows = read_rows(tmp_path / "loss.csv")
        effs = [float(r[2]) for r in rows]
        assert effs[0] > effs[1] > effs[2]

    def test_param_comes_from_config_file(self, tmp_path):
        config = write_config(tmp_path, {
            "schema_version": "1", "n_sites": 3,
            "profile": {"kind": "tanh", "g_bar1": 0.08, "g_bar2": 0.08},
            "param": "epsilon", "values": [0.001, 0.01],
        })
        out = str(tmp_path / "eps")
        assert main(["loss", "--config", config, "--out", out]) == 0
        manifest = json.loads((tmp_path / "eps_manifest.json").read_text())
        assert manifest["config"]["param"] == "epsilon"
        assert manifest["config"]["values"] == [0.001, 0.01]


class TestBackscatter:
    def test_alpha_fit_lands_in_expected_window(self, tmp_path):
        out = str(tmp_path / "bs")
        rc = main(["backscatter", "--ratios", "0.02,0.05,0.1,0.15,0.2",
                   "--n", "10", "--fit-alpha", "--out", out])
        assert rc == 0
        fit = json.loads((tmp_path / "bs_alpha.json").read_text())
        assert 1.4 <= fit["alpha"] <= 1.8
        _, rows = read_rows(tmp_path / "bs.csv")
        assert len(rows) == 5

    def test_out_of_regime_ratios_rejected(self, tmp_path, capsys):
        rc = main(["backscatter", "--ratios", "0.3,0.4,0.5,0.6", "--n", "4",
                   "--fit-alpha", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "linear regime" in capsys.readouterr().err

    @pytest.mark.parametrize("ratios,message", [
        ("0.05,0.1,0.15,0.3", "ratios beyond 0.2 leave the linear regime"),
        ("0.05,0.1,0.15", "need at least 4 sweep points for the slope fit"),
    ], ids=["ratio-above-0.2", "three-ratios"])
    def test_failed_fit_writes_no_table(self, tmp_path, capsys, ratios, message):
        # the fit runs before any file is written, so the table is not left behind
        rc = main(["backscatter", "--n", "3", "--ratios", ratios, "--fit-alpha",
                   "--out", str(tmp_path / "bs")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_envelope_loss_sweep_matches_the_backscatter_table(self, tmp_path):
        # `loss --param kappa_l` reports the envelope that `backscatter` does
        assert main(["loss", "--param", "kappa_l", "--values", "0.05,0.1",
                     "--out", str(tmp_path / "loss")]) == 0
        assert main(["backscatter", "--ratios", "0.05,0.1",
                     "--out", str(tmp_path / "bs")]) == 0
        assert (tmp_path / "loss.csv").read_bytes() == (tmp_path / "bs.csv").read_bytes()


class TestOptimize:
    def test_two_site_run_matches_known_optimum(self, tmp_path):
        out = str(tmp_path / "opt")
        rc = main(["optimize", "--n", "2", "--gamma-total", "0.05",
                   "--min-eff", "0.99", "--out", out])
        assert rc == 0
        doc = json.loads((tmp_path / "opt.json").read_text())
        assert doc["converged"] is True
        assert doc["gamma1"][0] == pytest.approx(0.008, abs=5e-4)
        assert doc["bandwidth"] == pytest.approx(0.332, abs=2e-3)
        manifest = json.loads((tmp_path / "opt_manifest.json").read_text())
        assert manifest["config"] == {"problem": {"n_sites": 2, "gamma_total": 0.05,
                                                  "min_efficiency": 0.99}}

    @pytest.mark.parametrize("n,min_eff", [
        pytest.param("2", "1.0", id="2"), pytest.param("3", "1.0", id="3"),
        pytest.param("6", "1.0", id="6"), pytest.param("200", "0.95", id="200-0.95"),
    ])
    def test_floor_of_one_converges(self, tmp_path, n, min_eff):
        # the largest floor the problem accepts has a feasible profile; at 200
        # sites a trough search on 1201 samples missed a trough and exited 4
        rc = main(["optimize", "--n", n, "--gamma-total", "0.02",
                   "--min-eff", min_eff, "--out", str(tmp_path / "opt")])
        assert rc == 0
        doc = json.loads((tmp_path / "opt.json").read_text())
        assert doc["converged"] is True
        assert doc["passband_min"] >= float(min_eff) - 1e-6

    def test_stalled_solve_reports_a_python_bool(self, tmp_path, monkeypatch):
        # a stalled Newton solve returns numpy's False, which the JSON writer
        # cannot serialize
        solve = opt._equiripple

        def stalled(problem):
            x, evaluations, _ = solve(problem)
            return x, evaluations, np.bool_(False)

        monkeypatch.setattr(opt, "_equiripple", stalled)
        problem = opt.OptimizationProblem(n_sites=3, gamma_total=0.02, min_efficiency=0.95)
        assert opt.optimize_couplings(problem).converged is False
        rc = main(["optimize", "--n", "3", "--gamma-total", "0.02",
                   "--min-eff", "0.95", "--out", str(tmp_path / "opt")])
        assert rc == 4
        assert '"converged": false' in (tmp_path / "opt.json").read_text()

    def test_bad_problem_is_config_error(self, tmp_path):
        assert main(["optimize", "--n", "0",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flag", ["--seed", "--starts"])
    def test_start_flags_are_gone(self, tmp_path, flag):
        # the solve has one start, so there is no restart seed or count
        with pytest.raises(SystemExit) as err:
            main(["optimize", "--n", "2", flag, "1", "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_config_start_keys_are_not_read(self, tmp_path):
        # a config file's seed and starts are ignored, as other commands'
        # keys are: the run and its manifest are those of a config without them
        path = write_config(tmp_path, {"schema_version": "1", "seed": -1, "starts": "x"})
        assert main(["optimize", "--config", path, "--n", "2",
                     "--out", str(tmp_path / "opt")]) == 0
        manifest = json.loads((tmp_path / "opt_manifest.json").read_text())
        assert set(manifest["config"]) == {"problem"}


_COMMON = {"-h", "--help", "--config", "--out"}
_ARRAY = {"--n", "--profile", "--g", "--beta", "--kappa1", "--kappa2", "--gamma"}
_GRID = {"--omega-min", "--omega-max", "--points"}
CLI_OPTIONS = {
    None: {"-h", "--help", "--version"},
    "spectrum": _COMMON | _ARRAY | _GRID,
    "bandwidth-scan": _COMMON | _ARRAY - {"--n"} | _GRID
    | {"--n-min", "--n-max", "--asymmetric"},
    "noise": _COMMON | _ARRAY | _GRID | {"--n-bar"},
    "stokes": _COMMON | _ARRAY | _GRID | {"--omega-m"},
    "loss": _COMMON | _ARRAY | {"--param", "--values"},
    "backscatter": _COMMON | _ARRAY | {"--ratios", "--zeta", "--fit-alpha"},
    "optimize": _COMMON | {"--n", "--gamma-total", "--min-eff"},
}


def test_cli_surface_is_pinned(tmp_path):
    # every option string of the top-level parser (None) and of each subcommand
    parser = cli.build_parser()
    subparsers, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
    parsers = {None: parser, **subparsers.choices}
    assert {name: {s for a in p._actions for s in a.option_strings}
            for name, p in parsers.items()} == CLI_OPTIONS
    # the bath occupation is a flag of `noise` alone ...
    with pytest.raises(SystemExit) as err:
        main(["stokes", "--n", "2", "--points", "21", "--n-bar", "1",
              "--out", str(tmp_path / "st")])
    assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []
    # ... and a config file's n_bar is still read and recorded
    path = write_config(tmp_path, {"schema_version": "1", "n_bar": 5})
    assert main(["spectrum", "--config", path, "--n", "2", "--points", "101",
                 "--out", str(tmp_path / "sp")]) == 0
    manifest = json.loads((tmp_path / "sp_manifest.json").read_text())
    n_bar = manifest["config"]["array"]["n_bar"]
    assert n_bar == 5.0 and isinstance(n_bar, float)


class TestParserReuse:
    """`main` builds its parser once per process and reuses it."""

    def test_two_subcommands_in_one_process(self, tmp_path, monkeypatch):
        assert main(["spectrum", "--n", "3", "--points", "101",
                     "--out", str(tmp_path / "sp")]) == 0

        def no_second_parser():
            raise AssertionError("parser built again")

        monkeypatch.setattr(cli, "build_parser", no_second_parser)
        assert main(["noise", "--n", "3", "--points", "51",
                     "--out", str(tmp_path / "nz")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "nz.csv", "nz_manifest.json", "sp.csv", "sp_bandwidth.json",
            "sp_manifest.json"]

    def test_usage_error_then_good_run(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--n", "three"])
        assert err.value.code == 2
        assert main(["spectrum", "--n", "3", "--points", "101",
                     "--out", str(tmp_path / "ok")]) == 0
        _, rows = read_rows(tmp_path / "ok.csv")
        assert len(rows) == 101

    def test_module_globals_patched_after_first_call_are_used(self, tmp_path,
                                                              monkeypatch):
        assert main(["spectrum", "--n", "2", "--points", "101",
                     "--out", str(tmp_path / "first")]) == 0
        seen = []
        real = cli.conversion_spectrum

        def recording(config, grid):
            seen.append(config.n_sites)
            return real(config, grid)

        monkeypatch.setattr(cli, "conversion_spectrum", recording)
        assert main(["spectrum", "--n", "4", "--points", "101",
                     "--out", str(tmp_path / "second")]) == 0
        assert seen == [4]


_IMPORT_PROBE = """
import json, sys
import oemarray.cli
loaded = [sorted(m for m in ("scipy", "oemarray.optimize") if m in sys.modules)]
rc = [oemarray.cli.main(["spectrum", "--n", "3", "--points", "101", "--out", sys.argv[1]])]
loaded.append(sorted(m for m in ("scipy", "oemarray.optimize") if m in sys.modules))
rc.append(oemarray.cli.main(["optimize", "--n", "3", "--out", sys.argv[2]]))
loaded.append(sorted(m for m in ("scipy", "oemarray.optimize") if m in sys.modules))
print(json.dumps({"rc": rc, "loaded": loaded}))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    # the program needs numpy alone: neither a spectrum nor an optimize run,
    # whose result_to_json also fits the tanh steepness, imports scipy
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oemarray.__file__)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "sp"),
                           str(tmp_path / "opt")],
                          env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["rc"] == [0, 0]
    assert json.loads((tmp_path / "opt.json").read_text())["beta_fit"] is not None
    # oemarray.optimize itself stays eagerly imported: it is public API, and the
    # benchmark reads its import time from an `-X importtime` report of
    # `import oemarray.cli`, which must list the module
    assert result["loaded"] == [["oemarray.optimize"]] * 3


class TestVersion:
    def test_version_prints_tool_and_schema(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "0.1.0" in out and "schema" in out
