"""End-to-end tests of the command line driver and run configuration.

Each case drives main() in process with a throwaway output directory and
checks the three externally visible contracts: exit codes (0 all
certificates pass, 2 certificate failure, 1 operational error), the file
set written per run, and byte determinism of report.json modulo timing.
"""

import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from robinslab import cli, report
from robinslab.cli import main, run
from robinslab.domain import Discretization, ModelParams, SpectralField3
from robinslab.errors import ConfigError
from robinslab.report import (
    load_config,
    parse_config,
    read_norms_csv,
    read_report,
    read_snapshot,
    write_norms_csv,
    write_report,
    write_snapshot,
)
from robinslab.verify import Certificate

A = math.pi
ROOT = Path(__file__).parents[1]

BASE = {
    "params": {"a": A, "nu": 1.0, "gamma": 2.0, "beta": 1.0, "s": 2},
    "disc": {"k_max": 2, "n_z": 128, "l_z": 20.0, "n_t": 5},
    "seed": 3,
    "initial_data": {"w": {"family": "eigenmode", "mode": [1, 1], "amplitude": 1.0}},
}


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = write_config(tmp_path, plotting=True)
        with pytest.raises(ConfigError, match="plotting"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_config(tmp_path, params={"viscosity": 2.0})
        with pytest.raises(ConfigError, match="viscosity"):
            load_config(path)

    def test_missing_required_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(BASE))
        del cfg["params"]["nu"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(ConfigError, match="nu"):
            load_config(path)

    def test_range_violations_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="params"):
            load_config(write_config(tmp_path, params={"nu": -1.0}))
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, disc={"n_z": 2}))
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, seed=-1))

    def test_truncation_tail_checked_at_parse_time(self, tmp_path):
        # e^{-2*3} = 2.5e-3 >> TAIL_TOL: the grid cannot support the decay
        path = write_config(tmp_path, disc={"l_z": 3.0})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{"])
    def test_bad_json_is_a_config_error(self, tmp_path, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_unknown_family_and_kind_rejected(self, tmp_path):
        path = write_config(
            tmp_path, initial_data={"w": {"family": "vortex-sheet"}}
        )
        with pytest.raises(ConfigError, match="family"):
            load_config(path)
        path = write_config(
            tmp_path, initial_data={"w": {"family": "random", "kind": "wavelet"}}
        )
        with pytest.raises(ConfigError, match="kind"):
            load_config(path)

    def test_boolean_is_not_a_number(self, tmp_path):
        path = write_config(tmp_path, params={"nu": True})
        with pytest.raises(ConfigError, match="number"):
            load_config(path)

    @pytest.mark.parametrize("mode", [[True, 1], [1, True], [0, 1], [1.0, 1]])
    def test_eigenmode_index_is_a_positive_integer(self, tmp_path, mode):
        path = write_config(
            tmp_path, initial_data={"w": {"family": "eigenmode", "mode": mode}}
        )
        with pytest.raises(ConfigError, match=r"^initial_data\.w\.mode"):
            load_config(path)

    def test_seed_override(self, tmp_path):
        cfg = load_config(write_config(tmp_path), seed_override=99)
        assert cfg.seed == 99
        assert load_config(write_config(tmp_path)).seed == 3

    def test_parse_rejects_non_record_root(self):
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])

    @pytest.mark.parametrize(
        "section, value",
        [("params", 5), ("params", [1, 2]), ("disc", "fine"), ("initial_data", None)],
    )
    def test_section_that_is_not_an_object_is_config_error(self, section, value):
        cfg = json.loads(json.dumps(BASE))
        cfg[section] = value
        with pytest.raises(ConfigError, match=f"^{section} must be a JSON object"):
            parse_config(cfg)

    @staticmethod
    def readme_example():
        readme = (ROOT / "README.md").read_text()
        schema = readme[readme.index("## Config schema"):]
        return json.loads(re.search(r"```json\n(.*?)```", schema, re.DOTALL).group(1))

    def test_readme_config_example_parses(self):
        example = self.readme_example()
        assert parse_config(example).echo()["disc"] == example["disc"]

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in (ROOT / "configs").glob("*.json")) + ["README"]
    )
    def test_echo_parses_back_to_the_same_config(self, name):
        raw = (
            self.readme_example() if name == "README"
            else json.loads((ROOT / "configs" / name).read_text())
        )
        config = parse_config(raw)
        assert parse_config(config.echo()) == config

    @pytest.mark.parametrize("cls", [ModelParams, Discretization])
    def test_every_record_field_has_a_reader(self, cls):
        for field in dataclasses.fields(cls):
            assert field.type in report._READERS, (cls.__name__, field.name, field.type)


class TestExitCodes:
    def test_picard_zero_data_exits_clean(self, tmp_path):
        path = write_config(
            tmp_path,
            initial_data={"v": {"family": "zero"}, "w": {"family": "zero"}},
        )
        assert main(
            ["--command", "picard", "--config", str(path), "--out", str(tmp_path / "run")]
        ) == 0

    def test_resonant_beta_exits_one_naming_mode(self, tmp_path, capsys):
        resonant = write_config(tmp_path, params={"beta": math.sqrt(2.0)})
        # 1e-9 from mode (1, 1)'s rate sqrt(2): inside RESONANCE_TOL, which
        # every command must honour, not only elliptic
        near = write_config(
            tmp_path, name="near.json", params={"beta": math.sqrt(2.0) + 1e-9}
        )
        runs = [("elliptic", resonant)] + [(c, near) for c in ("elliptic", "picard", "calibrate")]
        for i, (command, path) in enumerate(runs):
            code = main(
                ["--command", command, "--config", str(path), "--out", str(tmp_path / f"run{i}")]
            )
            captured = capsys.readouterr()
            assert code == 1, command
            assert "resonance error" in captured.err
            assert "(1, 1)" in captured.err

    @pytest.mark.parametrize("key", ["resonance_tol", "picard_tol", "tail_tol"])
    def test_config_cannot_set_a_tolerance(self, tmp_path, capsys, key):
        # the tolerances are constants, so no config can loosen a certificate
        path = write_config(tmp_path, tolerances={key: 0.5})
        for command in ("heat", "picard", "calibrate"):
            out = tmp_path / command
            code = main(["--command", command, "--config", str(path), "--out", str(out)])
            assert code == 1, command
            err = capsys.readouterr().err
            assert err == "config error: unknown keys in config: ['tolerances']\n", err
            assert not out.exists()

    def test_sobolev_index_above_two_is_config_error(self, tmp_path, capsys):
        # picard's H^{s+1} norm of v needs z-derivative order s + 1 <= 3
        path = write_config(tmp_path, params={"s": 3})
        for command in ("calibrate", "elliptic", "heat", "picard", "convergence"):
            code = main(
                ["--command", command, "--config", str(path), "--out", str(tmp_path / command)]
            )
            assert code == 1, command
            assert capsys.readouterr().err.startswith("config error"), command

    @pytest.mark.parametrize(
        "retired, message",
        [
            ({"disc": {"quad_nodes": 2}}, "unknown keys in disc: ['quad_nodes']"),
            # every run calibrates its own growth constant, so no config can
            # loosen the growth bound or the Picard horizon
            ({"constants": {"growth_constant": 1e3}}, "unknown keys in config: ['constants']"),
        ],
        ids=["disc-quad_nodes", "constants-growth_constant"],
    )
    def test_retired_keys_are_config_errors(self, tmp_path, capsys, retired, message):
        path = write_config(tmp_path, **retired)
        for command in ("heat", "picard", "calibrate"):
            out = tmp_path / command
            code = main(["--command", command, "--config", str(path), "--out", str(out)])
            assert code == 1, command
            err = capsys.readouterr().err
            assert err == f"config error: {message}\n", err
            assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [("params", "beta", math.nan), ("params", "gamma", math.nan), ("disc", "l_z", math.inf),
         ("params", "beta", 10**400)],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, section, key, value):
        # json writes and reads these as the bare NaN and Infinity literals,
        # and as an integer literal beyond the float range
        path = write_config(tmp_path, **{section: {key: value}})
        for command in ("heat", "picard"):
            out = tmp_path / command
            code = main(["--command", command, "--config", str(path), "--out", str(out)])
            assert code == 1, command
            err = capsys.readouterr().err
            assert err.startswith("config error"), err
            assert f"{section}.{key} must be finite" in err
            assert not out.exists()

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    def test_nonpositive_gamma_is_config_error(self, tmp_path, capsys, gamma):
        path = write_config(tmp_path, params={"gamma": gamma})
        for command in ("heat", "picard", "calibrate"):
            code = main(
                ["--command", command, "--config", str(path), "--out", str(tmp_path / command)]
            )
            assert code == 1, command
            err = capsys.readouterr().err
            assert err.startswith("config error: params: gamma must be positive"), err

    def test_nearby_admissible_beta_succeeds(self, tmp_path):
        path = write_config(tmp_path, params={"beta": math.sqrt(2.0) + 1e-3})
        assert main(
            ["--command", "elliptic", "--config", str(path), "--out", str(tmp_path / "run")]
        ) == 0

    def test_config_error_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, params={"nu": -1.0})
        code = main(
            ["--command", "heat", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_certificate_failure_exits_two(self, tmp_path, capsys):
        # the two heat routes agree to 5e-3 only from n_z ~ 512 up; this
        # coarse random-data run must fail the route certificate honestly
        path = write_config(
            tmp_path,
            disc={"k_max": 2, "n_z": 129, "l_z": 20.0, "n_t": 5},
            initial_data={"w": {"family": "random", "kind": "robin", "amplitude": 1.0}},
        )
        code = main(
            ["--command", "heat", "--config", str(path), "--out", str(tmp_path / "run")]
        )
        assert code == 2
        assert "FAIL heat-route-agreement" in capsys.readouterr().out

    def test_incompatible_heat_data_warns_in_one_stable_line(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            disc={"n_z": 513},
            initial_data={"w": {"family": "random", "kind": "generic", "amplitude": 1.0}},
        )
        main(["--command", "heat", "--config", str(path), "--out", str(tmp_path / "run")])
        assert capsys.readouterr().err == (
            "warning: initial field does not satisfy the Robin wall condition; "
            "propagation continues but wall accuracy degrades\n"
        )

    def test_missing_config_flag_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="--config"):
            run("picard", None, tmp_path / "run")

    def test_eigenmode_outside_band_is_config_error(self, tmp_path, capsys):
        # checked at parse time, so also by the commands that never build the field
        path = write_config(
            tmp_path, initial_data={"w": {"family": "eigenmode", "mode": [9, 9]}}
        )
        for command in ("calibrate", "elliptic", "heat", "picard", "convergence"):
            out = tmp_path / command
            code = main(["--command", command, "--config", str(path), "--out", str(out)])
            assert code == 1, command
            err = capsys.readouterr().err
            assert err.startswith("config error: initial_data.w.mode (9, 9)"), err
            assert not out.exists()

    def test_heat_check_that_raises_keeps_its_certificate_name(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        for check in ("gronwall_energy_check", "growth_bound_check",
                      "transform_oracle_certificate"):
            monkeypatch.setattr(cli, check, boom)
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["--command", "heat", "--config", str(path), "--out", str(out)]) == 2
        certs = read_report(out / "report.json")["certificates"]
        assert [c["name"] for c in certs] == [
            "gronwall-energy", "growth-bound", "heat-route-agreement"
        ]
        assert all(c["details"] == {"error": "RuntimeError: boom"} for c in certs)


class TestRunArtifacts:
    def test_elliptic_writes_report_norms_snapshot(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["--command", "elliptic", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out / "report.json")
        assert report["command"] == "elliptic"
        assert report["config"]["seed"] == 3
        assert {"certificates", "error_budget", "measured_constants",
                "norm_timeseries", "timing"} <= set(report)
        series = read_norms_csv(out / "norms.csv")
        assert list(series) == ["t", "v_norm_hs1", "w_norm_hs", "energy"]
        assert series["t"].shape == (1,)
        assert (out / "snapshots" / "solution.csv").exists()

    def test_heat_norm_rows_match_time_grid(self, tmp_path):
        path = write_config(tmp_path, disc={"n_z": 513, "n_t": 5})
        out = tmp_path / "run"
        assert main(["--command", "heat", "--config", str(path), "--out", str(out)]) == 0
        series = read_norms_csv(out / "norms.csv")
        assert series["t"].shape == (5,)
        np.testing.assert_allclose(series["t"], np.linspace(0.0, 1.0, 5))
        np.testing.assert_allclose(series["energy"], series["w_norm_hs"] ** 2, rtol=1e-15)

    def test_seed_flag_overrides_and_is_echoed(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        main(["--command", "elliptic", "--config", str(path), "--out", str(out),
              "--seed", "42"])
        assert read_report(out / "report.json")["config"]["seed"] == 42

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, seed):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["--command", "heat", "--config", str(path), "--out", str(out),
                     "--seed", seed]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: seed must be a nonnegative integer, got {seed}\n"
        assert not out.exists()

    def test_valid_seed_flag_does_not_hide_an_invalid_config_seed(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, seed=-1), seed_override=3)

    def test_convergence_table_written(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["--command", "convergence", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "sweep,n_z,error"
        assert sum(1 for l in lines if l.startswith("elliptic-eigenfunction")) == 4

    # e^{gamma^2 t} overflows the transform route at any gamma the oracle refuses
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_convergence_fails_the_route_error_its_oracle_refuses(self, tmp_path, capsys):
        # at gamma = 300 the oracle's wall mode outruns the sweep's 500 steps
        path = write_config(tmp_path, params={"gamma": 300.0})
        out = tmp_path / "run"
        assert main(["--command", "convergence", "--config", str(path), "--out", str(out)]) == 2
        assert "FAIL heat-route-error" in capsys.readouterr().out
        certs = read_report(out / "report.json")["certificates"]
        assert [c["name"] for c in certs][-1] == "heat-route-error"
        assert "raise n_steps" in certs[-1]["details"]["error"]

    @pytest.mark.parametrize(
        "command, name, growth_constant",
        # heat takes the ensemble max, which t = 0 pins at 1; picard pads it by 1.25
        [("heat", "heat_eigenmode.json", 1.0), ("picard", "picard_zero.json", 1.25)],
    )
    def test_shipped_config_run_calibrates_its_growth_constant(
        self, tmp_path, command, name, growth_constant
    ):
        path = ROOT / "configs" / name
        out = tmp_path / "run"
        assert main(["--command", command, "--config", str(path), "--out", str(out)]) == 0
        report_json = read_report(out / "report.json")
        assert report_json["measured_constants"]["growth_constant"] == growth_constant
        assert "constants" not in report_json["config"]

    def test_calibrate_reports_both_constants(self, tmp_path):
        path = write_config(tmp_path, disc={"k_max": 2, "n_z": 129})
        out = tmp_path / "run"
        assert main(["--command", "calibrate", "--config", str(path), "--out", str(out)]) == 0
        constants = read_report(out / "report.json")["measured_constants"]
        assert constants["elliptic_constant"] > 0
        assert constants["growth_constant"] >= 1.0

    def test_file_family_roundtrip(self, tmp_path):
        disc = Discretization(k_max=2, n_z=128, l_z=20.0, n_t=5)
        coeffs = np.zeros((2, 2, 128))
        coeffs[0, 0] = np.exp(-2.0 * disc.z)
        field = SpectralField3(coeffs, disc)
        write_snapshot(tmp_path / "w0.csv", field)
        again = read_snapshot(tmp_path / "w0.csv", disc)
        np.testing.assert_array_equal(again.coeffs, field.coeffs)
        path = write_config(
            tmp_path, initial_data={"w": {"family": "file", "path": "w0.csv"}}
        )
        assert main(
            ["--command", "elliptic", "--config", str(path), "--out", str(tmp_path / "run")]
        ) == 0

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "abc", ""])
    def test_bad_snapshot_row_is_config_error(self, tmp_path, capsys, bad):
        disc = Discretization(k_max=2, n_z=128, l_z=20.0, n_t=5)
        coeffs = np.zeros((2, 2, 128))
        coeffs[0, 0] = np.exp(-2.0 * disc.z)
        write_snapshot(tmp_path / "w0.csv", SpectralField3(coeffs, disc))
        lines = (tmp_path / "w0.csv").read_text().splitlines(keepends=True)
        lines[6] = f"1,2,5,{bad}\r\n"
        (tmp_path / "w0.csv").write_text("".join(lines))
        with pytest.raises(ConfigError, match=r"w0\.csv: line 7: "):
            read_snapshot(tmp_path / "w0.csv", disc)
        path = write_config(
            tmp_path, initial_data={"w": {"family": "file", "path": "w0.csv"}}
        )
        capsys.readouterr()
        for command in ("heat", "elliptic", "picard"):
            out = tmp_path / command
            assert main(["--command", command, "--config", str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("config error"), (command, err)
            assert "w0.csv: line 7" in err

    def test_report_writes_non_finite_numbers_as_strings(self, tmp_path):
        write_report(tmp_path / "r.json", {"a": math.nan, "b": [math.inf, np.float64(-math.inf)]})

        def refuse(token):
            raise AssertionError(f"bare {token} in report.json")

        stored = json.loads((tmp_path / "r.json").read_text(), parse_constant=refuse)
        assert stored == {"a": "nan", "b": ["inf", "-inf"]}

    def test_norms_csv_roundtrip_full_precision(self, tmp_path):
        t = [0.0, 1.0 / 3.0]
        v = [math.pi, math.e]
        w = [1.0 / 7.0, 2.0 / 7.0]
        e = [x * x for x in w]
        write_norms_csv(tmp_path / "norms.csv", t, v, w, e)
        series = read_norms_csv(tmp_path / "norms.csv")
        np.testing.assert_array_equal(series["t"], t)
        np.testing.assert_array_equal(series["v_norm_hs1"], v)
        np.testing.assert_array_equal(series["w_norm_hs"], w)
        np.testing.assert_array_equal(series["energy"], e)


class TestVerifyCommand:
    def test_verify_agrees_with_fresh_run(self, tmp_path):
        path = write_config(tmp_path, disc={"n_z": 513, "n_t": 5})
        out = tmp_path / "run"
        assert main(["--command", "heat", "--config", str(path), "--out", str(out)]) == 0
        assert main(["--command", "verify", "--out", str(out)]) == 0
        verify = read_report(out / "verify_report.json")
        names = [c["name"] for c in verify["certificates"]]
        assert "stored-flags-consistent" in names
        assert "gronwall-recheck" in names
        assert all(c["passed"] for c in verify["certificates"])

    def test_verify_detects_tampered_flags(self, tmp_path):
        path = write_config(tmp_path, disc={"n_z": 513, "n_t": 5})
        out = tmp_path / "run"
        main(["--command", "heat", "--config", str(path), "--out", str(out)])
        report = read_report(out / "report.json")
        report["certificates"][0]["passed"] = False
        (out / "report.json").write_text(json.dumps(report))
        assert main(["--command", "verify", "--out", str(out)]) == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_verify_accepts_the_certificate_of_a_check_that_raised(self, tmp_path):
        # at gamma = 300 the oracle refuses its step, so heat-route-error raises
        cfg = json.loads((ROOT / "configs" / "picard_smooth.json").read_text())
        cfg["params"]["gamma"] = 300.0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert main(["--command", "convergence", "--config", str(path), "--out", str(out)]) == 2
        raised = read_report(out / "report.json")["certificates"][-1]
        assert "error" in raised["details"]
        assert (raised["passed"], raised["margin"]) == (False, -1.0)
        main(["--command", "verify", "--out", str(out)])
        verify = read_report(out / "verify_report.json")
        flags = [c for c in verify["certificates"] if c["name"] == "stored-flags-consistent"]
        assert [c["passed"] for c in flags] == [True]

    def test_verify_detects_a_tampered_margin(self, tmp_path):
        out = self.heat_run(tmp_path)
        report = read_report(out / "report.json")
        report["certificates"][0]["margin"] *= 1.0 + 1e-9
        (out / "report.json").write_text(json.dumps(report))
        assert main(["--command", "verify", "--out", str(out)]) == 2
        verify = read_report(out / "verify_report.json")
        flags = [c for c in verify["certificates"] if c["name"] == "stored-flags-consistent"]
        assert [c["measured"] for c in flags] == [1.0]

    @staticmethod
    def overflowing_heat_run(tmp_path):
        # at gamma = 40 the Gronwall allowance overflows and the growth and
        # route checks measure NaN
        path = write_config(tmp_path, params={"gamma": 40.0})
        out = tmp_path / "run"
        with np.errstate(all="ignore"):
            assert main(["--command", "heat", "--config", str(path), "--out", str(out)]) == 2
        return out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["heat", "elliptic"])
    def test_verify_counts_no_mismatch_on_a_stored_nan_margin(self, tmp_path, command):
        out = self.overflowing_heat_run(tmp_path)
        report = read_report(out / "report.json")
        assert "nan" in [c["margin"] for c in report["certificates"]]
        report["command"] = command
        write_report(out / "report.json", report)
        assert main(["--command", "verify", "--out", str(out)]) == 2
        verify = read_report(out / "verify_report.json")
        flags = [c for c in verify["certificates"] if c["name"] == "stored-flags-consistent"]
        assert [(c["measured"], c["passed"]) for c in flags] == [(0.0, True)]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_turns_an_overflowing_gronwall_recheck_into_a_failed_certificate(
        self, tmp_path
    ):
        out = self.overflowing_heat_run(tmp_path)
        assert main(["--command", "verify", "--out", str(out)]) == 2
        verify = read_report(out / "verify_report.json")
        (recheck,) = [c for c in verify["certificates"] if c["name"] == "gronwall-recheck"]
        assert recheck["passed"] is False
        assert recheck["details"] == {"error": "OverflowError: math range error"}

    @pytest.mark.parametrize("stored", [{}, {"command": "picard", "certificates": []}])
    def test_verify_on_report_without_certificates_is_config_error(
        self, tmp_path, capsys, stored
    ):
        out = tmp_path / "run"
        out.mkdir()
        write_report(out / "report.json", stored)
        self.assert_config_error_naming(out, capsys, "report.json")

    def test_verify_without_report_is_config_error(self, tmp_path, capsys):
        assert main(["--command", "verify", "--out", str(tmp_path / "empty")]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [b'{"command": "heat", "certificates": [{"name": "gro', b"not json", b"\xff\xfe"]
    )
    def test_verify_on_unreadable_report_is_config_error(self, tmp_path, capsys, content):
        out = tmp_path / "run"
        out.mkdir()
        (out / "report.json").write_bytes(content)
        assert main(["--command", "verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error"), err
        assert f"{out / 'report.json'}: invalid JSON" in err
        assert not (out / "verify_report.json").exists()

    @staticmethod
    def heat_run(tmp_path):
        path = write_config(tmp_path, disc={"n_z": 513, "n_t": 5})
        out = tmp_path / "run"
        assert main(["--command", "heat", "--config", str(path), "--out", str(out)]) == 0
        return out

    def assert_config_error_naming(self, out, capsys, artifact):
        capsys.readouterr()
        assert main(["--command", "verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {out / artifact}: "), err
        assert not (out / "verify_report.json").exists()

    def test_verify_on_report_that_is_not_an_object_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "report.json").write_text("[]")
        self.assert_config_error_naming(out, capsys, "report.json")

    def test_verify_on_certificate_without_measured_is_config_error(self, tmp_path, capsys):
        out = self.heat_run(tmp_path)
        stored = read_report(out / "report.json")
        del stored["certificates"][1]["measured"]
        write_report(out / "report.json", stored)
        self.assert_config_error_naming(out, capsys, "report.json")

    def test_verify_on_heat_norms_below_two_rows_is_config_error(self, tmp_path, capsys):
        out = self.heat_run(tmp_path)
        lines = (out / "norms.csv").read_text().splitlines(keepends=True)
        (out / "norms.csv").write_text("".join(lines[:2]))
        self.assert_config_error_naming(out, capsys, "norms.csv")


class TestTiming:
    @staticmethod
    def run_phases(tmp_path, command, **disc):
        path = write_config(
            tmp_path,
            disc={"k_max": 2, "n_z": 129, "n_t": 5, **disc},
            initial_data={
                "v": {"family": "random", "kind": "vspace", "amplitude": 0.1},
                "w": {"family": "random", "kind": "robin", "amplitude": 0.05},
            },
        )
        out = tmp_path / "run"
        assert main(["--command", command, "--config", str(path), "--out", str(out)]) == 0
        timing = read_report(out / "report.json")["timing"]
        phases = timing["phase_seconds"]
        assert all(seconds >= 0.0 for seconds in phases.values())
        return phases, timing["total_seconds"]

    def test_picard_reports_nonnegative_phase_seconds_within_the_total(self, tmp_path):
        phases, total = self.run_phases(tmp_path, "picard")
        assert set(phases) == {
            "growth_calibration", "main_solve", "contraction", "apriori",
            "fixed_point_residual", "uniqueness", "uniqueness_solve",
        }
        # the forked second solve overlaps the parent's phases
        concurrent = phases.pop("uniqueness_solve")
        assert concurrent <= total
        assert sum(phases.values()) <= total

    def test_calibrate_reports_nonnegative_phase_seconds_within_the_total(self, tmp_path):
        phases, total = self.run_phases(tmp_path, "calibrate")
        assert set(phases) == {
            "elliptic_calibration", "growth_calibration", "elliptic_held_out",
            "growth_held_out", "held_out_ensembles",
        }
        # the forked held-out ensembles overlap the parent's calibrations
        concurrent = phases.pop("held_out_ensembles")
        assert concurrent <= total
        assert sum(phases.values()) <= total

    @pytest.mark.parametrize(
        "command, n_z, names",
        [
            ("heat", 513, {
                "growth_calibration", "propagation", "gronwall_energy", "growth_bound",
                "heat_route_agreement",
            }),
            ("convergence", 129, {"elliptic_sweep", "heat_sweep"}),
            ("elliptic", 129, {"solve", "residuals", "norms"}),
        ],
    )
    def test_every_command_reports_nonnegative_phase_seconds_within_the_total(
        self, tmp_path, command, n_z, names
    ):
        phases, total = self.run_phases(tmp_path, command, n_z=n_z)
        assert set(phases) == names
        assert sum(phases.values()) <= total


class TestHeapFreeze:
    """main() freezes the import-time heap before it runs or forks."""

    def test_main_freezes_the_heap(self, tmp_path):
        gc.unfreeze()
        assert gc.get_freeze_count() == 0
        path = ROOT / "configs" / "picard_zero.json"
        assert main(["--command", "picard", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert gc.get_freeze_count() > 0

    def test_a_frozen_process_loses_no_output_at_exit(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        config = str(ROOT / "configs" / "picard_zero.json")
        child, in_process = tmp_path / "child", tmp_path / "in_process"

        def robinslab(*args):
            done = subprocess.run(
                [sys.executable, "-m", "robinslab.cli", *args],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            return done.stdout.splitlines()

        picard_lines = robinslab("--command", "picard", "--config", config, "--out", str(child))
        verify_lines = robinslab("--command", "verify", "--out", str(child))
        assert main(["--command", "picard", "--config", config, "--out", str(in_process)]) == 0
        for lines, name in ((picard_lines, "report.json"), (verify_lines, "verify_report.json")):
            certs = [Certificate(**rec) for rec in read_report(child / name)["certificates"]]
            assert certs and all(c.passed for c in certs)
            assert lines == [c.describe() for c in certs]

        def without_timing(out):
            files = {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file() and p.suffix == ".csv"
            }
            report_json = read_report(out / "report.json")
            report_json.pop("timing")
            return report_json, files

        got, want = without_timing(child), without_timing(in_process)
        assert set(got[1]) == {"norms.csv", "snapshots/v_final.csv", "snapshots/omega_final.csv"}
        assert got == want


class TestDeterminism:
    @staticmethod
    def stripped_bytes(path):
        report = read_report(path)
        report.pop("timing")
        return json.dumps(report, sort_keys=True, indent=2).encode()

    @pytest.mark.parametrize("command", ["elliptic", "heat", "picard", "calibrate"])
    def test_same_config_same_seed_same_report(self, tmp_path, command):
        path = write_config(
            tmp_path,
            disc={"k_max": 2, "n_z": 513, "n_t": 5},
            initial_data={
                "v": {"family": "random", "kind": "vspace", "amplitude": 0.1},
                "w": {"family": "random", "kind": "robin", "amplitude": 0.05},
            },
        )
        outs = []
        for stem in ("first", "second"):
            out = tmp_path / stem
            assert main(["--command", command, "--config", str(path), "--out", str(out)]) == 0
            outs.append(out / "report.json")
        assert self.stripped_bytes(outs[0]) == self.stripped_bytes(outs[1])

    def test_different_seed_changes_random_run(self, tmp_path):
        path = write_config(
            tmp_path,
            disc={"n_z": 513, "n_t": 5},
            initial_data={"w": {"family": "random", "kind": "robin", "amplitude": 1.0}},
        )
        first, second = tmp_path / "a", tmp_path / "b"
        main(["--command", "heat", "--config", str(path), "--out", str(first)])
        main(["--command", "heat", "--config", str(path), "--out", str(second),
              "--seed", "77"])
        assert self.stripped_bytes(first / "report.json") != self.stripped_bytes(
            second / "report.json"
        )
