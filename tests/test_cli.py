"""Tests for the command-line front end."""

import csv
import io
import json
import math
import os
import signal
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topmonodromy import periods
from topmonodromy.cli import main
from topmonodromy.topsys import TopState, first_integrals
from topmonodromy.tracking import _base_frame, _loop_march

CUSHMAN_ACTION_MATRIX = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
KAPPA1_BLOCK = [[1, 0, 0], [-1, 1, 0], [1, 0, 1]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


def run_cli_strict(capsys, *argv):
    """run_cli, failing on NaN or Infinity in the printed report."""
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out, parse_constant=_not_json)


# one successful run of each command
REPORTS = {
    "simulate": ("--m", "0.5", "--state=0,0,0.7;0,0,0.4", "--t", "0.1", "--dt", "0.01"),
    "invariants": ("--m", "0.5", "--state=0.3,0.2,0.5;0.1,0.2,0.9"),
    "spectral": ("--m", "0.5", "--levels", "0.75,-0.6475,-0.745,0.43"),
    "discriminant": ("--g", "2", "--samples", "3"),
    "monodromy": ("--g", "1", "--loop", "cushman"),
    "actions": ("--point", "0.1,1.2,0.05"),
}

# numbers from outside, each refused with exit 2, strict JSON and no CSV:
# non-finite input, closed forms that leave the float range, a bad u or sign,
# and argparse's own errors (a value that argparse takes for a flag, an
# unknown flag, a missing value)
REFUSED = [
    ("spectral", "--m", "-1", "--levels", "1,2,3,4"),
    ("discriminant", "--g", "2", "--c2-min", "1e-200", "--c2-max", "1e-100"),
    ("discriminant", "--g", "1", "--c", "1", "--u-min", "1e-200", "--u-max", "1e-100"),
    ("discriminant", "--g", "2", "--c2-max", "1e100"),
    ("discriminant", "--g", "1", "--c", "1", "--u-min", "1e200", "--u-max", "1e201"),
    ("discriminant", "--g", "1", "--c", "1", "--u-min=-1e308", "--u-max", "1e308"),
    ("discriminant", "--g", "1", "--c", "nan"),
    ("discriminant", "--g", "2", "--c2-max", "inf"),
    ("actions", "--point=0.3,2.4225,0.3000001", "--area", "nan"),
    ("actions", "--point=0.3,2.4225,0.3000001", "--area", "inf"),
    ("discriminant", "--g", "1", "--c", "1", "--u-min=-1", "--u-max=1", "--samples=3"),
    ("discriminant", "--g", "2", "--sign", "3"),
    ("discriminant", "--g", "1", "--c", "1e300"),
    ("actions", "--point=nan,1,0"),
    ("actions", "--point=inf,1,0"),
    ("discriminant", "--g", "2", "--samples", "100000000000000000000"),
    ("actions", "--point=1e200,1,0"),
    ("actions", "--point=-1e300,1,0"),
    ("invariants", "--m", "-1e300", "--state=1,0,0;0,0,1"),
    ("invariants", "--m", "-inf", "--state=1,0,0;0,0,1"),
    ("actions", "--bogus"),
    ("actions", "--point"),
    ("monodromy", "--g", "1", "--loop", "cushman", "--base=nan,1,0"),
    ("monodromy", "--g", "1", "--loop", "cushman", "--base=0,nan,0"),
]


class TestReports:
    @pytest.mark.parametrize("command", sorted(REPORTS))
    def test_every_report_names_its_schema_command_and_tolerances(
        self, capsys, tmp_path, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        code, data = run_cli_strict(capsys, command, *REPORTS[command])
        assert code == 0
        assert data["schema_version"] == 1
        assert data["command"] == command
        assert isinstance(data["tolerances"], dict)

    @pytest.mark.parametrize(
        "argv",
        [
            ("actions", "--point", "0.1,1.2"),
            ("monodromy", "--g", "1", "--waypoints", "0,1,0;0,3,0;0,1,0"),
            ("actions", "--config", "missing.json"),
        ],
    )
    def test_an_error_report_holds_only_the_schema_and_the_error(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        code, data = run_cli_strict(capsys, *argv)
        assert code != 0
        assert set(data) == {"schema_version", "error"}
        assert data["schema_version"] == 1
        assert set(data["error"]) == {"type", "message"}

    @pytest.mark.parametrize("command", ["simulate", "discriminant"])
    def test_an_unwritable_out_is_an_os_error(self, capsys, tmp_path, command):
        out = tmp_path / "missing" / "out.csv"
        argv = (command, *REPORTS[command], "--out", str(out))
        code, data = run_cli_strict(capsys, *argv)
        assert code == 1
        assert data["error"]["type"] == "OSError"
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", REFUSED)
    def test_outside_numbers_are_refused_without_a_csv(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        code = main(list(argv))
        captured = capsys.readouterr()
        data = json.loads(captured.out, parse_constant=_not_json)
        assert code == 2
        assert set(data) == {"schema_version", "error"}
        assert data["error"]["type"] == "ValidationError"
        assert captured.err == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [("--help",), ("actions", "--help")])
    def test_help_prints_its_text_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 0
        assert captured.out.startswith("usage: topmonodromy")
        assert captured.err == ""


class TestMonodromyCommand:
    def test_cushman_action_matrix(self, capsys):
        code, data = run_cli(
            capsys, "monodromy", "--g", "1", "--loop", "cushman", "--base", "0,1,0"
        )
        assert code == 0
        assert data["matrix"] == CUSHMAN_ACTION_MATRIX
        assert data["basis"] == ["I1", "I2", "I3"]
        assert data["residual"] < 1e-6
        assert data["schema_version"] == 1
        assert data["tolerances"]["quadrature"] == 1e-9

    def test_kappa1_block(self, capsys):
        code, data = run_cli(capsys, "monodromy", "--g", "2", "--loop", "kappa1")
        assert code == 0
        assert data["matrix"] == KAPPA1_BLOCK
        assert data["basis"] == ["gamma1", "gamma3", "gamma_inf"]
        assert data["residual"] < 1e-4

    def test_local_route_matches(self, capsys):
        _, periods = run_cli(capsys, "monodromy", "--g", "1", "--loop", "cushman")
        _, local = run_cli(
            capsys, "monodromy", "--g", "1", "--loop", "cushman", "--route", "local"
        )
        assert local["lattice_matrix"] == periods["lattice_matrix"]
        assert local["permutation"] == periods["permutation"]

    def test_local_route_on_a_waypoint_loop(self, capsys):
        # a custom loop names no stratum; the local route needs none
        loop = ("--g", "1", "--waypoints", "0,1,0;0.2,1.4,0.1;-0.2,1.3,0;0,1,0")
        code, local = run_cli(capsys, "monodromy", *loop, "--route", "local")
        _, periods = run_cli(capsys, "monodromy", *loop)
        assert code == 0
        assert local["route"] == "local"
        assert local["lattice_matrix"] == periods["lattice_matrix"]
        assert local["permutation"] == periods["permutation"]

    def test_waypoint_loop(self, capsys):
        code, data = run_cli(
            capsys,
            "monodromy",
            "--g",
            "1",
            "--waypoints",
            "0,1,0;0.1,1.1,0;-0.1,1.1,0;0,1,0",
        )
        assert code == 0
        assert data["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_loop_through_the_discriminant_fails(self, capsys):
        # a2 = 2 (the double pair +-i) lies half way along the first leg
        code, data = run_cli(
            capsys, "monodromy", "--g", "1", "--waypoints", "0,1,0;0,3,0;0,1,0"
        )
        assert code == 1
        assert data["error"]["type"] == "TrackingError"
        assert data["error"]["message"].startswith("root tracking stalled")

    def test_rerun_is_byte_identical(self, capsys):
        main(["monodromy", "--g", "1", "--loop", "cushman"])
        first = capsys.readouterr().out
        main(["monodromy", "--g", "1", "--loop", "cushman"])
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    @pytest.mark.parametrize("route", ["periods", "local"])
    def test_rerun_from_a_cold_and_a_warm_base_record_is_byte_identical(
        self, capsys, route
    ):
        argv = ["monodromy", "--g", "2", "--loop", "kappa1", "--route", route]
        _base_frame.cache_clear()
        _loop_march.cache_clear()
        main(argv)
        cold = capsys.readouterr().out
        assert _base_frame.cache_info().currsize == 1
        main(argv)
        warm = capsys.readouterr().out
        assert _base_frame.cache_info().hits >= 1
        assert cold.encode() == warm.encode()

    def test_base_mismatch_fails(self, capsys):
        code, data = run_cli(
            capsys, "monodromy", "--g", "1", "--loop", "cushman", "--base", "0,3,0"
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"

    def test_unknown_loop_fails(self, capsys):
        code, data = run_cli(capsys, "monodromy", "--g", "1", "--loop", "moebius")
        assert code == 2
        assert "error" in data

    def test_genus_mismatch_fails(self, capsys):
        code, data = run_cli(capsys, "monodromy", "--g", "2", "--loop", "cushman")
        assert code == 2
        assert data["error"]["type"] == "ValidationError"

    def test_loop_and_waypoints_exclusive(self, capsys):
        code, data = run_cli(
            capsys,
            "monodromy",
            "--g",
            "1",
            "--loop",
            "cushman",
            "--waypoints",
            "0,1,0;0,1.5,0;0,1,0",
        )
        assert code == 2

    def test_env_var_overrides_default_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPMONODROMY_TOL", "1e-7")
        code, data = run_cli(capsys, "monodromy", "--g", "1", "--loop", "cushman")
        assert code == 0
        assert data["tolerances"]["quadrature"] == 1e-7

    def test_bad_env_var_fails(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPMONODROMY_TOL", "huge")
        code, data = run_cli(capsys, "monodromy", "--g", "1", "--loop", "cushman")
        assert code == 2
        assert data["error"]["type"] == "ValidationError"

    def test_zero_orientation_is_rejected(self, capsys):
        code, data = run_cli(
            capsys, "monodromy", "--g", "1", "--loop", "cushman", "--orientation", "0"
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"

    def test_explicit_tol_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("TOPMONODROMY_TOL", "1e-7")
        code, data = run_cli(
            capsys, "monodromy", "--g", "1", "--loop", "cushman", "--tol", "1e-10"
        )
        assert code == 0
        assert data["tolerances"]["quadrature"] == 1e-10

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1", "-inf"])
    def test_out_of_range_tol_fails_before_the_march(self, capsys, monkeypatch, tol):
        def march(*args, **kwargs):
            raise AssertionError("the loop was marched")

        monkeypatch.setattr("topmonodromy.cli.monodromy_periods", march)
        code, data = run_cli(
            capsys, "monodromy", "--g", "1", "--loop", "cushman", f"--tol={tol}"
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"
        assert "--tol" in data["error"]["message"]

    @pytest.mark.parametrize("tol", [0, -1e-9, 2.0, "abc", [1e-9]])
    def test_out_of_range_config_tol_fails(self, capsys, tmp_path, tol):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"g": 1, "loop": "cushman", "tol": tol}))
        code, data = run_cli(capsys, "monodromy", "--config", str(cfg))
        assert code == 2
        assert data["error"]["type"] == "ValidationError"

    def test_config_tol_is_used(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"g": 1, "loop": "cushman", "tol": 1e-8}))
        code, data = run_cli(capsys, "monodromy", "--config", str(cfg))
        assert code == 0
        assert data["tolerances"]["quadrature"] == 1e-8


class TestSimulateCommand:
    def test_equilibrium_trajectory_is_constant(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, data = run_cli(
            capsys,
            "simulate",
            "--m",
            "0.5",
            "--state",
            "0,0,0.7;0,0,0.4",
            "--t",
            "10",
            "--dt",
            "0.01",
            "--out",
            str(out),
        )
        assert code == 0
        assert data["g"] == 1
        assert max(data["drift"].values()) == 0.0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["omega3"]) == 0.7
            assert float(row["gamma_1_3"]) == 0.4
            assert float(row["omega1"]) == 0.0

    def test_drift_report_fields(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, data = run_cli(
            capsys,
            "simulate",
            "--m",
            "0.5",
            "--state",
            "0.3,0.2,0.5;0.1,0.2,0.9",
            "--t",
            "1",
            "--dt",
            "0.001",
            "--out",
            str(out),
        )
        assert code == 0
        assert set(data["drift"]) == {"h_minus1", "h", "h1", "h2"}
        assert max(data["drift"].values()) < 1e-10
        assert data["spectral_drift"] < 1e-10
        assert data["csv"] == str(out)

    @pytest.mark.parametrize("flag", ["--dt", "--every"])
    def test_zero_step_options_are_rejected(self, capsys, tmp_path, flag):
        code, data = run_cli(
            capsys,
            "simulate",
            "--m",
            "0.5",
            "--state",
            "0,0,0.7;0,0,0.4",
            "--t",
            "1",
            flag,
            "0",
            "--out",
            str(tmp_path / "traj.csv"),
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize(
        "flag, value", [("--dt", "nan"), ("--dt", "inf"), ("--t", "nan"), ("--t", "inf")]
    )
    def test_non_finite_span_is_rejected(self, capsys, tmp_path, flag, value):
        out = tmp_path / "traj.csv"
        code, data = run_cli(
            capsys,
            "simulate",
            "--m",
            "0.5",
            "--state",
            "0,0,0.7;0,0,0.4",
            flag,
            value,
            "--out",
            str(out),
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"
        assert "finite" in data["error"]["message"]
        assert not out.exists()

    def test_a_step_count_that_overflows_is_rejected(self, capsys, tmp_path):
        # t / dt is inf here; the default sample interval used to round it
        out = tmp_path / "traj.csv"
        code, data = run_cli(
            capsys,
            "simulate",
            "--m",
            "0.5",
            "--state=0.3,-0.2,0.5;0.1,0.2,0.9",
            "--t",
            "1e300",
            "--dt",
            "1e-10",
            "--out",
            str(out),
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"
        assert "2**53" in data["error"]["message"]
        assert not out.exists()

    def test_a_start_whose_integrals_overflow_is_rejected(self, capsys, tmp_path):
        # h overflows at omega_1 = 1e200; the report carried NaN drifts
        out = tmp_path / "traj.csv"
        code, data = run_cli_strict(
            capsys, "simulate", "--m", "0.5", "--state=1e200,0,0;0,0,0",
            "--t", "0.002", "--dt", "0.001", "--out", str(out),
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"
        assert "not finite" in data["error"]["message"]
        assert not out.exists()

    def test_integrals_that_overflow_later_are_a_blowup(self, capsys, tmp_path):
        # the second dt = 1 step takes gamma to 2.3e215, finite, but h2
        # overflows; the CSV carried inf and the report an Infinity drift
        out = tmp_path / "traj.csv"
        code, data = run_cli_strict(
            capsys, "simulate", "--m", "0.5", "--state=1e5,0,0;0,0,1e5",
            "--t", "2", "--dt", "1", "--out", str(out),
        )
        assert code == 1
        assert data["error"] == {
            "type": "IntegrationBlowupError",
            "message": "first integrals became non-finite at t=2.0",
        }
        assert not out.exists()

    def test_missing_state_fails(self, capsys):
        code, data = run_cli(capsys, "simulate", "--m", "0.5")
        assert code == 2
        assert data["error"]["type"] == "ValidationError"


class TestInvariantsCommand:
    def test_a_state_whose_integrals_overflow_is_rejected(self, capsys):
        code, data = run_cli_strict(
            capsys, "invariants", "--m", "0.5", "--state=1e200,0,0;0,0,0"
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"

    def test_values_match_library(self, capsys):
        code, data = run_cli(
            capsys, "invariants", "--m", "0.5", "--state", "0.3,0.2,0.5;0.1,0.2,0.9"
        )
        assert code == 0
        state = TopState.of(0.5, (0.3, 0.2, 0.5), [(0.1, 0.2, 0.9)])
        levels = first_integrals(state)
        assert data["values"]["h_minus1"] == levels.h_minus1
        assert data["values"]["h"] == levels.h


class TestSpectralCommand:
    def test_from_state(self, capsys):
        code, data = run_cli(
            capsys, "spectral", "--m", "0.5", "--state", "0.3,0.2,0.5;0.1,0.2,0.9"
        )
        assert code == 0
        assert len(data["a"]) == 4
        assert data["factorization_residual"] < 1e-12
        assert data["no_real_branch_points"] is True

    def test_from_levels(self, capsys):
        code, data = run_cli(
            capsys, "spectral", "--m", "0.5", "--levels", "0.75,-0.6475,-0.745,0.43"
        )
        assert code == 0
        assert data["factorization_residual"] is None
        assert data["a"][0] == 1.5

    def test_huge_state_is_classified_without_overflow(self, capsys):
        # the coefficients reach 1e300, so max|coeff|^6 overflows a float;
        # the normalized discriminant of x^4 + 1e300 x^2 + 1e300 underflows
        # to 0, and the exact gcd and Sturm tests place it in C
        code, data = run_cli_strict(
            capsys, "spectral", "--m", "0.5", "--state=1e150,0,0;0,0,1e150"
        )
        assert code == 0
        assert data["a"][1] > 1e299 and data["a"][3] > 1e299
        assert data["no_real_branch_points"] is True

    def test_exactly_one_source(self, capsys):
        code, data = run_cli(capsys, "spectral", "--m", "0.5")
        assert code == 2
        code, data = run_cli(
            capsys,
            "spectral",
            "--m",
            "0.5",
            "--state",
            "0,0,1;0,0,1",
            "--levels",
            "1,1,1,1",
        )
        assert code == 2


class TestDiscriminantCommand:
    def test_section_csv_and_points(self, capsys, tmp_path):
        out = tmp_path / "sec.csv"
        code, data = run_cli(
            capsys, "discriminant", "--g", "1", "--c", "0", "--out", str(out)
        )
        assert code == 0
        kinds = {p["kind"] for p in data["special_points"]}
        assert kinds == {
            "isolated-complex-double-pair",
            "two-real-double-roots-crossing",
        }
        with open(out, newline="") as fh:
            header = fh.readline().strip()
        assert header == "u,a1,a2"
        assert data["samples"] == 61

    def test_branch_csv(self, capsys, tmp_path):
        out = tmp_path / "branch.csv"
        code, data = run_cli(
            capsys,
            "discriminant",
            "--g",
            "2",
            "--sign",
            "-1",
            "--samples",
            "11",
            "--out",
            str(out),
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 11
        assert set(rows[0]) == {"c2", "a", "b", "c"}

    def test_zero_range_start_is_not_replaced(self, capsys, tmp_path):
        # The section is undefined at u = 0; an explicit --u-min 0 must reach
        # it and be rejected rather than fall back to the default 0.2.
        code, data = run_cli(
            capsys,
            "discriminant",
            "--g",
            "1",
            "--c",
            "0",
            "--u-min",
            "0",
            "--u-max",
            "3",
            "--samples",
            "4",
            "--out",
            str(tmp_path / "sec.csv"),
        )
        assert code == 2
        assert data["error"]["type"] == "ValidationError"
        assert "u must be nonzero" in data["error"]["message"]

    def test_needs_c_for_genus_one(self, capsys):
        code, data = run_cli(capsys, "discriminant", "--g", "1")
        assert code == 2


class TestActionsCommand:
    def test_cross_check(self, capsys):
        code, data = run_cli(capsys, "actions", "--point", "0.1,1.2,0.05")
        assert code == 0
        assert data["cross_check_residual"] < 1e-8
        assert data["I1"] > 0
        assert data["I2"] == pytest.approx(0.05)
        assert data["I3"] == pytest.approx(0.025)

    def test_cross_check_holds_on_the_plane_a1_eq_a3(self, capsys):
        # u = +1 is a root of the cubic form on this plane
        point = "-1.3828034002325569,2.9336608602621728,-1.3828034002325569"
        code, data = run_cli(capsys, "actions", f"--point={point}")
        assert code == 0
        assert data["cross_check_residual"] <= data["tolerances"]["cross_check"]

    def test_area_scales(self, capsys):
        _, one = run_cli(capsys, "actions", "--point", "0.1,1.2,0.05")
        _, two = run_cli(capsys, "actions", "--point", "0.1,1.2,0.05", "--area", "2")
        assert two["I1"] == pytest.approx(2 * one["I1"])

    def test_zero_area_is_kept(self, capsys):
        code, data = run_cli(
            capsys, "actions", "--point", "0.1,1.2,0.05", "--area", "0"
        )
        assert code == 0
        assert data["area"] == 0.0
        assert data["I1"] == 0.0
        assert data["I2"] == 0.0

    def test_bad_point_fails(self, capsys):
        code, data = run_cli(capsys, "actions", "--point", "0.1,1.2")
        assert code == 2

    def test_the_complex_double_pair_is_degenerate(self, capsys):
        # (x^2 + 1)^2: no real roots, so not outside C, but a repeated root
        code = main(["actions", "--point=0,2,0"])
        captured = capsys.readouterr()
        data = json.loads(captured.out, parse_constant=_not_json)
        assert code == 1
        assert data["error"]["type"] == "DegenerateInputError"
        assert captured.err == ""

    def test_both_routes_share_one_sturm_count(self, capsys, monkeypatch):
        counts = []
        count = periods.real_root_count

        def counting(p):
            counts.append(p)
            return count(p)

        monkeypatch.setattr(periods, "real_root_count", counting)
        periods._point_record.cache_clear()
        code, _ = run_cli(capsys, "actions", "--point", "0.1,1.2,0.05")
        assert code == 0
        assert len(counts) == 1


class TestConfigFile:
    def test_config_supplies_options(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"point": "0.1,1.2,0.05", "area": 1.0}))
        code, data = run_cli(capsys, "actions", "--config", str(cfg))
        assert code == 0
        assert data["I2"] == pytest.approx(0.05)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"point": "0.1,1.2,0.05", "area": 1.0}))
        code, data = run_cli(
            capsys, "actions", "--config", str(cfg), "--area", "2"
        )
        assert code == 0
        assert data["area"] == 2.0

    def test_unknown_config_key_fails(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"point": "0.1,1.2,0.05", "colour": "red"}))
        code, data = run_cli(capsys, "actions", "--config", str(cfg))
        assert code == 2
        assert "colour" in data["error"]["message"]

    def test_config_waypoint_lists(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {
                    "g": 1,
                    "waypoints": [[0, 1, 0], [0.1, 1.1, 0], [-0.1, 1.1, 0], [0, 1, 0]],
                }
            )
        )
        code, data = run_cli(capsys, "monodromy", "--config", str(cfg))
        assert code == 0
        assert data["matrix"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize(
        "extra",
        [{"g": 1.7}, {"g": True}, {"orientation": -1.9}, {"orientation": "x"}, {"route": "x"}],
    )
    def test_config_values_are_typed_like_flags(self, capsys, tmp_path, extra):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"g": 1, "loop": "cushman", **extra}))
        code, data = run_cli(capsys, "monodromy", "--config", str(cfg))
        assert code == 2
        assert data["error"]["type"] == "ValidationError"
        assert next(iter(extra)) in data["error"]["message"]

    @pytest.mark.parametrize(
        "command, config",
        [
            ("actions", {"point": ["a", 2.5, 0.1]}),
            ("actions", {"point": [None, 2.5, 0.1]}),
            ("monodromy", {"g": 1, "waypoints": [[0, 1, 0], [0, "x", 0], [0, 1, 0]]}),
            ("simulate", {"m": 1.0, "state": [[0.1, 0.2, 0.3], [0.5, [], 0.1]]}),
        ],
    )
    def test_config_lists_of_non_numbers_fail(self, capsys, tmp_path, command, config):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        code, data = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert data["error"]["type"] == "ValidationError"
        assert "number list" in data["error"]["message"]

    def test_broken_config_fails(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text("{not json")
        code, data = run_cli(capsys, "actions", "--config", str(cfg))
        assert code == 2


# The boundary property: argvs built from extreme floats, run in process
# through main.  simulate and monodromy are left out, since one example of
# either runs a whole integration or march.
EXTREMES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-8, 0.5, 1.0, -1.0, 2.0, 1e8, 1e150,
    1e300, -1e300, sys.float_info.max, -sys.float_info.max,
    math.nan, math.inf, -math.inf,
)
# The error types an example may exit 1 with, each with the ROADMAP item
# that tracks it or the reason it is a documented refusal.
EXIT_1_TYPES = {
    "RootFindingError": "ROADMAP item 18: the cold root finder at extreme scales",
    "QuadratureError": "ROADMAP item 17: the contour action route on all of C",
    "NearDiscriminantError": "a documented refusal: a point too close to the discriminant",
    "DegenerateInputError": "a documented refusal: a degenerate point",
}
EXAMPLE_SECONDS = 10


def _numbers(count):
    """count values of EXTREMES, comma-separated."""
    values = st.lists(st.sampled_from(EXTREMES), min_size=count, max_size=count)
    return values.map(lambda vs: ",".join(map(repr, vs)))


@st.composite
def _option(draw, flag, text):
    """flag and its value, as --flag=value or as --flag value."""
    return [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]


@st.composite
def _state(draw):
    g = draw(st.sampled_from((1, 2)))
    return ";".join(draw(_numbers(3)) for _ in range(g + 1))


@st.composite
def _argv(draw, command, out):
    argv = [command]
    if command == "actions":
        argv += draw(_option("--point", draw(_numbers(3))))
        if draw(st.booleans()):
            argv += draw(_option("--area", draw(_numbers(1))))
    elif command == "invariants":
        argv += draw(_option("--m", draw(_numbers(1))))
        argv += draw(_option("--state", draw(_state())))
    elif command == "spectral":
        argv += draw(_option("--m", draw(_numbers(1))))
        if draw(st.booleans()):
            argv += draw(_option("--state", draw(_state())))
        else:
            count = draw(st.sampled_from((4, 6)))
            argv += draw(_option("--levels", draw(_numbers(count))))
    else:
        g = draw(st.sampled_from((1, 2)))
        argv += ["--g", str(g), "--samples", "3", f"--out={out}"]
        flags = ("--c", "--u-min", "--u-max") if g == 1 else ("--c2-min", "--c2-max")
        for flag in flags:
            if flag == "--c" or draw(st.booleans()):
                argv += draw(_option(flag, draw(_numbers(1))))
    return argv


def _alarm(signum, frame):
    raise AssertionError(f"an example ran past {EXAMPLE_SECONDS} s")


class TestBoundaryProperty:
    @pytest.mark.parametrize("command", ["actions", "invariants", "spectral", "discriminant"])
    def test_extreme_numbers_give_a_report_or_a_typed_refusal(self, command):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "out.csv")

            @settings(derandomize=True, deadline=None, database=None, max_examples=100)
            @given(_argv(command, out))
            def check(argv):
                stdout, stderr = io.StringIO(), io.StringIO()
                previous = signal.signal(signal.SIGALRM, _alarm)
                signal.alarm(EXAMPLE_SECONDS)
                try:
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        code = main(argv)
                finally:
                    signal.alarm(0)
                    signal.signal(signal.SIGALRM, previous)
                data = json.loads(stdout.getvalue(), parse_constant=_not_json)
                assert isinstance(data, dict)
                assert stderr.getvalue() == ""
                assert code in (0, 1, 2)
                if code == 0:
                    assert data["command"] == command
                else:
                    assert set(data) == {"schema_version", "error"}
                    assert not os.path.exists(out)
                if code == 1:
                    assert data["error"]["type"] in EXIT_1_TYPES, data["error"]
                if os.path.exists(out):
                    os.remove(out)

            check()
