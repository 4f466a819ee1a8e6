"""CLI contract: exit codes, report and CSV formats, option parsing."""

import csv
import importlib
import json

import numpy as np
import pytest

from lurestab.cli import main


@pytest.fixture(scope="module")
def slope_artifacts(tmp_path_factory, data_dir):
    """Run analyze once on the slope example; reuse report and phi files."""
    out = tmp_path_factory.mktemp("cli_slope")
    report = out / "report.json"
    phi = out / "phi.json"
    code = main(
        [
            "analyze",
            str(data_dir / "sys_slope.json"),
            "--out",
            str(report),
            "--phi-out",
            str(phi),
        ]
    )
    return code, report, phi


def test_analyze_exit_code_not_stable(slope_artifacts):
    code, report, phi = slope_artifacts
    assert code == 10
    assert report.exists() and phi.exists()


def test_analyze_report_payload(slope_artifacts):
    _, report, phi = slope_artifacts
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "not_absolutely_stable"
    assert doc["dual"]["rank"] == 1
    phi_doc = json.loads(phi.read_text())
    assert phi_doc["odd"] is False
    assert phi_doc["breakpoints"] == doc["phi"]["breakpoints"]


def test_analyze_stable_exit_zero(capsys, data_dir):
    code = main(["analyze", str(data_dir / "sys_decoupled.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["verdict"] == "absolutely_stable"


def test_analyze_odd_scalar_channel_on_general_band(tmp_path, capsys):
    # odd class with m = 1: the hollow multiplier variable has no coordinates
    path = tmp_path / "odd_m1.json"
    path.write_text(json.dumps({
        "A": [[0.5]], "B": [[0.1]], "C": [[0.1]], "D": [[0.0]],
        "mu": -0.3, "nu": 1.5, "class": "slope_odd",
    }))
    code = main(["analyze", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "absolutely_stable"


def test_analyze_rejects_unstable_plant(capsys, data_dir):
    code = main(["analyze", str(data_dir / "sys_unstable.json")])
    assert code == 1
    assert "input error" in capsys.readouterr().err


def test_analyze_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json")
    assert main(["analyze", str(bad)]) == 1


def test_analyze_rejects_missing_keys(tmp_path, capsys):
    bad = tmp_path / "partial.json"
    bad.write_text(json.dumps({"A": [[0.5]], "B": [[1.0]]}))
    assert main(["analyze", str(bad)]) == 1
    assert "missing" in capsys.readouterr().err


def test_analyze_missing_file_is_input_error(capsys):
    assert main(["analyze", "/nonexistent/system.json"]) == 1


def test_removed_tuning_flag_is_a_usage_error(tmp_path, capsys, data_dir):
    # a margin of 0 would let the primal accept P = M = 0 on this unstable loop
    out = tmp_path / "report.json"
    args = ["analyze", str(data_dir / "sys_slope.json"), "--out", str(out)]
    assert main(args + ["--primal-margin", "0"]) == 1
    assert not out.exists()
    assert "usage:" in capsys.readouterr().err


def test_missing_input_argument_is_a_usage_error(capsys):
    assert main(["analyze"]) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["analyze", "--help"]) == 0
    assert "--phi-out" in capsys.readouterr().out


def test_simulate_csv_contract(tmp_path, data_dir, slope_artifacts):
    _, _, phi = slope_artifacts
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            str(data_dir / "sys_slope.json"),
            "--phi",
            str(phi),
            "--x0=-0.5,-0.5",
            "--steps",
            "20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == [
        "k",
        "x_1",
        "x_2",
        "z_1",
        "z_2",
        "z_3",
        "z_4",
        "w_1",
        "w_2",
        "w_3",
        "w_4",
        "loop_residual",
    ]
    assert len(rows) == 22  # header + 21 states
    assert [r[0] for r in rows[1:]] == [str(k) for k in range(21)]
    # 17 significant digits survive the round trip
    assert float(rows[1][1]) == -0.5


def test_simulate_x0_size_mismatch(capsys, data_dir, slope_artifacts):
    _, _, phi = slope_artifacts
    code = main(
        [
            "simulate",
            str(data_dir / "sys_slope.json"),
            "--phi",
            str(phi),
            "--x0=1.0",
        ]
    )
    assert code == 1


def _no_loop_iteration(monkeypatch):
    """Fail the test on any loop solve."""
    def iterate(*args):
        raise AssertionError("the loop was iterated")

    # the package exports the function simulate under the module's name
    monkeypatch.setattr(importlib.import_module("lurestab.simulate"), "_iterate_loop", iterate)


@pytest.mark.parametrize("x0", ["nan,0", "inf,0", "0,-inf"])
def test_simulate_rejects_a_non_finite_x0(monkeypatch, capsys, data_dir, slope_artifacts, x0):
    _, _, phi = slope_artifacts
    _no_loop_iteration(monkeypatch)
    code = main(["simulate", str(data_dir / "sys_slope.json"), "--phi", str(phi), f"--x0={x0}"])
    assert code == 1
    assert "x0 must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option",
    [["--xmin", "nan"], ["--ymax", "inf"], ["--xmax=-inf"], ["--nx", "0"], ["--ny", "-3"]],
)
def test_field_rejects_a_non_finite_or_empty_grid(monkeypatch, capsys, data_dir, slope_artifacts,
                                                  option):
    _, _, phi = slope_artifacts
    _no_loop_iteration(monkeypatch)
    code = main(["field", str(data_dir / "sys_slope.json"), "--phi", str(phi)] + option)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: the grid")


def test_field_csv_contract(tmp_path, data_dir, slope_artifacts):
    _, _, phi = slope_artifacts
    out = tmp_path / "field.csv"
    code = main(
        [
            "field",
            str(data_dir / "sys_slope.json"),
            "--phi",
            str(phi),
            "--nx",
            "5",
            "--ny",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x1,x2,dx1,dx2"
    assert len(rows) == 1 + 15
    first = rows[1].split(",")
    assert float(first[0]) == -2.0 and float(first[1]) == -2.0


def test_phi_file_round_trip(tmp_path, data_dir):
    # a hand-written phi file drives the same simulate path
    phi = tmp_path / "sat.json"
    phi.write_text(
        json.dumps({"odd": False, "breakpoints": [[-1.0, -1.0], [1.0, 1.0]]})
    )
    code = main(
        [
            "simulate",
            str(data_dir / "sys_decoupled.json"),
            "--phi",
            str(phi),
            "--x0=0.0,0.0",
            "--steps",
            "3",
        ]
    )
    assert code == 0


def test_phi_file_missing_breakpoints(tmp_path, data_dir, capsys):
    phi = tmp_path / "empty.json"
    phi.write_text("{}")
    code = main(
        [
            "simulate",
            str(data_dir / "sys_decoupled.json"),
            "--phi",
            str(phi),
            "--x0=0.0,0.0",
        ]
    )
    assert code == 1


def test_consecutive_calls_parse_fresh_with_one_parser(tmp_path, data_dir, capsys):
    from lurestab.cli import _build_parser

    system = str(data_dir / "sys_decoupled.json")
    phi = tmp_path / "sat.json"
    phi.write_text(json.dumps({"odd": False, "breakpoints": [[-1.0, -1.0], [1.0, 1.0]]}))
    field, report = tmp_path / "field.csv", tmp_path / "report.json"
    base = ["--phi", str(phi)]
    # options given to one call do not carry into the next
    assert main(["field", system, *base, "--nx", "5", "--ny", "3", "--out", str(field)]) == 0
    assert len(field.read_text().splitlines()) == 1 + 5 * 3
    assert main(["field", system, *base]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 21 * 21
    assert main(["simulate", system, *base, "--x0=0.5,0.5", "--steps", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4
    assert main(["analyze", system, "--out", str(report)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["analyze", system]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(report.read_text())
    assert main(["simulate", system, *base, "--x0=0.5,0.5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1001
    # a usage error and --help between calls keep their exit codes
    assert main(["field", system]) == 1
    assert "--phi" in capsys.readouterr().err
    assert main(["simulate", "--help"]) == 0
    assert "--steps" in capsys.readouterr().out
    assert main(["field", system, *base, "--nx", "2", "--ny", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 2
    # all of it through the one parser, built once
    assert _build_parser() is _build_parser()
