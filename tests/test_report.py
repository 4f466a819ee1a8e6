"""Canonical serialization and the analysis verdicts on the examples."""

import ast
import dataclasses
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lurestab
from lurestab import NonlinearityClass, SlopeBand, StateSpaceSystem, analyze
from lurestab.cli import main
from lurestab.errors import AssumptionViolatedError, CertificateInconsistentError
from lurestab.pwl import PiecewiseLinearMap
from lurestab.report import _equilibrium_check, canonical_json


def test_canonical_json_floats_are_16e():
    out = canonical_json({"x": 1.0})
    assert '"x": 1.0000000000000000e+00\n' in out
    assert out.endswith("\n")


def test_canonical_json_sorts_keys():
    out = canonical_json({"b": 1, "a": 2, "c": 0})
    ia, ib, ic = out.index('"a"'), out.index('"b"'), out.index('"c"')
    assert ia < ib < ic


def test_canonical_json_roundtrips_values():
    payload = {
        "pi": float(np.pi),
        "flag": True,
        "none": None,
        "arr": np.array([[1.0, 2.0], [3.0, 4.0]]),
        "n": np.int64(7),
    }
    parsed = json.loads(canonical_json(payload))
    assert parsed["pi"] == float(np.pi)  # .16e keeps doubles exactly
    assert parsed["flag"] is True
    assert parsed["none"] is None
    assert parsed["arr"] == [[1.0, 2.0], [3.0, 4.0]]
    assert parsed["n"] == 7


def test_canonical_json_is_byte_stable():
    payload = {"a": [1.5, 2.5], "b": {"c": -0.125}}
    assert canonical_json(payload) == canonical_json(payload)


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_json({"bad": float("nan")})
    with pytest.raises(ValueError):
        canonical_json({"bad": float("inf")})


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json({"obj": object()})


def test_slope_example_verdict(slope_report):
    rep = slope_report
    assert rep.verdict == "not_absolutely_stable"
    # G has the real eigenvalue 17.3: the primal is not solved
    assert rep.primal is None
    assert rep.diagnostics["pipeline"]["linear_equilibrium"] > 1.0
    assert "primal_status" not in rep.diagnostics["pipeline"]
    assert rep.dual["status"] == "feasible"
    assert rep.dual["rank"] == 1
    assert rep.phi is not None and not rep.phi.odd
    pipe = rep.diagnostics["pipeline"]
    assert pipe["slope_check"]["ok"]
    eq = pipe["equilibrium_check"]
    assert eq["ok"]
    assert eq["state_residual"] <= eq["state_bound"]
    assert eq["loop_residual"] <= eq["loop_bound"]
    assert rep.diagnostics["tolerances"]["equilibrium_check_tol"] == 1.0e-9
    # the report echoes the constants the gates read, and nothing settable
    engine = lurestab.engine
    assert rep.diagnostics["tolerances"] == {
        "tol_rank": engine.TOL_RANK,
        "tol_eq": engine.TOL_EQ,
        "primal_margin": engine.PRIMAL_MARGIN,
        "cone_tol": engine.CONE_TOL,
        "max_ipm_iters": lurestab.conic.MAX_ITERS,
        "equilibrium_check_tol": lurestab.report._EQ_CHECK_TOL,
    }
    assert "seed" not in rep.diagnostics


def test_equilibrium_check_rejects_a_state_equation_miss():
    # h = (h1, h2) along (1, 1, 1): A h1 + B h2 = 2 h1, so every entry of
    # (A h1 + B h2) * h1 is positive and the proof's sign test passes, and
    # phi interpolates (z*, w*), but h1 is no equilibrium
    sysm = StateSpaceSystem(
        0.5 * np.eye(2), np.array([[1.5], [1.5]]), np.array([[0.1, 0.1]]), np.zeros((1, 1))
    )
    h1, w = np.ones(2) / np.sqrt(3.0), np.ones(1) / np.sqrt(3.0)
    z = sysm.C @ h1 + sysm.D @ w
    phi = PiecewiseLinearMap(np.array([[0.0, 0.0], [z[0], w[0]]]))
    eq = _equilibrium_check(sysm, phi, h1, w, sysm.A @ h1 + sysm.B @ w)
    assert not eq["ok"]
    assert eq["state_residual"] > eq["state_bound"]
    assert eq["loop_residual"] <= eq["loop_bound"]


def test_equilibrium_check_rejects_a_loop_equation_miss(slope_example, slope_report):
    # the reported witness with phi moved off w*_0 at the node of z*_0
    h1 = np.asarray(slope_report.dual["h1"])
    w = np.asarray(slope_report.dual["w_star"])
    z = slope_example.C @ h1 + slope_example.D @ w
    bp = slope_report.phi.breakpoints.copy()
    bp[np.argmin(np.abs(bp[:, 0] - z[0])), 1] += 1.0e-6 * np.max(np.abs(w))
    phi = PiecewiseLinearMap(bp)
    eq = _equilibrium_check(slope_example, phi, h1, w, slope_example.A @ h1 + slope_example.B @ w)
    assert not eq["ok"]
    assert eq["state_residual"] <= eq["state_bound"]
    assert eq["loop_residual"] > eq["loop_bound"]


def test_equilibrium_check_rejects_a_zero_state():
    # B w* = 0 holds h1 = 0 fixed and phi(z) = z / 2 meets the loop equation
    # at z* = D w* = 2, but the origin is no witness of instability
    sysm = StateSpaceSystem(
        0.5 * np.eye(2), np.zeros((2, 1)), np.array([[0.1, 0.1]]), np.array([[2.0]])
    )
    h1, w = np.zeros(2), np.ones(1)
    phi = PiecewiseLinearMap(np.array([[0.0, 0.0], [2.0, 1.0]]))
    eq = _equilibrium_check(sysm, phi, h1, w, sysm.A @ h1 + sysm.B @ w)
    assert not eq["ok"]
    assert eq["state_residual"] <= eq["state_bound"]
    assert eq["loop_residual"] <= eq["loop_bound"]


def test_analyze_runs_no_simulation(monkeypatch, slope_example, odd_example):
    def refuse(*args, **kwargs):
        raise AssertionError("analyze simulated the loop")

    monkeypatch.setattr(lurestab.report, "simulate", refuse)
    for system in (slope_example, odd_example):
        assert analyze(system).verdict == "not_absolutely_stable"


def test_analyze_never_builds_the_multiplier(
    monkeypatch, slope_example, odd_example, decoupled_example
):
    # L(P, M) is read off lmi.lmi_congruence; build_multiplier's Pi is only
    # the reference form
    def refuse(*args, **kwargs):
        raise AssertionError("analyze built the multiplier Pi")

    for owner in (lurestab, lurestab.multipliers, lurestab.lmi):
        monkeypatch.setattr(owner, "build_multiplier", refuse)
    general = dataclasses.replace(slope_example, band=SlopeBand(-0.4, 1.7))
    expect = [
        (slope_example, "not_absolutely_stable"),
        (odd_example, "not_absolutely_stable"),
        (decoupled_example, "absolutely_stable"),
        (general, "not_absolutely_stable"),
    ]
    for system, verdict in expect:
        assert analyze(system).verdict == verdict


def test_odd_example_verdict(odd_report):
    rep = odd_report
    assert rep.verdict == "not_absolutely_stable"
    assert rep.phi is not None and rep.phi.odd
    assert rep.diagnostics["pipeline"]["slope_check"]["odd_defect"] == 0.0


@pytest.mark.parametrize("example", ["slope", "odd"])
def test_skipping_the_primal_leaves_the_witness_byte_identical(monkeypatch, request, example):
    # the dual is transposed from the primal's dense form alone, so the
    # skipped primal solve changes only the primal block and its keys; with
    # the linear gain patched off, the equilibrium search runs in its place
    system = request.getfixturevalue(f"{example}_example")
    default = json.loads(request.getfixturevalue(f"{example}_report").to_json())
    monkeypatch.setattr(lurestab.report, "linear_equilibrium", lambda unit: None)
    solved = json.loads(analyze(system).to_json())
    assert default["primal"] is None
    assert solved["primal"]["status"] == "infeasible"
    assert solved["verdict"] == default["verdict"]
    assert solved["dual"] == default["dual"]
    assert solved["phi"] == default["phi"]

    def witness_keys(report):
        pipe = report["diagnostics"]["pipeline"]
        return {k: v for k, v in pipe.items() if not k.startswith("primal_")
                and k not in ("linear_equilibrium", "equilibrium_search")}

    assert witness_keys(solved) == witness_keys(default)
    assert "linear_equilibrium" in default["diagnostics"]["pipeline"]
    assert "equilibrium_search" in solved["diagnostics"]["pipeline"]
    # forced, the primal runs to its optimum t* = 0
    assert solved["diagnostics"]["pipeline"]["primal_ipm_status"] == "optimal"


@pytest.mark.parametrize("example", ["slope", "odd", "decoupled"])
def test_the_primal_block_is_its_status_and_margin(monkeypatch, request, example):
    # with the linear gain patched off, the primal runs on the unstable
    # examples too; its block is the status and the achieved margin, and
    # the certificate (P, M) where it is stable
    monkeypatch.setattr(lurestab.report, "linear_equilibrium", lambda unit: None)
    rep = analyze(request.getfixturevalue(f"{example}_example"))
    stable = example == "decoupled"
    assert rep.verdict == ("absolutely_stable" if stable else "not_absolutely_stable")
    assert set(rep.primal) == {"status", "margin"} | ({"P", "M"} if stable else set())
    assert rep.primal["status"] == ("feasible" if stable else "infeasible")


def test_a_witness_map_that_cannot_be_built_gives_way_to_the_known_input(monkeypatch, tmp_path):
    # this plant's dual witness has a channel with z* = 0 and w* at rounding
    # level, which snap_to_band levels, so its own map decides it; made
    # unbuildable, the dual witness gives way to the linear gain's
    # (lambda = 2.871)
    plant = {"A": [[0.5804905842003484]], "B": [[0.8244122790838154, -0.33691804951042836]],
             "C": [[0.0], [-1.1916459308176033]], "D": [[0.0, 0.0], [0.0, 0.0]],
             "mu": 0.0, "nu": 3.0, "class": "slope"}
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(plant))

    def run():
        assert main(["analyze", str(path), "--out", str(tmp_path / "report.json")]) == 10
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["verdict"] == "not_absolutely_stable"
        return doc["diagnostics"]["pipeline"]

    assert "witness_source" not in run()
    real, certs = lurestab.report.build_pwl, []

    def unbuildable_once(unit, cert):
        certs.append(cert)
        if len(certs) == 1:
            raise CertificateInconsistentError("no map interpolates the dual witness")
        return real(unit, cert)

    monkeypatch.setattr(lurestab.report, "build_pwl", unbuildable_once)
    pipe = run()
    assert len(certs) == 2
    assert pipe["witness_source"] == "linear" and pipe["rank_stop"] == "rank_one"
    assert pipe["linear_equilibrium"] == pytest.approx(2.871, abs=1e-3)


def test_decoupled_example_verdict(decoupled_example):
    rep = analyze(decoupled_example)
    assert rep.verdict == "absolutely_stable"
    assert rep.primal["margin"] >= 1.0e-7
    assert rep.dual is None and rep.phi is None


def test_report_serialization_is_reproducible(slope_example, slope_report):
    first = slope_report.to_json()
    second = analyze(slope_example).to_json()
    assert first == second
    parsed = json.loads(first)
    assert parsed["verdict"] == "not_absolutely_stable"
    assert len(parsed["phi"]["breakpoints"]) >= 3


def test_unstable_system_is_rejected(data_dir):
    from conftest import _system_from_json

    with pytest.raises(AssumptionViolatedError):
        analyze(_system_from_json(data_dir / "sys_unstable.json"))


def _robustness_corpus_system(index):
    """System `index` of the fixed 120-system robustness corpus (seed 2024)."""
    rng = np.random.default_rng(2024)
    for i in range(index + 1):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.95) / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
        B, C = rng.normal(size=(n, m)), rng.normal(size=(m, n))
        D = rng.normal(size=(m, m)) * rng.uniform(0, 1)
    cls = NonlinearityClass.SLOPE_ODD if index % 2 else NonlinearityClass.SLOPE
    return StateSpaceSystem(A, B, C, D, SlopeBand(0.0, 1.0), cls)


def test_margin_solve_breakdown_is_a_status_not_an_exception():
    # corpus system 100: the margin IPM used to drive x.s toward underflow
    # while the primal residual stalled, until the NT scaling overflowed and
    # raised; test_conic covers the stalled exit on its own
    sysm = _robustness_corpus_system(100)
    assert (sysm.n, sysm.m) == (2, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = analyze(sysm)
    assert rep.verdict == "absolutely_stable"


def test_import_does_not_load_scipy():
    src = pathlib.Path(lurestab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, lurestab; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def _package_imports(module: str) -> set:
    """The modules of the package that one of its modules imports, read
    from its source."""
    tree = ast.parse((pathlib.Path(lurestab.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                found.update([base] if base else [alias.name for alias in node.names])
            elif base.startswith("lurestab."):
                found.add(base.split(".")[1])
            elif base == "lurestab":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("lurestab."))
    return found


def test_each_dual_pass_rule_has_one_owner_in_the_import_graph():
    # reduce_rank decides rank one and hands the detector the factor, and
    # analyze decides when the search runs: neither reaches past its owner
    assert "engine" not in _package_imports("detector")
    assert "equilibria" not in _package_imports("engine")
    assert {"engine", "equilibria", "detector"} <= _package_imports("report")
