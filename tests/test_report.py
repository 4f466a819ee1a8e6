"""Canonical serialization and the analysis verdicts on the examples."""

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
from lurestab.errors import AssumptionViolatedError
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
    assert rep.primal["status"] == "infeasible"
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


def test_analyze_runs_no_simulation(monkeypatch, slope_example, odd_example):
    def refuse(*args, **kwargs):
        raise AssertionError("analyze simulated the loop")

    monkeypatch.setattr(lurestab.report, "simulate", refuse)
    for system in (slope_example, odd_example):
        assert analyze(system).verdict == "not_absolutely_stable"


def test_odd_example_verdict(odd_report):
    rep = odd_report
    assert rep.verdict == "not_absolutely_stable"
    assert rep.phi is not None and rep.phi.odd
    assert rep.diagnostics["pipeline"]["slope_check"]["odd_defect"] == 0.0


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
