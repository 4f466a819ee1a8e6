"""Engine-level solves on the example systems plus small synthetic problems."""

import numpy as np
import pytest

from lurestab import engine
from lurestab.cones import ConeTag, is_member
from lurestab.engine import SolveResult, SolverSettings, reduce_rank, solve
from lurestab.errors import StructuralError
from lurestab.lmi import (
    BOX_BOUND,
    EqualityBlock,
    LmiKind,
    SdpFeasibilityProblem,
    VarSpec,
    build_dual,
    build_primal,
    primal_lmi_matrix,
)
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem, normalize_band


def test_margin_primal_infeasible_on_slope_example(slope_example):
    res = solve(build_primal(slope_example, LmiKind.PRIMAL_DHD))
    assert res.status == "infeasible"
    assert res.residuals.margin is not None
    assert res.residuals.margin < 1.0e-7


def test_margin_primal_infeasible_on_odd_example(odd_example):
    res = solve(build_primal(odd_example, LmiKind.PRIMAL_DD))
    assert res.status == "infeasible"
    assert res.residuals.margin < 1.0e-7


def test_decoupled_primal_feasible_with_margin(decoupled_example):
    problem = build_primal(decoupled_example, LmiKind.PRIMAL_DHD)
    res = solve(problem)
    assert res.status == "feasible"
    assert res.residuals.margin >= 1.0e-7

    P = res.assignment["P"]
    M = problem.meta["multiplier_from"](res.assignment)
    L = primal_lmi_matrix(decoupled_example, P, M)
    # the verdict is certified by the assignment itself, not the solver
    assert np.max(np.linalg.eigvalsh(L)) <= -1.0e-7


@pytest.mark.parametrize("kind_tag", ["dual_dhd", "dual_dd"])
def test_dual_feasible_on_slope_example(slope_example, kind_tag):
    res = solve(build_dual(slope_example, LmiKind(kind_tag)))
    assert res.status == "feasible"
    H = res.assignment["H"]
    assert abs(np.trace(H) - 1.0) <= 1.0e-7
    assert np.min(np.linalg.eigvalsh((H + H.T) / 2)) >= -1.0e-8
    assert res.residuals.max_equality <= 1.0e-7


def test_dual_feasible_on_odd_example(odd_example):
    res = solve(build_dual(odd_example, LmiKind.DUAL_DD))
    assert res.status == "feasible"
    assert abs(np.trace(res.assignment["H"]) - 1.0) <= 1.0e-7


def test_reduce_rank_reaches_rank_one(slope_example):
    problem = build_dual(slope_example, LmiKind.DUAL_DHD)
    warm = solve(problem)
    red = reduce_rank(problem, warm)
    assert red.status == "feasible"
    assert red.diagnostics["rank_ratio"] <= 1.0e-6
    assert red.diagnostics["rank_trail"][0] > red.diagnostics["rank_ratio"]
    w = np.linalg.eigvalsh(red.assignment["H"])[::-1]
    assert w[1] <= 1.0e-6 * w[0]


def test_reduce_rank_reuses_the_canonical_form_of_solve(slope_example):
    problem = build_dual(slope_example, LmiKind.DUAL_DHD)
    warm = solve(problem)
    assert warm.canonical is not None and warm.canonical.problem is problem
    red = reduce_rank(problem, warm)
    assert red.canonical is warm.canonical


def test_reduce_rank_keeps_rank_one_warm_start(slope_example):
    problem = build_dual(slope_example, LmiKind.DUAL_DHD)
    warm = solve(problem)
    red = reduce_rank(problem, warm)
    # re-wrap without diagnostics so the early-return path fills them in
    clean = SolveResult(
        status="feasible",
        assignment=dict(red.assignment),
        residuals=red.residuals,
    )
    again = reduce_rank(problem, clean)
    assert again is clean
    assert again.diagnostics["rounds"] == 0
    assert len(again.diagnostics["rank_trail"]) == 1
    assert np.array_equal(again.assignment["H"], red.assignment["H"])


def test_reduce_rank_rejects_infeasible_warm_start(slope_example):
    problem = build_dual(slope_example, LmiKind.DUAL_DHD)
    bad = SolveResult(status="infeasible", assignment={}, residuals=None)
    with pytest.raises(StructuralError):
        reduce_rank(problem, bad)


def test_equality_solve_farkas_certifies_infeasible():
    # x >= 0 with x = -1 has a one-line Farkas certificate
    problem = SdpFeasibilityProblem(
        variables=(VarSpec("x", "nonneg", 1),),
        equalities=(
            EqualityBlock("pin", lambda v: v["x"], -np.ones(1), "vector"),
        ),
    )
    res = solve(problem)
    assert res.status == "infeasible"
    assert res.diagnostics["ipm_status"] == "infeasible"
    assert res.diagnostics["farkas_quality"] <= 1.0e-7


def test_psd_block_infeasible_toy_ends_with_a_checked_certificate():
    # tr X = 1 and X_01 = 1 cannot hold with X psd, since |X_01| <= tr X / 2
    problem = SdpFeasibilityProblem(
        variables=(VarSpec("X", "psd", 2),),
        equalities=(
            EqualityBlock("tr", lambda v: np.array([np.trace(v["X"])]), np.ones(1), "vector"),
            EqualityBlock("off", lambda v: np.array([v["X"][0, 1]]), np.ones(1), "vector"),
        ),
    )
    res = solve(problem)
    assert res.status == "infeasible"
    assert res.diagnostics["ipm_status"] == "infeasible"
    assert res.diagnostics["farkas_quality"] <= engine._FARKAS_TOL


def test_inconsistent_rows_are_certified_without_the_ipm(monkeypatch):
    # three independent equations in two unknowns: no x at all meets them
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    problem = SdpFeasibilityProblem(
        variables=(VarSpec("x", "nonneg", 2),),
        equalities=(
            EqualityBlock("eq", lambda v: A @ v["x"], np.array([1.0, 1.0, 3.0]), "vector"),
        ),
    )
    monkeypatch.setattr(engine, "solve_conic", None)
    res = solve(problem)
    assert res.status == "infeasible"
    assert res.diagnostics["ipm_iterations"] == 0
    assert res.diagnostics["farkas_quality"] <= engine._FARKAS_TOL


def test_constant_inconsistent_row_is_infeasible():
    problem = SdpFeasibilityProblem(
        variables=(VarSpec("x", "nonneg", 1),),
        equalities=(
            EqualityBlock("void", lambda v: np.zeros(1), np.ones(1), "vector"),
        ),
    )
    res = solve(problem)
    assert res.status == "infeasible"
    assert res.diagnostics["reason"] == "inconsistent constant row"


def test_equality_solve_feasible_toy():
    # x >= 0, sum x = 1 is plainly feasible
    problem = SdpFeasibilityProblem(
        variables=(VarSpec("x", "nonneg", 3),),
        equalities=(
            EqualityBlock("sum", lambda v: np.array([np.sum(v["x"])]), np.ones(1), "vector"),
        ),
    )
    res = solve(problem)
    assert res.status == "feasible"
    x = res.assignment["x"]
    assert np.all(x >= -1.0e-9)
    assert abs(np.sum(x) - 1.0) <= 1.0e-8


def test_steer_solve_stops_at_its_accuracy_floor(odd_example, monkeypatch):
    problem = build_dual(odd_example, LmiKind.DUAL_DD)
    warm = solve(problem)
    results = []
    real = engine.solve_conic

    def capturing(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(engine, "solve_conic", capturing)
    red = reduce_rank(problem, warm)
    steer = results[0]
    # the steer solve asks for 1e-11, below what its rounding allows; it
    # gets within 1e-9 and then stops instead of iterating at the floor
    assert red.diagnostics["steered"]
    assert steer.status in ("optimal", "stalled")
    assert steer.iterations <= 30
    assert max(steer.rp_rel, steer.rd_rel, steer.gap_rel) <= 1.0e-9
    assert all(res.status != "max_iters" for res in results)


def test_settings_are_frozen():
    s = SolverSettings()
    with pytest.raises(Exception):
        s.tol_rank = 1.0


def _capture_primal_rows(monkeypatch):
    """Row counts of every A that engine.solve_conic receives."""
    rows = []
    real = engine.solve_conic

    def capturing(A, b, c, cone, settings=None):
        rows.append(np.shape(A)[0])
        return real(A, b, c, cone, settings)

    monkeypatch.setattr(engine, "solve_conic", capturing)
    return rows


def _seeded_system(seed, n, m, odd=False, gain=1.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.6 / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
    cls = NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(
        A, 0.3 * gain * rng.normal(size=(n, m)), 0.3 * gain * rng.normal(size=(m, n)),
        0.1 * gain * rng.normal(size=(m, m)), SlopeBand(0.0, 1.0), cls,
    )


@pytest.mark.parametrize("odd", [False, True])
def test_primal_schur_complement_is_indexed_by_decision_coordinates(monkeypatch, odd):
    n = m = 3
    rows = _capture_primal_rows(monkeypatch)
    kind = LmiKind.PRIMAL_DD if odd else LmiKind.PRIMAL_DHD
    solve(build_primal(_seeded_system(20, n, m, odd), kind))
    # P, M_diag, M_offdiag and t, plus M_abs for DD: no slack rows
    expect = n * (n + 1) // 2 + m + m * (m - 1) + 1 + (m * (m - 1) if odd else 0)
    assert rows == [expect]
    if not odd:
        assert expect == 16


def test_primal_dd_scalar_channel_on_a_general_band(monkeypatch):
    rows = _capture_primal_rows(monkeypatch)
    sysm = StateSpaceSystem(
        np.array([[0.5]]), np.array([[0.1]]), np.array([[0.1]]), np.array([[0.0]]),
        SlopeBand(-0.3, 1.5), NonlinearityClass.SLOPE_ODD,
    )
    res = solve(build_primal(normalize_band(sysm), LmiKind.PRIMAL_DD))
    # P, M_diag and t; both hollow variables have no coordinates at m = 1
    assert rows == [3]
    assert res.status == "feasible"
    assert np.array_equal(res.assignment["M_offdiag"], np.zeros((1, 1)))
    assert np.array_equal(res.assignment["M_abs"], np.zeros((1, 1)))


def _lmi_from_definition(sysm, P, M):
    """L(P, M) on the band [0, 1], written out from the paper's definition."""
    n, m = sysm.n, sysm.m
    AB = np.hstack([sysm.A, sysm.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    outer = np.vstack([np.hstack([sysm.C, sysm.D]), np.hstack([np.zeros((m, n)), np.eye(m)])])
    # Pi = V^T [[0, M], [M^T, 0]] V with V = [[I, -I], [0, I]] on [0, 1]
    V = np.block([[np.eye(m), -np.eye(m)], [np.zeros((m, m)), np.eye(m)]])
    K = np.block([[np.zeros((m, m)), M], [M.T, np.zeros((m, m))]])
    L = AB.T @ P @ AB - I0.T @ P @ I0 + outer.T @ (V.T @ K @ V) @ outer
    return 0.5 * (L + L.T)


def _primal_cases(slope_example, odd_example, decoupled_example):
    yield slope_example
    yield odd_example
    yield decoupled_example
    # (n, m), alternating the slope and the odd slope class
    shapes = [(1, 1), (2, 3), (3, 2), (1, 3), (2, 2), (3, 4)]
    for seed, (n, m) in enumerate(shapes):
        for gain in (1.0, 6.0):
            yield _seeded_system(30 + seed, n, m, odd=bool(seed % 2), gain=gain)


def test_primal_output_holds_from_definitions(slope_example, odd_example, decoupled_example):
    statuses = []
    for sysm in _primal_cases(slope_example, odd_example, decoupled_example):
        odd = sysm.nl_class is NonlinearityClass.SLOPE_ODD
        problem = build_primal(sysm, LmiKind.PRIMAL_DD if odd else LmiKind.PRIMAL_DHD)
        res = solve(problem)
        statuses.append(res.status)
        assert res.status in ("feasible", "infeasible")
        P = res.assignment["P"]
        M = np.diag(res.assignment["M_diag"]) + res.assignment["M_offdiag"]
        assert np.array_equal(P, P.T)
        assert np.max(np.abs(P)) <= BOX_BOUND
        assert is_member(M, ConeTag.DD if odd else ConeTag.DHD).member
        assert res.residuals.max_equality == 0.0
        if res.status == "feasible":
            L = _lmi_from_definition(sysm, P, M)
            lam = float(np.linalg.eigvalsh(L)[-1])
            assert lam <= -res.residuals.margin + 1e-12 * max(1.0, np.abs(L).max())
    assert statuses[:3] == ["infeasible", "infeasible", "feasible"]
    assert statuses.count("feasible") >= 4 and statuses.count("infeasible") >= 4
