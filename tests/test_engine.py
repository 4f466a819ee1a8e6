"""Engine-level solves on the example systems plus small synthetic problems."""

import numpy as np
import pytest

from lurestab.engine import SolveResult, SolverSettings, reduce_rank, solve
from lurestab.errors import StructuralError
from lurestab.lmi import (
    EqualityBlock,
    LmiKind,
    SdpFeasibilityProblem,
    VarSpec,
    build_dual,
    build_primal,
    primal_lmi_matrix,
)


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


def test_phase1_farkas_certifies_infeasible():
    # x >= 0 with x = -1 has a one-line Farkas certificate
    problem = SdpFeasibilityProblem(
        variables=(VarSpec("x", "nonneg", 1),),
        equalities=(
            EqualityBlock("pin", lambda v: v["x"], -np.ones(1), "vector"),
        ),
    )
    res = solve(problem)
    assert res.status == "infeasible"
    assert res.diagnostics["farkas_quality"] <= 1.0e-7


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


def test_phase1_feasible_toy():
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


def test_settings_are_frozen():
    s = SolverSettings()
    with pytest.raises(Exception):
        s.tol_rank = 1.0
