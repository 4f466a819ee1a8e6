"""Engine-level solves on the example systems plus small synthetic plants."""

import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest

from cones import ConeTag, is_member
from lurestab import conic, engine, report
from lurestab.engine import SolveResult, build_dual, reduce_rank, solve
from lurestab.errors import StructuralError
from lurestab.lmi import BOX_BOUND, build_primal, multiplier_matrix, primal_lmi_matrix
from lurestab.report import analyze
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem, normalize_band
from oracles import output_coupling_block, primal_constraints, state_equality_block

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _dual(sysm):
    """The dual LMI of a plant, transposed from its solved primal."""
    return build_dual(solve(build_primal(sysm)))


def _corpus_system(index):
    """System i of the benchmark's fixed 120-system corpus."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    case = module.roadmap_corpus()[index]
    cls = NonlinearityClass.SLOPE_ODD if case.odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(case.A, case.B, case.C, case.D, SlopeBand(case.mu, case.nu), cls)


def test_margin_primal_infeasible_on_slope_example(slope_example):
    res = solve(build_primal(slope_example))
    assert res.status == "infeasible"
    assert res.residuals.margin is not None
    assert res.residuals.margin < 1.0e-7


def test_margin_primal_infeasible_on_odd_example(odd_example):
    res = solve(build_primal(odd_example))
    assert res.status == "infeasible"
    assert res.residuals.margin < 1.0e-7


def test_decoupled_primal_feasible_with_margin(decoupled_example):
    problem = build_primal(decoupled_example)
    res = solve(problem)
    assert res.status == "feasible"
    assert res.residuals.margin >= 1.0e-7

    P = res.assignment["P"]
    M = multiplier_matrix(res.assignment)
    L = primal_lmi_matrix(decoupled_example, P, M)
    # the verdict is certified by the assignment itself, not the solver
    assert np.max(np.linalg.eigvalsh(L)) <= -1.0e-7


@pytest.mark.parametrize("kind_tag", ["dual_dhd", "dual_dd"])
def test_dual_feasible_on_slope_example(slope_example, kind_tag):
    odd = kind_tag == "dual_dd"
    cls = NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE
    res = solve(_dual(dataclasses.replace(slope_example, nl_class=cls)))
    assert ("Z" in res.assignment) == odd
    assert res.status == "feasible"
    H = res.assignment["H"]
    assert abs(np.trace(H) - 1.0) <= 1.0e-7
    assert np.min(np.linalg.eigvalsh((H + H.T) / 2)) >= -1.0e-8
    assert res.residuals.max_equality <= 1.0e-7


def test_dual_feasible_on_odd_example(odd_example):
    res = solve(_dual(odd_example))
    assert res.status == "feasible"
    assert abs(np.trace(res.assignment["H"]) - 1.0) <= 1.0e-7


def test_reduce_rank_reaches_rank_one():
    # the steered dual point of corpus input 74 has rank ratio 0.40; a
    # deflation round takes it to rank one
    problem = _dual(_corpus_system(74))
    warm = solve(problem)
    red = reduce_rank(problem, warm)
    assert red.status == "feasible"
    trail = red.diagnostics["rank_trail"]
    # the trail starts at the steered point
    assert trail[0] == engine._rank_ratio(warm.assignment["H"])[0] > 1.0e-6
    assert red.diagnostics["rounds"] >= 1
    assert trail[-1] == red.diagnostics["rank_ratio"] <= 1.0e-6
    w = np.linalg.eigvalsh(red.assignment["H"])[::-1]
    assert w[1] <= 1.0e-6 * w[0]


def test_reduce_rank_decomposes_each_point_once(monkeypatch):
    # one eigh per kept point gives its rank ratio and the next round's
    # deflation directions; dual.verify adds one eigvalsh per round's point
    # (the IPM's step lengths decompose stacks, which are not counted)
    problem = _dual(_corpus_system(74))
    warm = solve(problem)
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(a, *args, _real=real, _name=name, **kwargs):
            if np.ndim(a) == 2:
                calls.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    red = reduce_rank(problem, warm)
    rounds = red.diagnostics["rounds"]
    assert rounds >= 1
    assert calls.count("eigh") == 1 + rounds
    assert calls.count("eigvalsh") == rounds


def test_primal_verify_reads_the_constraint_rows(slope_example, odd_example, decoupled_example):
    # the worst cone violation of F0 + F z at the returned point equals the
    # one of the constraints written from their definitions
    for sysm in (slope_example, odd_example, decoupled_example):
        res = solve(build_primal(sysm))
        form = res.canonical
        z = np.concatenate([
            engine._scalarize(res.assignment[v.name], v.kind) for v, _ in form.var_slices
        ])
        expect, violation = primal_constraints(sysm, res.assignment), 0.0
        for con, _ in form.blocks:
            value = expect[con.name]
            if con.cone == "psd":
                violation = max(violation, -np.linalg.eigvalsh(value)[0])
            elif value.size:
                value = engine._scalarize(value, con.kind)
                violation = max(violation, -np.min(value, initial=np.inf))
        _, _, max_cone = form.verify(z)
        assert abs(max_cone - max(violation, 0.0)) <= 1.0e-12


def test_reduce_rank_reuses_the_canonical_form_of_solve(slope_example):
    problem = _dual(slope_example)
    warm = solve(problem)
    assert warm.canonical is problem
    red = reduce_rank(problem, warm)
    assert red.canonical is problem


def test_feasible_primal_measures_its_certificate_once(decoupled_example, monkeypatch):
    # the IPM's accept test computes the achieved margin of the certifying
    # iterate, and the verdict reuses it
    seen = []
    real = engine._primal_true_margin

    def recording(problem, assignment):
        seen.append(assignment["P"])
        return real(problem, assignment)

    monkeypatch.setattr(engine, "_primal_true_margin", recording)
    res = solve(build_primal(decoupled_example))
    assert res.status == "feasible"
    assert res.diagnostics["ipm_status"] == "accepted"
    assert sum(np.array_equal(P, res.assignment["P"]) for P in seen) == 1


def test_reduce_rank_keeps_rank_one_warm_start(slope_example):
    # the steered dual point of the slope example is rank one already
    problem = _dual(slope_example)
    warm = solve(problem)
    # re-wrap without diagnostics: they are filled in with zero rounds run
    clean = SolveResult(
        status="feasible",
        assignment=dict(warm.assignment),
        residuals=warm.residuals,
    )
    red = reduce_rank(problem, clean)
    assert red.assignment is clean.assignment
    assert red.residuals == clean.residuals
    assert red.diagnostics["rounds"] == 0
    assert red.diagnostics["rank_trail"] == [red.diagnostics["rank_ratio"]]
    assert red.diagnostics["rank_ratio"] <= 1.0e-6


def test_reduce_rank_rejects_infeasible_warm_start(slope_example):
    problem = _dual(slope_example)
    bad = SolveResult(status="infeasible", assignment={}, residuals=None)
    with pytest.raises(StructuralError):
        reduce_rank(problem, bad)


def _check_primal_certificate(sysm, res):
    """The dual's Farkas certificate, read as (P, M, t = 1), is a strict
    primal solution: L(P, M) <= -I and M in its cone."""
    cert = res.diagnostics["certificate"]
    assert cert["t"][0] == pytest.approx(1.0, abs=1e-9)
    P = cert["P"]
    M = np.diag(cert["M_diag"]) + cert["M_offdiag"]
    L = primal_lmi_matrix(sysm, P, M)
    lam = float(np.linalg.eigvalsh(0.5 * (L + L.T))[-1])
    scale = max(1.0, np.abs(L).max())
    assert lam <= -1.0 + 1e-9 * scale
    odd = sysm.nl_class is NonlinearityClass.SLOPE_ODD
    assert is_member(M, ConeTag.DD if odd else ConeTag.DHD, tol=1e-9 * scale).member


def test_equality_solve_farkas_certifies_infeasible(decoupled_example):
    # the decoupled loop is stable by small gain, so its dual is infeasible
    res = solve(_dual(decoupled_example))
    assert res.status == "infeasible"
    assert res.diagnostics["ipm_status"] == "infeasible"
    assert res.diagnostics["farkas_quality"] <= 1.0e-7
    _check_primal_certificate(decoupled_example, res)


def test_psd_block_infeasible_toy_ends_with_a_checked_certificate():
    # x+ = x / 2 + w / 10, z = x / 10: one state, one channel, stable by
    # small gain; the dual's only PSD block is 2 x 2
    sysm = StateSpaceSystem(
        np.array([[0.5]]), np.array([[0.1]]), np.array([[0.1]]), np.array([[0.0]])
    )
    res = solve(_dual(sysm))
    assert res.status == "infeasible"
    assert res.diagnostics["farkas_quality"] <= engine._FARKAS_TOL
    _check_primal_certificate(sysm, res)


def test_dual_farkas_certificate_is_a_primal_certificate():
    # small-gain plants of both classes; the decoupled example and the
    # scalar toy above are the other cases
    for seed, (n, m) in enumerate([(2, 3), (3, 2), (2, 2), (3, 4)]):
        sysm = _seeded_system(60 + seed, n, m, odd=bool(seed % 2), gain=0.5)
        res = solve(_dual(sysm))
        assert res.status == "infeasible"
        assert res.diagnostics["farkas_quality"] <= engine._FARKAS_TOL
        _check_primal_certificate(sysm, res)


def test_equality_solve_feasible_toy():
    # x+ = x / 2 + w, z = x: phi(z) = z / 2 holds every state fixed, so the
    # dual is feasible, and its rank-one point is that equilibrium
    sysm = StateSpaceSystem(
        np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]])
    )
    dual = _dual(sysm)
    res = solve(dual)
    assert res.status == "feasible"
    H = res.assignment["H"]
    assert abs(np.trace(H) - 1.0) <= 1.0e-8
    assert np.abs(state_equality_block(sysm, H)).max() <= 1.0e-8
    Y = output_coupling_block(sysm, H)
    assert abs(Y[0, 0] - res.assignment["f"][0] - res.assignment["g"][0]) <= 1.0e-8
    red = reduce_rank(dual, res)
    h = np.linalg.eigh(red.assignment["H"])[1][:, -1]
    assert h[1] / h[0] == pytest.approx(0.5, abs=1e-6)


def test_steer_solve_stops_at_its_accuracy_floor(odd_example, monkeypatch):
    problem = _dual(odd_example)
    results = []
    real = engine.solve_conic

    def capturing(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(engine, "solve_conic", capturing)
    warm = solve(problem)
    [steer] = results
    # the steered dual solve asks for 1e-11, at the edge of what its
    # rounding allows; it gets within 1e-9 and then stops instead of
    # iterating at the floor
    assert warm.status == "feasible"
    assert warm.diagnostics["ipm_status"] == steer.status in ("optimal", "stalled")
    assert steer.iterations <= 30
    assert max(steer.rp_rel, steer.rd_rel, steer.gap_rel) <= 1.0e-9
    reduce_rank(problem, warm)
    assert all(res.status != "max_iters" for res in results)


@pytest.mark.parametrize("fixture", ["slope_example", "odd_example"])
def test_witness_is_a_verified_solver_point_as_returned(monkeypatch, request, fixture):
    problem = _dual(request.getfixturevalue(fixture))
    points = []
    real = engine.solve_conic

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        points.append(res.x)
        return res

    monkeypatch.setattr(engine, "solve_conic", recording)
    red = reduce_rank(problem, solve(problem))
    # nothing rewrites the point a solve returned before it is read
    H = red.assignment["H"]
    assert any(np.array_equal(H, problem.reconstruct(x)["H"]) for x in points)
    assert problem.verify(red.assignment)[0]


def _capture_primal_rows(monkeypatch):
    """Row counts of every A that engine.solve_conic receives."""
    rows = []
    real = engine.solve_conic

    def capturing(A, *args, **kwargs):
        rows.append(np.shape(A)[0])
        return real(A, *args, **kwargs)

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
    solve(build_primal(_seeded_system(20, n, m, odd)))
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
    res = solve(build_primal(normalize_band(sysm)))
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
        problem = build_primal(sysm)
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


@pytest.mark.parametrize("fixture", ["slope_example", "odd_example"])
def test_dual_point_is_the_one_steered_solve(monkeypatch, request, fixture):
    sysm = request.getfixturevalue(fixture)
    solves = _capture_primal_rows(monkeypatch)
    warm_starts = []
    real = report.reduce_rank

    def reducing(dual, warm):
        warm_starts.append((len(solves), dual, warm))
        return real(dual, warm)

    monkeypatch.setattr(report, "reduce_rank", reducing)
    rep = analyze(sysm)
    assert rep.verdict == "not_absolutely_stable"
    # the primal and one dual solve run before rank reduction
    [(before, dual, warm)] = warm_starts
    assert before == 2
    assert warm.status == "feasible"
    assert dual.verify(warm.assignment)[0]
    pipe = rep.diagnostics["pipeline"]
    assert "dual_source" not in pipe
    assert pipe["rank_trail"][0] == engine._rank_ratio(warm.assignment["H"])[0]
    assert pipe["primal_ipm_status"] == "optimal"
    assert pipe["primal_ipm_iterations"] >= 1


def test_dual_point_does_not_depend_on_how_the_primal_ended(monkeypatch, slope_example):
    problem = build_primal(slope_example)
    with monkeypatch.context() as m:
        m.setattr(conic, "MAX_ITERS", 3)
        capped = solve(problem)
    assert capped.status == "numerical_limit"
    assert capped.diagnostics["ipm_status"] == "max_iters"
    converged = solve(problem)
    assert converged.status == "infeasible"
    capped_dual, dual = (solve(build_dual(primal)) for primal in (capped, converged))
    assert capped_dual.status == dual.status == "feasible"
    assert np.array_equal(capped_dual.assignment["H"], dual.assignment["H"])


def test_stable_analyze_stops_the_primal_at_its_first_certificate(monkeypatch):
    solves = _capture_primal_rows(monkeypatch)
    rep = analyze(_seeded_system(8, 8, 8))
    assert rep.verdict == "absolutely_stable"
    assert len(solves) == 1
    pipe = rep.diagnostics["pipeline"]
    assert pipe["primal_ipm_status"] == "accepted"
    # run to its optimum, this primal takes 15 iterations; its first
    # certificate comes at iteration 6
    assert pipe["primal_ipm_iterations"] <= 6
    assert "dual_status" not in pipe
