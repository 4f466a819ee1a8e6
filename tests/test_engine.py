"""Engine-level solves on the example systems plus small synthetic plants."""

import dataclasses
import importlib.util
import json
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from cones import ConeTag, is_member
from lurestab import conic, engine, report
from lurestab.engine import build_dual, reduce_rank, solve
from lurestab.equilibria import MAX_CHANNELS
from lurestab.lmi import _lmi_matrix, build_primal, lmi_congruence, multiplier_matrix
from lurestab.report import analyze
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem, normalize_band
from oracles import output_coupling_block, primal_constraints, state_equality_block

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _dual(sysm):
    """The one conic form of a plant's primal and dual LMIs, transposed
    from its primal."""
    return build_dual(build_primal(sysm))


def _recording(monkeypatch):
    """Every result engine.solve_conic returns, in order."""
    results = []
    real = engine.solve_conic

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(engine, "solve_conic", recording)
    return results


def _bench(name):
    """A module of the benchmark: checker, its independent verdict checker,
    or workloads, its inputs."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_margin_primal_infeasible_on_slope_example(slope_example):
    res = solve(_dual(slope_example))
    assert res.status == "infeasible"
    assert res.margin < 1.0e-7


def test_margin_primal_infeasible_on_odd_example(odd_example):
    res = solve(_dual(odd_example))
    assert res.status == "infeasible"
    assert res.margin < 1.0e-7


def test_decoupled_primal_feasible_with_margin(decoupled_example):
    res = solve(_dual(decoupled_example))
    assert res.status == "feasible"
    assert res.margin >= 1.0e-7

    P = res.assignment["P"]
    M = multiplier_matrix(res.assignment, decoupled_example.nl_class)
    L = _lmi_matrix(lmi_congruence(decoupled_example), P, M)
    # the verdict is certified by the assignment itself, not the solver
    assert np.max(np.linalg.eigvalsh(L)) <= -1.0e-7


@pytest.mark.parametrize("kind_tag", ["dual_dhd", "dual_dd"])
def test_dual_feasible_on_slope_example(slope_example, kind_tag):
    odd = kind_tag == "dual_dd"
    cls = NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE
    res = reduce_rank(_dual(dataclasses.replace(slope_example, nl_class=cls)), deflate=False)
    assert ("Z" in res.assignment) == odd
    assert res.status == "feasible"
    H = res.assignment["H"]
    assert abs(np.trace(H) - 1.0) <= 1.0e-7
    assert np.min(np.linalg.eigvalsh((H + H.T) / 2)) >= -1.0e-8
    assert res.residuals.max_equality <= 1.0e-7


def test_dual_feasible_on_odd_example(odd_example):
    res = reduce_rank(_dual(odd_example), deflate=False)
    assert res.status == "feasible"
    assert abs(np.trace(res.assignment["H"]) - 1.0) <= 1.0e-7


def _ladder_loop(seed, n, nu, cls=NonlinearityClass.SLOPE):
    """The ladder recipe at n = m with the given rng seed, on the band
    [0, nu]."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(abs(np.linalg.eigvals(A)))
    B, C = 0.1 * rng.normal(size=(n, n)), 0.1 * rng.normal(size=(n, n))
    D = 0.02 * rng.normal(size=(n, n))
    return StateSpaceSystem(A, B, C, D, SlopeBand(0.0, nu), cls)


def _five_channel_loop():
    """A loop past the equilibrium search's channel count with a linear
    equilibrium (lambda = 1.499): rng seed 12 at n = 5, on the band
    [0, 1.5 k*] with k* = 11.14 the first gain at which
    A + k B (I - k D)^{-1} C stops being Schur.  Its steered dual point is
    not rank one (ratio 8.3e-3), and one deflation round takes it there."""
    return _ladder_loop(12, 5, 16.7)


def _eight_channel_loop():
    """A loop past the search's channel count with no linear equilibrium,
    where the deflation rounds are the only path: rng seed 3 at n = 8, odd
    class, on the band [0, 1.5 k*] with k* = 9.478."""
    return _ladder_loop(3, 8, 14.217, NonlinearityClass.SLOPE_ODD)


def test_the_rounds_decide_a_loop_the_search_cannot_take():
    sysm = _eight_channel_loop()
    assert sysm.m > MAX_CHANNELS
    rep = analyze(sysm)
    assert rep.verdict == "not_absolutely_stable"
    pipe = rep.diagnostics["pipeline"]
    assert "linear_equilibrium" not in pipe and "equilibrium_search" not in pipe
    assert pipe["rank_rounds"] == 2 and pipe["rank_stop"] == "rank_one"
    assert pipe["witness_source"] == "dual"
    assert _bench("checker").check(_case(sysm), json.loads(rep.to_json())) == []


def test_a_known_input_spares_the_rounds(monkeypatch):
    # the five-channel loop's steered point is not rank one, but its linear
    # gain already gives the witness, so the dual pass is its one solve
    sysm = _five_channel_loop()
    solves = _recording(monkeypatch)
    rep = analyze(sysm)
    assert rep.verdict == "not_absolutely_stable"
    pipe = rep.diagnostics["pipeline"]
    assert len(solves) == 1 and pipe["rank_rounds"] == 0
    assert pipe["rank_stop"] == "equilibrium" and pipe["witness_source"] == "linear"
    assert pipe["linear_equilibrium"] == pytest.approx(1.499, abs=1e-3)
    assert _bench("checker").check(_case(sysm), json.loads(rep.to_json())) == []


def _system(case):
    """The loop of a benchmark input."""
    cls = NonlinearityClass.SLOPE_ODD if case.odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(case.A, case.B, case.C, case.D, SlopeBand(case.mu, case.nu), cls)


def _case(sysm):
    """A loop as an input of the benchmark's checker."""
    return SimpleNamespace(A=sysm.A, B=sysm.B, C=sysm.C, D=sysm.D, mu=sysm.band.mu,
                           nu=sysm.band.nu, odd=sysm.nl_class is NonlinearityClass.SLOPE_ODD,
                           expect_verdict=None)


@pytest.mark.parametrize("loop", ["slope_example", "odd_example", "five_channel"])
def test_a_dual_witness_failing_any_gate_gives_way_to_the_known_input(monkeypatch, request, loop):
    # the paper's examples have rank-one steered points whose witnesses
    # pass; the five-channel loop, past the search's reach, has a steered
    # point that is not rank one and is not deflated.  Each holds a linear
    # equilibrium, so a witness made to fail the sign gate takes that
    # gain's eigenvector on every m, as one failing the equilibrium check
    # does, and the search never runs
    sysm = _five_channel_loop() if loop == "five_channel" else request.getfixturevalue(loop)
    monkeypatch.setattr(report, "extract_certificate",
                        lambda *args: report.Inconclusive("sign", "forced"))
    rep = analyze(sysm)
    assert rep.verdict == "not_absolutely_stable"
    pipe = rep.diagnostics["pipeline"]
    assert pipe["witness_source"] == "linear" and pipe["rank_rounds"] == 0
    assert pipe["rank_stop"] == ("equilibrium" if loop == "five_channel" else "rank_one")
    assert pipe["linear_equilibrium"] >= 1.0
    assert "inconclusive_detail" not in pipe and "equilibrium_search" not in pipe
    assert _bench("checker").check(_case(sysm), json.loads(rep.to_json())) == []


def _dual_pass_ending(monkeypatch, status):
    """Make analyze's dual pass end with status, as a steer point that
    misses the dual's tolerances does, with the point's residuals."""
    real = report.reduce_rank

    def ending(dual, deflate):
        red = real(dual, deflate)
        return engine.SolveResult(status, red.assignment, red.residuals, {
            "ipm_status": red.diagnostics["ipm_status"],
            "ipm_iterations": red.diagnostics["ipm_iterations"],
        })

    monkeypatch.setattr(report, "reduce_rank", ending)


def test_a_dual_pass_at_its_numerical_limit_gives_way_to_the_known_input(
    monkeypatch, slope_example
):
    # the paper's slope example holds a linear equilibrium, so a dual pass
    # that ends numerical_limit leaves that gain's eigenvector as the
    # witness; the dual block reports the pass but none of its blocks
    _dual_pass_ending(monkeypatch, "numerical_limit")
    rep = analyze(slope_example)
    assert rep.verdict == "not_absolutely_stable"
    pipe = rep.diagnostics["pipeline"]
    assert pipe["dual_status"] == rep.dual["status"] == "numerical_limit"
    assert pipe["witness_source"] == "linear"
    assert not any(key.startswith("rank_") for key in pipe)
    assert {"h1", "h2", "z_star", "w_star", "sign_min"} <= set(rep.dual)
    assert not {"H", "f", "g", "X", "Z", "rank"} & set(rep.dual)
    assert _bench("checker").check(_case(slope_example), json.loads(rep.to_json())) == []


@pytest.mark.parametrize("status, loop", [
    ("infeasible", "slope_example"),
    ("numerical_limit", "eight_channel"),
])
def test_dual_not_feasible_is_left_where_no_input_is_known_or_farkas_passed(
    monkeypatch, request, status, loop
):
    # a Farkas certificate that passed stands against any witness, and the
    # eight-channel loop has no linear equilibrium and is past the search
    sysm = _eight_channel_loop() if loop == "eight_channel" else request.getfixturevalue(loop)
    _dual_pass_ending(monkeypatch, status)
    rep = analyze(sysm)
    assert rep.verdict == "inconclusive" and rep.phi is None
    assert rep.diagnostics["pipeline"]["inconclusive_reason"] == "dual_not_feasible"
    assert set(rep.dual) == {"status", "max_equality_residual", "max_cone_violation"}


def test_rounds_that_settle_short_of_rank_one_end_rank():
    # past the search's reach with no linear equilibrium, on the Aizerman
    # edge [0, 0.98 k*] (rng seed 5 at n = 5, k* = 16.128): one round turns
    # H's dominant eigenvector by less than sqrt(tol_rank), so the pass
    # settles on a point that is not rank one and no witness is read
    rep = analyze(_ladder_loop(5, 5, 15.805))
    pipe = rep.diagnostics["pipeline"]
    assert rep.verdict == "inconclusive" and pipe["inconclusive_reason"] == "rank"
    assert pipe["rank_rounds"] == 1 and pipe["rank_stop"] == "settled"
    assert "linear_equilibrium" not in pipe and "witness_source" not in pipe
    assert set(rep.dual) == {"status", "max_equality_residual", "max_cone_violation", "H"}
    assert rep.phi is None


@pytest.mark.parametrize("audit", ["slope_check", "equilibrium_check"])
def test_a_failing_audit_ends_the_report_where_no_input_is_known(monkeypatch, audit):
    # the eight-channel loop's dual witness passes both audits; made to fail
    # one, it has no known input to give way to, and the audit's name is
    # the reason
    if audit == "slope_check":
        real_slope = report.verify_slope
        monkeypatch.setattr(report, "verify_slope",
                            lambda *args: dataclasses.replace(real_slope(*args), ok=False))
    else:
        real_check = report._equilibrium_check
        monkeypatch.setattr(report, "_equilibrium_check",
                            lambda *args: {**real_check(*args), "ok": False})
    rep = analyze(_eight_channel_loop())
    pipe = rep.diagnostics["pipeline"]
    assert rep.verdict == "inconclusive" and pipe["inconclusive_reason"] == audit
    assert pipe[audit]["ok"] is False and pipe["witness_source"] == "dual"
    assert ("equilibrium_check" in pipe) == (audit == "equilibrium_check")
    assert rep.phi is not None and "h1" in rep.dual  # the rejected witness is reported


def test_reduce_rank_reaches_rank_one(monkeypatch):
    # the steered dual point of the five-channel loop has rank ratio 8.3e-3;
    # a deflation round takes it to rank one
    problem = _dual(normalize_band(_five_channel_loop()))
    results = _recording(monkeypatch)
    red = reduce_rank(problem, deflate=True)
    assert red.status == "feasible"
    trail = red.diagnostics["rank_trail"]
    # the trail starts at the steered point, the pass's first solve
    steer_H = problem.reconstruct(results[0].x)["H"]
    assert trail[0] == engine._rank_ratio(steer_H)[0] > 1.0e-6
    assert red.diagnostics["rounds"] >= 1
    assert trail[-1] <= 1.0e-6
    w = np.linalg.eigvalsh(red.assignment["H"])[::-1]
    assert w[1] <= 1.0e-6 * w[0]
    # the factor comes from the eigh the last ratio was read from
    assert np.array_equal(red.factor, engine._rank_ratio(red.assignment["H"])[2])


def test_the_rank_one_factor_splits_clusters_at_tol_rank(slope_dual_reduced):
    # H is rank one when its second eigenvalue is within TOL_RANK times its
    # first; its factor is then the dominant eigenvector, scaled
    ref = slope_dual_reduced.factor
    lam, Q = np.linalg.eigh(slope_dual_reduced.assignment["H"])
    rest = Q[:, :-1]  # orthogonal to the dominant eigenvector
    d = len(lam)
    cases = [
        (np.zeros(d - 1), True),
        (np.full(d - 1, 0.5 * engine.TOL_RANK), True),
        (np.r_[2.0 * engine.TOL_RANK, np.zeros(d - 2)], False),
        (np.full(d - 1, 0.5), False),
    ]
    for tail, rank_one in cases:
        H = lam[-1] * (np.outer(Q[:, -1], Q[:, -1]) + (rest * tail) @ rest.T)
        h = engine._rank_ratio(H)[2]
        if rank_one:
            assert min(np.linalg.norm(h - ref), np.linalg.norm(h + ref)) <= 1.0e-9
        else:
            assert h is None


def test_reduce_rank_decomposes_each_point_once(monkeypatch):
    # one eigh per kept point gives its rank ratio and the next round's
    # deflation directions; dual.verify adds one eigvalsh per solved point,
    # the steer point's included (the IPM's step lengths decompose stacks,
    # which are not counted).  Deflated, the five-channel loop takes its
    # round; corpus-7 (m = 4), whose steered point is not rank one either,
    # is not deflated, as analyze leaves it to its known input, and ends
    # after the steer solve alone
    corpus_7 = next(c for c in _bench("workloads").corpus() if c.name == "corpus-7")
    loops = [(_five_channel_loop(), True, 1, "rank_one"),
             (_system(corpus_7), False, 0, "equilibrium")]
    for sysm, deflate, rounds, stop in loops:
        problem = _dual(normalize_band(sysm))
        calls = []
        with monkeypatch.context() as m:
            solves = _recording(m)
            for name in ("eigh", "eigvalsh"):
                real = getattr(np.linalg, name)

                def counting(a, *args, _real=real, _name=name, **kwargs):
                    if np.ndim(a) == 2:
                        calls.append(_name)
                    return _real(a, *args, **kwargs)

                m.setattr(np.linalg, name, counting)
            red = reduce_rank(problem, deflate)
        assert red.diagnostics["rounds"] == rounds and red.diagnostics["rank_stop"] == stop
        assert red.diagnostics["rank_trail"][0] > engine.TOL_RANK
        assert len(solves) == 1 + rounds
        assert calls.count("eigh") == 1 + rounds
        assert calls.count("eigvalsh") == 1 + rounds
        assert not {"ray", "equilibrium_search"} & set(red.diagnostics)


@pytest.fixture(scope="module")
def segment():
    """(dual, point) of the five-channel loop, where point(s) is the feasible
    dual point (1 - s) x1 + s x0 between its steered point x0 (rank ratio
    8.3e-3) and the rank-one point x1 of its one deflation round."""
    problem = _dual(normalize_band(_five_channel_loop()))
    with pytest.MonkeyPatch.context() as m:
        results = _recording(m)
        reduce_rank(problem, deflate=True)
    x0, x1 = (res.x for res in results)

    def point(s):
        x = (1.0 - s) * x1 + s * x0
        assert problem.verify(x)[0]
        return x

    return problem, point


def _solves_returning(monkeypatch, xs):
    """Make the steer solve and each deflation round's solve return the
    next of xs."""
    points = iter(xs)
    monkeypatch.setattr(
        engine, "solve_conic",
        lambda *args, **kwargs: SimpleNamespace(x=next(points), status="optimal", iterations=0),
    )


def test_reduce_rank_stops_once_the_dominant_eigenvector_settles(segment, monkeypatch):
    # the round lowers the rank ratio (4.11714e-3 -> 4.11706e-3) while its
    # dominant eigenvector turns by about 3e-7 < sqrt(TOL_RANK)
    problem, point = segment
    x = point(0.5 - 1.0e-5)
    _solves_returning(monkeypatch, [point(0.5), x, x])
    red = reduce_rank(problem, deflate=True)
    assert red.diagnostics["rounds"] == 1
    assert red.diagnostics["rank_stop"] == "settled"
    trail = red.diagnostics["rank_trail"]
    assert trail[1] < trail[0] and trail[1] > engine.TOL_RANK
    assert np.array_equal(red.assignment["H"], problem.reconstruct(x)["H"])


def test_reduce_rank_counts_rank_one_before_the_turn(segment, monkeypatch):
    # from rank ratio 2.5e-5 the round reaches rank one while its dominant
    # eigenvector turns by less than sqrt(TOL_RANK): decided, not settled
    problem, point = segment
    x_steer, x = point(3.0e-3), point(0.0)
    V_steer = engine._rank_ratio(problem.reconstruct(x_steer)["H"])[1]
    V = engine._rank_ratio(problem.reconstruct(x)["H"])[1]
    assert np.linalg.norm(V_steer[:, :-1].T @ V[:, -1]) < np.sqrt(engine.TOL_RANK)
    _solves_returning(monkeypatch, [x_steer, x])
    red = reduce_rank(problem, deflate=True)
    assert red.diagnostics["rounds"] == 1
    assert red.diagnostics["rank_stop"] == "rank_one"
    assert red.diagnostics["rank_trail"][-1] <= engine.TOL_RANK


def test_reduce_rank_stops_at_the_round_limit_while_it_turns(segment, monkeypatch):
    # every round lowers the ratio and turns the eigenvector past the
    # threshold without reaching rank one
    problem, point = segment
    xs = [point(1.0 - 0.09 * k) for k in range(engine._MAX_RANK_ROUNDS + 2)]
    _solves_returning(monkeypatch, xs)
    red = reduce_rank(problem, deflate=True)
    assert red.diagnostics["rounds"] == engine._MAX_RANK_ROUNDS
    assert red.diagnostics["rank_stop"] == "max_rounds"


def test_reduce_rank_stops_after_a_round_it_does_not_keep(segment, monkeypatch):
    # a round that does not lower the ratio leaves the direction where it
    # was, and the next round would repeat the same solve
    problem, point = segment
    x_steer = point(0.5)
    _solves_returning(monkeypatch, [x_steer, point(0.6), x_steer])
    red = reduce_rank(problem, deflate=True)
    assert red.diagnostics["rounds"] == 1
    assert red.diagnostics["rank_stop"] == "settled"
    assert np.array_equal(red.assignment["H"], problem.reconstruct(x_steer)["H"])


def test_the_primal_is_infeasible_only_where_its_runs_dual_point_verifies(
    monkeypatch, slope_example
):
    # the slope example's primal runs to its optimum t* = 0, and the run's
    # x side is a dual point; with DualForm.verify made to reject it,
    # nothing shows the primal infeasible
    form = _dual(slope_example)
    assert solve(form).status == "infeasible"
    monkeypatch.setattr(engine.DualForm, "verify", lambda self, x: (False, 0.0, 0.0))
    res = solve(form)
    assert res.status == "numerical_limit" and res.diagnostics["ipm_status"] == "optimal"
    # the margin is the achieved one on every status
    M = multiplier_matrix(res.assignment, slope_example.nl_class)
    L = _lmi_matrix(lmi_congruence(slope_example), res.assignment["P"], M)
    assert res.margin == -np.linalg.eigvalsh(L)[-1]


@pytest.mark.parametrize("below", [True, False])
def test_a_farkas_certificate_is_read_by_its_margin(monkeypatch, decoupled_example, below):
    # the decoupled example's steer solve returns a Farkas certificate y;
    # it shows the dual infeasible exactly when its margin, read as the
    # primal point (P, M, t = 1), reaches PRIMAL_MARGIN
    margin = np.nextafter(engine.PRIMAL_MARGIN, 0.0) if below else engine.PRIMAL_MARGIN
    monkeypatch.setattr(engine, "_primal_true_margin", lambda form, z: margin)
    res = reduce_rank(_dual(decoupled_example), deflate=False)
    assert res.diagnostics["ipm_status"] == "infeasible" and res.margin == margin
    assert res.status == ("numerical_limit" if below else "infeasible")
    assert ("certificate" in res.diagnostics) == (not below)


def test_feasible_primal_measures_its_certificate_once(decoupled_example, monkeypatch):
    # the IPM's accept test computes the achieved margin of the certifying
    # iterate, and the verdict reuses it
    seen = []
    real = engine._primal_true_margin

    def recording(problem, z):
        seen.append(engine._reconstruct(problem.var_slices, z)["P"])
        return real(problem, z)

    monkeypatch.setattr(engine, "_primal_true_margin", recording)
    res = solve(_dual(decoupled_example))
    assert res.status == "feasible"
    assert res.diagnostics["ipm_status"] == "accepted"
    assert sum(np.array_equal(P, res.assignment["P"]) for P in seen) == 1


def test_reduce_rank_keeps_rank_one_warm_start(slope_example, monkeypatch):
    # the steered dual point of the slope example is rank one already: it
    # comes back as the steer solve returned it, with zero rounds run
    problem = _dual(slope_example)
    results = _recording(monkeypatch)
    red = reduce_rank(problem, deflate=True)
    [steer] = results
    assert np.array_equal(red.assignment["H"], problem.reconstruct(steer.x)["H"])
    ok, max_eq, max_cone = problem.verify(steer.x)
    assert ok and red.residuals == engine.Residuals(max_eq, max_cone)
    assert red.diagnostics["rounds"] == 0
    assert red.diagnostics["rank_stop"] == "rank_one"
    [ratio] = red.diagnostics["rank_trail"]
    assert ratio <= 1.0e-6


def _check_primal_certificate(sysm, res):
    """The dual's Farkas certificate, read as (P, M, t = 1), is a strict
    primal solution: L(P, M) <= -I and M in its cone."""
    cert = res.diagnostics["certificate"]
    assert cert["t"][0] == pytest.approx(1.0, abs=1e-9)
    P = cert["P"]
    M = np.diag(cert["M_diag"]) + cert["M_offdiag"]
    L = _lmi_matrix(lmi_congruence(sysm), P, M)
    lam = float(np.linalg.eigvalsh(0.5 * (L + L.T))[-1])
    scale = max(1.0, np.abs(L).max())
    assert lam <= -1.0 + 1e-9 * scale
    odd = sysm.nl_class is NonlinearityClass.SLOPE_ODD
    assert is_member(M, ConeTag.DD if odd else ConeTag.DHD, tol=1e-9 * scale).member


def test_equality_solve_farkas_certifies_infeasible(decoupled_example):
    # the decoupled loop is stable by small gain, so its dual is infeasible
    res = reduce_rank(_dual(decoupled_example), deflate=False)
    assert res.status == "infeasible"
    assert res.diagnostics["ipm_status"] == "infeasible"
    assert res.margin >= engine.PRIMAL_MARGIN
    _check_primal_certificate(decoupled_example, res)


def test_psd_block_infeasible_toy_ends_with_a_checked_certificate():
    # x+ = x / 2 + w / 10, z = x / 10: one state, one channel, stable by
    # small gain; the dual's only PSD block is 2 x 2
    sysm = StateSpaceSystem(
        np.array([[0.5]]), np.array([[0.1]]), np.array([[0.1]]), np.array([[0.0]])
    )
    res = reduce_rank(_dual(sysm), deflate=False)
    assert res.status == "infeasible"
    assert res.margin >= engine.PRIMAL_MARGIN
    _check_primal_certificate(sysm, res)


def test_dual_farkas_certificate_is_a_primal_certificate():
    # small-gain plants of both classes; the decoupled example and the
    # scalar toy above are the other cases
    for seed, (n, m) in enumerate([(2, 3), (3, 2), (2, 2), (3, 4)]):
        sysm = _seeded_system(60 + seed, n, m, odd=bool(seed % 2), gain=0.5)
        res = reduce_rank(_dual(sysm), deflate=False)
        assert res.status == "infeasible"
        assert res.margin >= engine.PRIMAL_MARGIN
        _check_primal_certificate(sysm, res)


def test_equality_solve_feasible_toy():
    # x+ = x / 2 + w, z = x: phi(z) = z / 2 holds every state fixed, so the
    # dual is feasible, and its rank-one point is that equilibrium
    sysm = StateSpaceSystem(
        np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]])
    )
    red = reduce_rank(_dual(sysm), deflate=False)
    assert red.status == "feasible"
    H = red.assignment["H"]
    assert abs(np.trace(H) - 1.0) <= 1.0e-8
    assert np.abs(state_equality_block(sysm, H)).max() <= 1.0e-8
    Y = output_coupling_block(sysm, H)
    assert abs(Y[0, 0] - red.assignment["f"][0] - red.assignment["g"][0]) <= 1.0e-8
    h = np.linalg.eigh(H)[1][:, -1]
    assert h[1] / h[0] == pytest.approx(0.5, abs=1e-6)


def test_steer_solve_stops_at_its_accuracy_floor(odd_example, monkeypatch):
    problem = _dual(odd_example)
    results = _recording(monkeypatch)
    red = reduce_rank(problem, deflate=False)
    steer = results[0]
    # the steered dual solve asks for 1e-11, at the edge of what its
    # rounding allows; it gets within 1e-9 and then stops instead of
    # iterating at the floor
    assert red.status == "feasible"
    assert red.diagnostics["ipm_status"] == steer.status in ("optimal", "stalled")
    assert red.diagnostics["ipm_iterations"] == steer.iterations <= 30
    assert max(steer.rp_rel, steer.rd_rel, steer.gap_rel) <= 1.0e-9
    assert all(res.status != "max_iters" for res in results)


@pytest.mark.parametrize("fixture", ["slope_example", "odd_example"])
def test_witness_is_a_verified_solver_point_as_returned(monkeypatch, request, fixture):
    problem = _dual(request.getfixturevalue(fixture))
    results = _recording(monkeypatch)
    red = reduce_rank(problem, deflate=False)
    # nothing rewrites the point a solve returned before it is read
    H = red.assignment["H"]
    [x] = [res.x for res in results if np.array_equal(H, problem.reconstruct(res.x)["H"])]
    assert problem.verify(x)[0]


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
    solve(_dual(_seeded_system(20, n, m, odd)))
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
    res = solve(_dual(normalize_band(sysm)))
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
        res = solve(_dual(sysm))
        statuses.append(res.status)
        assert res.status in ("feasible", "infeasible")
        P = res.assignment["P"]
        M = np.diag(res.assignment["M_diag"]) + res.assignment["M_offdiag"]
        assert np.array_equal(P, P.T)
        assert is_member(M, ConeTag.DD if odd else ConeTag.DHD).member
        if res.status == "feasible":
            L = _lmi_from_definition(sysm, P, M)
            lam = float(np.linalg.eigvalsh(L)[-1])
            assert lam <= -res.margin + 1e-12 * max(1.0, np.abs(L).max())
    assert statuses[:3] == ["infeasible", "infeasible", "feasible"]
    assert statuses.count("feasible") >= 4 and statuses.count("infeasible") >= 4


@pytest.mark.parametrize("fixture", ["slope_example", "odd_example"])
def test_dual_point_is_the_one_steered_solve(monkeypatch, request, fixture):
    sysm = request.getfixturevalue(fixture)
    results = _recording(monkeypatch)
    passes = []
    real = report.reduce_rank

    def reducing(dual, deflate):
        before = len(results)
        red = real(dual, deflate)
        passes.append((before, len(results), dual, red))
        return red

    monkeypatch.setattr(report, "reduce_rank", reducing)
    rep = analyze(sysm)
    assert rep.verdict == "not_absolutely_stable"
    # a linear equilibrium rules the primal out, so nothing runs before the
    # dual's pass, which is the steer solve and its deflation rounds
    [(before, after, dual, red)] = passes
    assert before == 0
    assert after - before == 1 + red.diagnostics["rounds"]
    steer = dual.reconstruct(results[before].x)
    assert dual.verify(results[before].x)[0]
    pipe = rep.diagnostics["pipeline"]
    assert "dual_source" not in pipe
    assert pipe["rank_trail"][0] == engine._rank_ratio(steer["H"])[0]
    assert rep.primal is None
    assert pipe["linear_equilibrium"] >= 1.0
    assert not {key for key in pipe if key.startswith("primal_")}


def test_dual_point_does_not_depend_on_how_the_primal_ended(monkeypatch, slope_example):
    # the dual pass reads the form alone: neither a capped nor a converged
    # primal solve over the same form moves its point
    form = _dual(slope_example)
    before = reduce_rank(form, deflate=False)
    with monkeypatch.context() as m:
        m.setattr(conic, "MAX_ITERS", 3)
        capped = solve(form)
    assert capped.status == "numerical_limit"
    assert capped.diagnostics["ipm_status"] == "max_iters"
    assert solve(form).status == "infeasible"
    after = reduce_rank(form, deflate=False)
    assert before.status == after.status == "feasible"
    assert np.array_equal(before.assignment["H"], after.assignment["H"])


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


def _raw_row_violation(sysm, assignment):
    """Worst cone violation of the primal's constraints at an assignment,
    written from their definitions (oracles.primal_constraints)."""
    worst = 0.0
    for name, value in primal_constraints(sysm, assignment).items():
        if name == "lmi_margin":
            worst = max(worst, -np.linalg.eigvalsh(value)[0])
        elif value.size:
            off = ~np.eye(len(value), dtype=bool) if value.ndim == 2 else slice(None)
            worst = max(worst, -np.min(value[off], initial=np.inf))
    return worst


def test_a_certificate_is_accepted_whatever_the_raw_rows():
    # the raw rows (the t-shifted LMI block and M's cone rows) do not gate
    # a certificate.  ladder-8's first certificate misses CONE_TOL on them
    # by 0.63; yet its printed M, moved
    # onto its cone, passes the checker's repair, and L(P, M) clears
    # PRIMAL_MARGIN.  ladder-20 is left out for the time it takes
    checker = _bench("checker")
    iterations = {}
    for case in _bench("workloads").ladder()[:5]:
        body = json.loads(analyze(_system(case)).to_json())
        assert checker.check(case, body) == []
        pipe, primal = body["diagnostics"]["pipeline"], body["primal"]
        assert pipe["primal_ipm_status"] == "accepted"
        assert primal["margin"] >= engine.PRIMAL_MARGIN
        iterations[case.name] = pipe["primal_ipm_iterations"]
        if case.name == "ladder-8":
            unit = normalize_band(_system(case))
            res = solve(_dual(unit))
            assert _raw_row_violation(unit, res.assignment) == pytest.approx(0.63, abs=0.01)
            _, moved = checker.repair_multiplier(np.array(primal["M"]), case.odd)
            assert moved <= checker.CONE_TOL
            L, _ = checker.lmi_matrix(case, np.array(primal["P"]), np.array(primal["M"]))
            assert np.linalg.eigvalsh(L)[-1] <= -engine.PRIMAL_MARGIN
    assert iterations == {"ladder-2": 2, "ladder-4": 2, "ladder-8": 2, "ladder-12": 3,
                          "ladder-16": 2}
