"""Every input of the benchmark's `corpus` workload keeps its verdict and its
inconclusive reason.  The table in data/corpus_verdicts.json is the recorded
outcome; a change that moves an entry updates the table and says in
CHANGES.md which input moved and why."""

import dataclasses
import importlib.util
import json
import pathlib
import re

import numpy as np
import pytest

import lurestab.report
from lurestab import NonlinearityClass, SlopeBand, StateSpaceSystem, analyze, engine, simulate
from lurestab.equilibria import TOL_EQUILIBRIUM, linear_equilibrium, search
from lurestab.lmi import build_primal
from lurestab.system import normalize_band
from oracles import has_equilibrium_exactly

ROOT = pathlib.Path(__file__).resolve().parents[1]
TABLE = pathlib.Path(__file__).parent / "data" / "corpus_verdicts.json"
README = ROOT / "README.md"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _system(case):
    cls = NonlinearityClass.SLOPE_ODD if case.odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(case.A, case.B, case.C, case.D, SlopeBand(case.mu, case.nu), cls)


@pytest.fixture(scope="module")
def corpus():
    return _load_bench("workloads").corpus()


class _Counting:
    """analyze with its solve_conic calls, reduce_rank passes and equilibrium
    searches counted."""

    def __init__(self, m):
        self.calls, self.passes, self.searches = [], [], 0
        real_solve, real_reduce = engine.solve_conic, lurestab.report.reduce_rank
        real_search = lurestab.report.search

        def counting(*args, **kwargs):
            self.calls.append(None)
            return real_solve(*args, **kwargs)

        def reducing(dual, deflate):
            before = len(self.calls)
            red = real_reduce(dual, deflate)
            self.passes.append((len(self.calls) - before, red))
            return red

        def searching(sys):
            self.searches += 1
            return real_search(sys)

        m.setattr(engine, "solve_conic", counting)
        m.setattr(lurestab.report, "reduce_rank", reducing)
        m.setattr(lurestab.report, "search", searching)

    def analyze(self, system):
        """(report, solve_conic calls, [(calls, result) of each reduce_rank],
        equilibrium searches) of one analysis."""
        self.calls.clear()
        self.passes.clear()
        self.searches = 0
        report = json.loads(analyze(system).to_json())
        return report, len(self.calls), list(self.passes), self.searches


@pytest.fixture(scope="module")
def corpus_runs(corpus):
    """(case, report, solve_conic calls, [(calls, result) of each
    reduce_rank], equilibrium searches) for every corpus input, in one pass."""
    with pytest.MonkeyPatch.context() as m:
        counted = _Counting(m)
        return [(case, *counted.analyze(_system(case))) for case in corpus]


def test_the_table_names_every_corpus_input(corpus):
    assert [case.name for case in corpus] == list(json.loads(TABLE.read_text()))


def test_every_corpus_input_keeps_its_verdict_and_reason(corpus_runs):
    table = json.loads(TABLE.read_text())
    checker = _load_bench("checker")
    moved, over_budget, rejected = {}, {}, {}
    for case, report, calls, _, _ in corpus_runs:
        pipe = report["diagnostics"]["pipeline"]
        got = [report["verdict"], pipe.get("inconclusive_reason")]
        if got != table[case.name]:
            moved[case.name] = (table[case.name], got)
        # every decided verdict holds by the independent checker
        problems = [] if report["verdict"] == "inconclusive" else checker.check(case, report)
        if problems:
            rejected[case.name] = problems
        # the primal alone decides a stable report, and the equilibrium
        # search after it a no_equilibrium one; any other report adds one
        # dual solve and its deflation rounds, and one with a linear
        # equilibrium skips the primal
        primal_only = report["verdict"] == "absolutely_stable" or got[1] == "no_equilibrium"
        if "linear_equilibrium" in pipe:
            budget = 1 + pipe["rank_rounds"]
        else:
            budget = 1 if primal_only else 2 + pipe.get("rank_rounds", 0)
        if calls != budget:
            over_budget[case.name] = (budget, calls)
    assert not moved
    assert not over_budget
    assert not rejected


def test_each_dual_pass_is_one_steer_solve_and_its_rounds(corpus_runs):
    # the steer solve runs inside reduce_rank, whose result counts the
    # deflation rounds only (the benchmark's engine.reduce_rank.rounds).
    # Every corpus loop has m <= 4, so a steer point that is not rank one
    # takes the known equilibrium input as the witness and no round runs:
    # the linear gain's eigenvector where there is one, else the search's
    # ray.  A loop the search proves to have no equilibrium runs no dual pass
    stops = set()
    for case, report, _, passes, _ in corpus_runs:
        pipe = report["diagnostics"]["pipeline"]
        assert len(passes) == ("dual_status" in pipe), case.name
        if pipe.get("inconclusive_reason") == "no_equilibrium":
            assert not passes, case.name
        for calls, red in passes:
            assert calls == 1 + red.diagnostics.get("rounds", 0), case.name
            if red.status == "feasible":
                stop = red.diagnostics["rank_stop"]
                stops.add(stop)
                assert red.diagnostics["rounds"] == 0, case.name
                linear = "linear_equilibrium" in pipe
                ratio = red.diagnostics["rank_trail"][0]
                assert (stop != "rank_one") == (ratio > engine.TOL_RANK), case.name
                # the search runs before the dual pass exactly where no
                # linear gain shows an equilibrium
                assert ("equilibrium_search" in pipe) != linear, case.name
                assert pipe.get("inconclusive_reason") not in ("rank", "no_equilibrium"), case.name
                if stop == "equilibrium" and report["verdict"] != "inconclusive":
                    assert pipe["witness_source"] == ("linear" if linear else "search"), case.name
                if stop == "rank_one":
                    assert "witness_source" not in pipe, case.name
    assert stops == {"rank_one", "equilibrium"}


def test_a_linear_equilibrium_skips_the_primal_and_only_on_unstable_loops(
        corpus_runs, slope_report, odd_report, decoupled_example):
    # z / lambda is a class map with a nonzero equilibrium, so the LMI has
    # no strict solution: the pre-test fires on no stable loop, each report
    # it fires on is unstable and has no primal block, and the primal,
    # forced, never certifies those loops
    workloads = _load_bench("workloads")
    for case in workloads.ladder():  # all stable by small gain
        assert linear_equilibrium(_unit(case)) is None, case.name
    assert linear_equilibrium(normalize_band(decoupled_example)) is None
    fired = []
    runs = [(case.name, report) for case, report, *_ in corpus_runs]
    runs += [(name, json.loads(rep.to_json()))
             for name, rep in (("sys_slope", slope_report), ("sys_slope_odd", odd_report))]
    for name, report in runs:
        pipe = report["diagnostics"]["pipeline"]
        if "linear_equilibrium" not in pipe:
            assert report["primal"] is not None, name
            continue
        assert pipe["linear_equilibrium"] >= 1.0, name
        assert report["verdict"] == "not_absolutely_stable", name
        assert report["primal"] is None, name
        assert not {k for k in pipe if k.startswith("primal_")}, name
        fired.append(name)
    assert len(fired) == 13 and {"sys_slope", "sys_slope_odd"} <= set(fired)
    for case, *_ in corpus_runs:
        if case.name in fired:
            form = engine.build_dual(build_primal(_unit(case)))
            assert engine.solve(form).status != "feasible", case.name


def test_a_certificate_is_accepted_whatever_its_t(corpus_runs):
    # the primal accepts the first iterate whose L(P, M), at M moved onto
    # its cone, clears PRIMAL_MARGIN, whatever its margin variable t: these
    # three loops stop at an iterate whose t is still below PRIMAL_MARGIN,
    # one iteration before the first whose t clears it, and the certificate
    # holds by the independent checker
    checker = _load_bench("checker")
    pinned = {"corpus-34": 2, "corpus-61": 2, "corpus-100": 6}
    iterations = {}
    for case, report, *_ in corpus_runs:
        if case.name not in pinned:
            continue
        pipe, primal = report["diagnostics"]["pipeline"], report["primal"]
        assert pipe["primal_ipm_status"] == "accepted", case.name
        iterations[case.name] = pipe["primal_ipm_iterations"]
        L, _ = checker.lmi_matrix(case, np.array(primal["P"]), np.array(primal["M"]))
        assert np.linalg.eigvalsh(L)[-1] <= -engine.PRIMAL_MARGIN, case.name
        assert primal["margin"] >= engine.PRIMAL_MARGIN, case.name
        assert checker.check(case, report) == [], case.name
    assert iterations == pinned


def test_a_search_witness_after_the_primal_and_the_dual(corpus_runs):
    # corpus-43 holds no linear equilibrium: the primal fails, the search
    # finds a ray, and the steer point, which is not rank one, gives way to it
    [(report, calls, passes)] = [
        (report, calls, passes) for case, report, calls, passes, _ in corpus_runs
        if case.name == "corpus-43"
    ]
    pipe = report["diagnostics"]["pipeline"]
    assert "linear_equilibrium" not in pipe
    assert report["primal"]["status"] == "infeasible"
    assert calls == 2 and len(passes) == 1 and passes[0][0] == 1
    assert pipe["witness_source"] == "search"
    assert report["verdict"] == "not_absolutely_stable"


def test_one_form_serves_the_primal_solve_and_the_dual_pass(corpus, monkeypatch):
    # corpus-43 runs both the primal and the dual pass (above): analyze
    # transposes its primal once and hands that one form to both
    built, solved, reduced = [], [], []
    report = lurestab.report
    build, solve, reduce = report.build_dual, report.solve, report.reduce_rank
    monkeypatch.setattr(report, "build_dual", lambda p: built.append(build(p)) or built[-1])
    monkeypatch.setattr(report, "solve", lambda form: solved.append(form) or solve(form))
    monkeypatch.setattr(report, "reduce_rank",
                        lambda form, deflate: reduced.append(form) or reduce(form, deflate))
    [case] = [case for case in corpus if case.name == "corpus-43"]
    assert analyze(_system(case)).verdict == "not_absolutely_stable"
    [form] = built
    assert isinstance(form, engine.DualForm)
    assert solved == reduced == [form]


def test_every_rank_stop_seen_is_documented(corpus_runs):
    # README.md lists the one set of values a dual pass stops with
    stops = {"rank_one", "equilibrium", "settled", "max_rounds"}
    readme = " ".join(README.read_text().split())
    listed = readme.split("`rank_stop` is one of ", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"`(\w+)`", listed)) == stops
    seen = {report["diagnostics"]["pipeline"].get("rank_stop") for _, report, *_ in corpus_runs}
    seen |= {red.diagnostics.get("rank_stop") for *_, passes, _ in corpus_runs for _, red in passes}
    assert seen - {None} <= stops


def test_the_pass_makes_52_solves_and_no_round(corpus_runs):
    # counts, not seconds: the equilibrium search answers every steer point
    # that is not rank one, so no corpus loop runs a deflation round, the
    # 10 loops it proves to have no equilibrium run no dual solve, and the
    # 11 with a linear equilibrium no primal solve
    assert sum(calls for _, _, calls, _, _ in corpus_runs) == 52
    rounds = [report["diagnostics"]["pipeline"].get("rank_rounds", 0) for _, report, *_ in corpus_runs]
    assert sum(rounds) == 0


def test_the_search_runs_at_most_once_per_analyze(corpus_runs, slope_example, odd_example,
                                                  decoupled_example):
    # before the dual pass unless a linear gain shows an equilibrium, whose
    # eigenvector is then the fallback witness; the paper's examples hold
    # such a gain, so they never search.  On corpus the search runs on 13
    # loops, corpus-106 among them, whose steer point is rank one, and a
    # report carries the search exactly when it ran
    for case, report, _, _, searches in corpus_runs:
        assert searches <= 1, case.name
        assert bool(searches) == ("equilibrium_search" in report["diagnostics"]["pipeline"])
    assert sum(searches for *_, searches in corpus_runs) == 13
    with pytest.MonkeyPatch.context() as m:
        counted = _Counting(m)
        for system in (slope_example, odd_example, decoupled_example):
            assert counted.analyze(system)[3] == 0


def test_every_inconclusive_reason_seen_is_documented(slope_report, odd_report, decoupled_example):
    # analyze's docstring holds the one list of reasons; README.md mirrors it
    doc = " ".join(analyze.__doc__.split())
    listed = {r.strip() for r in doc.split("is one of ", 1)[1].split(".", 1)[0].split(",")}
    assert listed == {
        "band_normalization", "dual_not_feasible", "no_equilibrium", "rank", "sign",
        "degenerate", "slope_check", "equilibrium_check",
    }
    readme = README.read_text()
    assert all(f"`{reason}`" in readme for reason in listed)
    paper = [slope_report, odd_report, analyze(decoupled_example)]
    seen = {rep.diagnostics["pipeline"].get("inconclusive_reason") for rep in paper}
    seen |= {reason for _, reason in json.loads(TABLE.read_text()).values()}
    assert seen - {None} <= listed


def _unit(case):
    return normalize_band(_system(case))


def _scaled(case, t):
    """The same loop under the exact state scaling x = t x~."""
    return dataclasses.replace(case, B=case.B / t, C=case.C * t)


def _reversed(case):
    """The same loop with its channels in reverse order."""
    return dataclasses.replace(case, B=case.B[:, ::-1], C=case.C[::-1], D=case.D[::-1, ::-1])


def test_no_stable_loop_has_an_equilibrium_and_every_witness_is_one(corpus_runs):
    decided = 0
    for case, report, *_ in corpus_runs:
        if report["verdict"] != "inconclusive":
            has_one = search(_unit(case))[1] is not None
            assert has_one == (report["verdict"] == "not_absolutely_stable"), case.name
            decided += 1
    assert decided == 39


def test_every_no_equilibrium_report_is_proved_exactly(corpus_runs):
    stopped = []
    for case, report, *_ in corpus_runs:
        pipe = report["diagnostics"]["pipeline"]
        if pipe.get("inconclusive_reason") == "no_equilibrium":
            assert pipe["equilibrium_search"]["closest"] > TOL_EQUILIBRIUM
            assert not has_equilibrium_exactly(_unit(case)), case.name
            # the search ran before the dual pass, which never started
            assert report["dual"] is None, case.name
            assert not {"dual_status", "rank_trail", "rank_rounds", "rank_stop"} & set(pipe), case.name
            stopped.append(int(case.name.split("-")[1]))
    assert stopped == [25, 31, 40, 58, 67, 70, 76, 85, 94, 103]


def test_the_equilibrium_search_is_invariant_on_the_full_corpus():
    # and it finds a ray wherever a linear gain shows an equilibrium, the
    # test that lets analyze put the search after the dual pass
    linear = 0
    for case in _load_bench("workloads").roadmap_corpus():
        changed = (case, _scaled(case, 0.25), _scaled(case, 4.0), _scaled(case, 64.0), _reversed(case))
        found = {search(_unit(c))[1] is not None for c in changed}
        assert len(found) == 1, case.name
        if linear_equilibrium(_unit(case)) is not None:
            assert found == {True}, case.name
            linear += 1
    assert linear > 0


def test_no_corpus_loop_is_decided_both_ways_under_exact_changes(corpus_runs):
    checker = _load_bench("checker")
    for case, report, *_ in corpus_runs:
        verdicts = {report["verdict"]}
        for changed in (_scaled(case, 0.25), _scaled(case, 4.0), _scaled(case, 64.0), _reversed(case)):
            body = json.loads(analyze(_system(changed)).to_json())
            verdicts.add(body["verdict"])
            if body["verdict"] != "inconclusive":
                assert checker.check(changed, body) == [], changed.name
        assert not {"absolutely_stable", "not_absolutely_stable"} <= verdicts, case.name


def test_a_witness_without_a_contracting_loop_carries_both_residuals(corpus):
    # ||D|| max|slope| >= 1 on corpus-22: the loop equation has no
    # contraction to simulate with, but the equilibrium check is algebraic
    case = next(c for c in corpus if c.name == "corpus-22")
    report = analyze(_system(case))
    assert report.verdict == "not_absolutely_stable"
    eq = report.diagnostics["pipeline"]["equilibrium_check"]
    assert eq["ok"]
    assert eq["state_residual"] <= eq["state_bound"]
    assert eq["loop_residual"] <= eq["loop_bound"]


@pytest.mark.parametrize("index", [12, 20, 23, 29, 32, 39, 41, 48, 54, 65, 74, 119])
def test_equilibrium_of_a_full_corpus_input_holds(index):
    # each witness is an exact equilibrium; those of 12, 32, 39, 41, 74 and
    # 119 are unstable, so a trajectory started at h1 drifts off by up to 3.9.
    # 20, 23 and 48 take their witness from the equilibrium search and 29,
    # 54 and 74 from the linear gain's eigenvector; 20, 23, 29 and 54 ended
    # `rank` while the deflation rounds ran
    case = _load_bench("workloads").roadmap_corpus()[index]
    system = _system(case)
    report = analyze(system)
    assert report.verdict == "not_absolutely_stable"
    assert _load_bench("checker").check(case, json.loads(report.to_json())) == []
    source = report.diagnostics["pipeline"].get("witness_source")
    assert source == ("search" if index in (20, 23, 48) else
                      "linear" if index in (29, 54, 74) else None)
    if index in (48, 65):
        # the dual point as the solver returned it holds these equilibria to
        # rounding; a rank-one rebuild of it drifts by 2.3 and 0.087
        h1 = np.asarray(report.dual["h1"])
        traj = simulate(system, report.phi, h1, 100)
        drift = np.max(np.linalg.norm(traj.states - h1[None, :], axis=1))
        assert drift <= 1.0e-8 * np.linalg.norm(h1)
