"""Every input of the benchmark's `corpus` workload keeps its verdict and its
inconclusive reason.  The table in data/corpus_verdicts.json is the recorded
outcome; a change that moves an entry updates the table and says in
CHANGES.md which input moved and why."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from lurestab import NonlinearityClass, SlopeBand, StateSpaceSystem, analyze, simulate

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


def test_the_table_names_every_corpus_input(corpus):
    assert [case.name for case in corpus] == list(json.loads(TABLE.read_text()))


def test_every_corpus_input_keeps_its_verdict_and_reason(corpus):
    table = json.loads(TABLE.read_text())
    moved = {}
    for case in corpus:
        report = json.loads(analyze(_system(case)).to_json())
        got = [report["verdict"], report["diagnostics"]["pipeline"].get("inconclusive_reason")]
        if got != table[case.name]:
            moved[case.name] = (table[case.name], got)
    assert not moved


def test_every_inconclusive_reason_seen_is_documented(slope_report, odd_report, decoupled_example):
    # analyze's docstring holds the one list of reasons; README.md mirrors it
    doc = " ".join(analyze.__doc__.split())
    listed = {r.strip() for r in doc.split("is one of ", 1)[1].split(".", 1)[0].split(",")}
    assert listed == {
        "band_normalization", "dual_not_feasible", "rank", "sign", "degenerate",
        "slope_check", "equilibrium_check",
    }
    readme = README.read_text()
    assert all(f"`{reason}`" in readme for reason in listed)
    paper = [slope_report, odd_report, analyze(decoupled_example)]
    seen = {rep.diagnostics["pipeline"].get("inconclusive_reason") for rep in paper}
    seen |= {reason for _, reason in json.loads(TABLE.read_text()).values()}
    assert seen - {None} <= listed


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


@pytest.mark.parametrize("index", [12, 32, 39, 41, 48, 65, 74, 119])
def test_equilibrium_of_a_full_corpus_input_holds(index):
    # each witness is an exact equilibrium; those of 12, 32, 39, 41, 74 and
    # 119 are unstable, so a trajectory started at h1 drifts off by up to 3.9
    case = _load_bench("workloads").roadmap_corpus()[index]
    system = _system(case)
    report = analyze(system)
    assert report.verdict == "not_absolutely_stable"
    assert _load_bench("checker").check(case, json.loads(report.to_json())) == []
    if index in (48, 65):
        # the dual point as the solver returned it holds these equilibria to
        # rounding; a rank-one rebuild of it drifts by 2.3 and 0.087
        h1 = np.asarray(report.dual["h1"])
        traj = simulate(system, report.phi, h1, 100)
        drift = np.max(np.linalg.norm(traj.states - h1[None, :], axis=1))
        assert drift <= 1.0e-8 * np.linalg.norm(h1)
