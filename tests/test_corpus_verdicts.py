"""Every input of the benchmark's `corpus` workload keeps its verdict and its
inconclusive reason.  The table in data/corpus_verdicts.json is the recorded
outcome; a change that moves an entry updates the table and says in
CHANGES.md which input moved and why."""

import importlib.util
import json
import pathlib

import pytest

from lurestab import NonlinearityClass, SlopeBand, StateSpaceSystem, analyze

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
TABLE = pathlib.Path(__file__).parent / "data" / "corpus_verdicts.json"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def corpus():
    return _load_workloads().corpus()


def test_the_table_names_every_corpus_input(corpus):
    assert [case.name for case in corpus] == list(json.loads(TABLE.read_text()))


def test_every_corpus_input_keeps_its_verdict_and_reason(corpus):
    table = json.loads(TABLE.read_text())
    moved = {}
    for case in corpus:
        cls = NonlinearityClass.SLOPE_ODD if case.odd else NonlinearityClass.SLOPE
        system = StateSpaceSystem(
            case.A, case.B, case.C, case.D, SlopeBand(case.mu, case.nu), cls
        )
        report = json.loads(analyze(system).to_json())
        got = [report["verdict"], report["diagnostics"]["pipeline"].get("inconclusive_reason")]
        if got != table[case.name]:
            moved[case.name] = (table[case.name], got)
    assert not moved


@pytest.mark.parametrize("index", [48, 65])
def test_equilibrium_of_a_full_corpus_input_holds(index):
    # the dual point as the solver returned it holds these equilibria to
    # rounding; a rank-one rebuild of it drifts by 2.3 and 0.087
    case = _load_workloads().roadmap_corpus()[index]
    cls = NonlinearityClass.SLOPE_ODD if case.odd else NonlinearityClass.SLOPE
    system = StateSpaceSystem(case.A, case.B, case.C, case.D, SlopeBand(case.mu, case.nu), cls)
    report = analyze(system)
    assert report.verdict == "not_absolutely_stable"
    assert report.diagnostics["pipeline"]["equilibrium_deviation"] <= 1.0e-8
