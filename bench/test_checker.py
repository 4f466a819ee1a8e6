"""The independent checker accepts the program's verdicts and rejects tampered ones.

    python3 -m pytest bench/test_checker.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import lurestab  # noqa: E402
import workloads  # noqa: E402


def _report(case):
    cls = lurestab.NonlinearityClass.SLOPE_ODD if case.odd else lurestab.NonlinearityClass.SLOPE
    sys_ = lurestab.StateSpaceSystem(
        case.A, case.B, case.C, case.D, lurestab.SlopeBand(case.mu, case.nu), cls
    )
    return json.loads(lurestab.analyze(sys_).to_json())


@pytest.fixture(scope="module")
def unstable():
    case = workloads.paper()[0]  # sys_slope
    return case, _report(case)


@pytest.fixture(scope="module")
def stable():
    case = workloads.ladder()[1]  # n = m = 4
    return case, _report(case)


def test_accepts_the_programs_verdicts(unstable, stable):
    for case, report in (unstable, stable):
        assert checker.check(case, report) == []


def test_rejects_perturbed_h1(unstable):
    case, report = unstable
    bad = copy.deepcopy(report)
    bad["dual"]["h1"][0] *= 1.0 + 1.0e-6
    assert any("h1 = A h1" in p for p in checker.check(case, bad))


def test_rejects_breakpoint_slope_above_nu(unstable):
    case, report = unstable
    bad = copy.deepcopy(report)
    bp = bad["phi"]["breakpoints"]
    (z0, w0), (z1, _) = bp[-2], bp[-1]
    bp[-1][1] = w0 + (case.nu + 0.5) * (z1 - z0)
    assert any("slopes" in p for p in checker.check(case, bad))


def test_rejects_multiplier_with_positive_offdiagonal(stable):
    case, report = stable
    bad = copy.deepcopy(report)
    M = np.asarray(bad["primal"]["M"])
    bad["primal"]["M"][0][1] = 0.1 * float(np.abs(M).max())
    assert any("cone" in p for p in checker.check(case, bad))


def test_rejects_wrong_expected_verdict(stable):
    case, report = stable
    bad = dict(report, verdict="inconclusive")
    assert checker.check(case, bad)
