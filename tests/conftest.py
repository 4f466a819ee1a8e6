import json
import pathlib
import numpy as np
import pytest

from lurestab import NonlinearityClass, SlopeBand, StateSpaceSystem, analyze
from lurestab.engine import build_dual, reduce_rank
from lurestab.lmi import build_primal

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _system_from_json(path):
    raw = json.loads(path.read_text())
    nl = NonlinearityClass(raw["class"])
    return StateSpaceSystem(
        np.array(raw["A"], dtype=float),
        np.array(raw["B"], dtype=float),
        np.array(raw["C"], dtype=float),
        np.array(raw["D"], dtype=float),
        SlopeBand(float(raw["mu"]), float(raw["nu"])),
        nl,
    )


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def slope_example():
    """Two-state, four-channel system whose slope-class LMI is infeasible."""
    return _system_from_json(DATA_DIR / "sys_slope.json")


@pytest.fixture(scope="session")
def odd_example():
    """Two-state, four-channel system analyzed against the odd slope class."""
    return _system_from_json(DATA_DIR / "sys_slope_odd.json")


@pytest.fixture(scope="session")
def decoupled_example():
    return _system_from_json(DATA_DIR / "sys_decoupled.json")


@pytest.fixture(scope="session")
def slope_dual_reduced(slope_example):
    """The dual pass's feasible result for the slope example, whose steered
    point is rank one."""
    return reduce_rank(build_dual(build_primal(slope_example)), deflate=False)


@pytest.fixture(scope="session")
def odd_dual_reduced(odd_example):
    return reduce_rank(build_dual(build_primal(odd_example)), deflate=False)


@pytest.fixture(scope="session")
def slope_report(slope_example):
    """Analysis of the slope example, shared across tests (deterministic)."""
    return analyze(slope_example)


@pytest.fixture(scope="session")
def odd_report(odd_example):
    return analyze(odd_example)
