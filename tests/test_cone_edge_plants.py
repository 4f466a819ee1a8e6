"""Plants whose primal certifies only at a multiplier just outside its cone.

Each of data/cone_edge_plants.json is an m = 1 slope-class loop with a small
||B|| and D from 29 to 1.7e3.  Its primal IPM returns a multiplier of
-9.3e-10 to -2.9e-10 on the normalized band, inside CONE_TOL, and the
margin of L read at that M rests on the violation:
no valid certificate has M <= 0, since with M = 0 the (w, w) block of L is
B^T P B > 0.  Read at M moved onto its cone, none of them certifies.

They are draws 42, 56, 361, 416 and 565 (named seed7-draw<k>) of

    rng = np.random.default_rng(7)
    for k in range(600):
        n = int(rng.integers(1, 5)); m = 1
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.9999) / max(abs(eigvals(A)).max(), 1e-9)
        B = rng.normal(size=(n, m)) * 10 ** rng.uniform(-6, 3)
        C = rng.normal(size=(m, n)) * 10 ** rng.uniform(-6, 3)
        D = abs(rng.normal(size=(m, m)) * 10 ** rng.uniform(-6, 3))
        band = [0, 10 ** rng.uniform(-1, 1)], slope class

the draws that bench/checker.py rejected as stable before M was moved onto
its cone.  Each is decided not absolutely stable, and the checker accepts
the witness.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from lurestab import NonlinearityClass, SlopeBand, StateSpaceSystem, analyze

ROOT = pathlib.Path(__file__).resolve().parents[1]
PLANTS = json.loads((pathlib.Path(__file__).parent / "data" / "cone_edge_plants.json").read_text())
FALLBACK = {"seed7-draw42", "seed7-draw56", "seed7-draw565"}


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(PLANTS))
def test_a_cone_edge_plant_gets_no_false_stable_verdict(name):
    raw = PLANTS[name]
    A, B, C, D = (np.array(raw[k], dtype=float) for k in "ABCD")
    system = StateSpaceSystem(
        A, B, C, D, SlopeBand(raw["mu"], raw["nu"]), NonlinearityClass(raw["class"])
    )
    report = json.loads(analyze(system).to_json())
    assert report["verdict"] == "not_absolutely_stable"
    # the rank-one dual witnesses of three of them miss the state equation
    # (residuals 2.4e-9, 2.1e-9 and 1.1e-6) and give way to the linear
    # gain's eigenvector; every one of them has a linear equilibrium
    pipe = report["diagnostics"]["pipeline"]
    assert pipe["linear_equilibrium"] >= 1.0
    fallback = pipe["rank_stop"] == "rank_one" and pipe.get("witness_source") == "linear"
    assert fallback == (name in FALLBACK)
    case = _load_bench("workloads")._case(
        name, A, B, C, D, raw["mu"], raw["nu"], raw["class"] == "slope_odd"
    )
    assert _load_bench("checker").check(case, report) == []
