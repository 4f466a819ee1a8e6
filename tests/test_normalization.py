"""Bands other than [0, 1]: the loop transformation at the boundary of analyze.

Every check here is made on the original system and band, from the
definitions, without the normalized system that analyze solves for.
"""

import json

import numpy as np
import pytest

from lurestab import (
    NonlinearityClass,
    SlopeBand,
    StateSpaceSystem,
    StructuralError,
    analyze,
    eval_pwl,
    normalize_band,
)
from lurestab.cli import main
from lurestab.lmi import _lmi_matrix, lmi_congruence

# Unstable on their bands; before the loop transformation both ended as
# "inconclusive" because the dual existed only on [0, 1].
UNSTABLE = {
    "slope_m4": {
        "A": [[-0.007, -0.299], [-0.709, 0.045]],
        "B": [[0.277, 0.248, -1.623, -0.028], [0.432, 0.919, 0.005, -0.613]],
        "C": [[0.223, 1.318], [0.219, -1.705], [0.48, 0.028], [0.001, -0.431]],
        "D": [[0.004, 0.014, -0.242, 0.131], [-0.051, -0.024, -0.068, 0.235],
              [0.169, 0.243, -0.054, -0.232], [-0.051, 0.185, 0.208, -0.146]],
        "mu": -0.23, "nu": 1.83, "class": "slope",
    },
    "odd_m2": {
        "A": [[-0.186, -0.364, 0.257], [-0.26, -0.388, 0.193], [0.103, 0.002, 0.066]],
        "B": [[0.458, 0.034], [0.168, -0.01], [0.513, -0.715]],
        "C": [[0.14, -1.775, -0.464], [1.173, -0.148, -0.59]],
        "D": [[-0.15, 0.252], [-0.309, 0.633]],
        "mu": -0.66, "nu": 1.21, "class": "slope_odd",
    },
}

STABLE = {
    "A": [[-0.292, -0.375], [-0.187, 0.086]],
    "B": [[-0.792, 0.007, -1.288], [1.414, 1.22, -2.325]],
    "C": [[0.188, -0.259], [0.145, 0.233], [-0.046, 0.456]],
    "D": [[-0.052, 0.289, 0.228], [-0.537, 0.221, 0.017], [-0.27, -0.09, 0.08]],
    "mu": -0.3, "nu": 1.12, "class": "slope",
}


def _system(doc):
    return StateSpaceSystem(
        np.array(doc["A"]), np.array(doc["B"]), np.array(doc["C"]), np.array(doc["D"]),
        SlopeBand(doc["mu"], doc["nu"]), NonlinearityClass(doc["class"]),
    )


def test_stable_certificate_holds_on_the_original_band():
    sysm = _system(STABLE)
    rep = analyze(sysm)
    assert rep.verdict == "absolutely_stable"
    assert rep.diagnostics["system"]["band"] == [-0.3, 1.12]
    P, M = np.asarray(rep.primal["P"]), np.asarray(rep.primal["M"])
    n, m = sysm.n, sysm.m
    # M doubly hyperdominant: Z-matrix with nonnegative row and column sums
    off = M - np.diag(np.diag(M))
    scale = np.abs(M).max()
    assert off.max() <= 1e-9 * scale
    assert min(M.sum(axis=0).min(), M.sum(axis=1).min()) >= -1e-9 * scale
    # L(P, M) < 0 with the multiplier 2 (nu z - w)^T M (w - mu z), and P > 0
    mu, nu = sysm.band.mu, sysm.band.nu
    AB = np.hstack([sysm.A, sysm.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    CD = np.hstack([sysm.C, sysm.D])
    OI = np.hstack([np.zeros((m, n)), np.eye(m)])
    left, right = nu * CD - OI, OI - mu * CD
    L = AB.T @ P @ AB - I0.T @ P @ I0 + left.T @ M @ right + right.T @ M.T @ left
    assert np.linalg.eigvalsh(L).max() < -1e-9
    assert np.linalg.eigvalsh(P).min() > 0.0


def test_stable_margin_is_the_achieved_margin_of_the_reported_certificate():
    # the margin is -lambda_max of the normalized LMI at the reported
    # (P, M), mapped to [0, 1] as (P, M (nu - mu)^2), not the optimum
    sysm = _system(STABLE)
    out = json.loads(analyze(sysm).to_json())
    assert out["verdict"] == "absolutely_stable"
    P, M = np.array(out["primal"]["P"]), np.array(out["primal"]["M"])
    width = sysm.band.nu - sysm.band.mu
    L = _lmi_matrix(lmi_congruence(normalize_band(sysm)), P, M * width**2)
    achieved = -float(np.linalg.eigvalsh(0.5 * (L + L.T))[-1])
    assert out["primal"]["margin"] == pytest.approx(achieved, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("name", sorted(UNSTABLE))
def test_witness_is_an_equilibrium_of_the_original_loop(name):
    sysm = _system(UNSTABLE[name])
    rep = analyze(sysm)
    assert rep.verdict == "not_absolutely_stable"
    h1 = np.asarray(rep.dual["h1"])
    w = np.asarray(rep.dual["w_star"])
    z = np.asarray(rep.dual["z_star"])
    assert np.array_equal(w, np.asarray(rep.dual["h2"]))
    assert np.linalg.norm(h1) > 0.0
    assert np.allclose(sysm.A @ h1 + sysm.B @ w, h1, rtol=0.0, atol=1e-9)
    assert np.allclose(sysm.C @ h1 + sysm.D @ w, z, rtol=0.0, atol=1e-9)
    phi = rep.phi
    assert np.allclose(eval_pwl(phi, z), w, rtol=0.0, atol=1e-9)
    assert eval_pwl(phi, 0.0) == 0.0
    slopes = np.diff(phi.w_nodes) / np.diff(phi.z_nodes)
    assert slopes.min() >= sysm.band.mu - 1e-9
    assert slopes.max() <= sysm.band.nu + 1e-9
    assert rep.diagnostics["pipeline"]["slope_check"]["ok"]
    if phi.odd:
        assert np.array_equal(eval_pwl(phi, -phi.z_nodes), -phi.w_nodes)


def test_unstable_loop_at_mu_is_inconclusive_and_exits_20(tmp_path, capsys):
    # phi = mu z closes the loop as x+ = (0.5 - 2) x
    doc = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]],
           "mu": -2.0, "nu": 1.0, "class": "slope"}
    rep = analyze(_system(doc))
    assert rep.verdict == "inconclusive"
    pipe = rep.diagnostics["pipeline"]
    assert pipe["inconclusive_reason"] == "band_normalization"
    assert "spectral radius 1.5" in pipe["inconclusive_detail"]
    assert rep.primal is None and rep.dual is None and rep.phi is None

    path = tmp_path / "unstable_at_mu.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 20
    out = json.loads(capsys.readouterr().out)
    assert out["diagnostics"]["pipeline"]["inconclusive_reason"] == "band_normalization"


def test_ill_posed_loop_at_mu_is_inconclusive():
    # 1 - mu D = 1 - (-0.5)(-2) = 0
    doc = {"A": [[0.5]], "B": [[0.1]], "C": [[0.1]], "D": [[-2.0]],
           "mu": -0.5, "nu": 1.0, "class": "slope"}
    rep = analyze(_system(doc))
    assert rep.verdict == "inconclusive"
    pipe = rep.diagnostics["pipeline"]
    assert pipe["inconclusive_reason"] == "band_normalization"
    assert "singular" in pipe["inconclusive_detail"]


@pytest.mark.parametrize("fixture", ["slope_example", "odd_example", "decoupled_example"])
def test_normalization_is_the_identity_on_the_unit_band(fixture, request):
    sysm = request.getfixturevalue(fixture)
    unit = normalize_band(sysm)
    for name in "ABCD":
        before, after = getattr(sysm, name), getattr(unit, name)
        assert after.dtype == before.dtype and after.shape == before.shape
        assert after.tobytes() == before.tobytes()
    assert unit.band == sysm.band and unit.nl_class is sysm.nl_class


def test_normalized_loop_has_unit_band_and_same_closed_loop():
    sysm = _system(STABLE)
    unit = normalize_band(sysm)
    assert unit.band == SlopeBand(0.0, 1.0)
    # closing the normalized loop with psi = 0 is closing the original one
    # with phi = mu z
    mu = sysm.band.mu
    E = np.linalg.inv(np.eye(sysm.m) - mu * sysm.D)
    assert np.allclose(unit.A, sysm.A + mu * sysm.B @ E @ sysm.C, atol=1e-14)


def test_degenerate_band_is_rejected(tmp_path, capsys):
    with pytest.raises(StructuralError, match="only phi = 0"):
        SlopeBand(0.0, 0.0)
    path = tmp_path / "zero_band.json"
    path.write_text(json.dumps(dict(STABLE, mu=0.0, nu=0.0)))
    assert main(["analyze", str(path)]) == 1
    assert "only phi = 0" in capsys.readouterr().err
