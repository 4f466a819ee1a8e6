"""End-to-end acceptance checks, one test per contract criterion.

Run with -v to get one pass/fail line per criterion.  Values labeled
report-only are printed (visible with -s or on failure) but never gated,
because the extremal certificate need not be unique.
"""

import json
import time

import numpy as np
import pytest

from lurestab.cli import main
from cones import ConeTag
from helpers import random_member
from lurestab.lmi import _lmi_matrix, lmi_congruence
from oracles import (
    audit_duality,
    audit_multiplier_inequality,
    output_coupling_block,
    sample_slope_fn,
    state_equality_block,
)
from lurestab.pwl import PiecewiseLinearMap, eval_pwl, verify_slope
from lurestab.simulate import simulate
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem

# independently reported certificates for the two example systems, used
# only for non-gating similarity checks (the extremal point need not be
# unique, so direction mismatches are reported rather than failed)
_H1_EXPECTED_SLOPE = np.array([1.3898, 1.0337])
_W_EXPECTED_SLOPE = np.array([-0.0513, -0.0582, -0.0513, 0.0151])
_H1_EXPECTED_ODD = np.array([1.7238, -0.1691])


def _cosine(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def _run_analyze(data_dir, tmp_path, name):
    report_path = tmp_path / f"{name}.json"
    t0 = time.perf_counter()
    code = main(["analyze", str(data_dir / name), "--out", str(report_path)])
    elapsed = time.perf_counter() - t0
    return code, json.loads(report_path.read_text()), elapsed


def _check_example_reproduction(doc, code, elapsed, band):
    assert code == 10
    assert doc["verdict"] == "not_absolutely_stable"
    assert doc["dual"]["status"] == "feasible"
    assert doc["dual"]["max_equality_residual"] <= 1.0e-8

    H = np.asarray(doc["dual"]["H"], dtype=float)
    w = np.linalg.eigvalsh(H)[::-1]
    assert w[1] <= 1.0e-6 * w[0]

    h1 = np.asarray(doc["dual"]["h1"], dtype=float)
    h2 = np.asarray(doc["dual"]["h2"], dtype=float)
    return h1, h2, elapsed


def test_criterion_1_slope_example_reproduction(data_dir, tmp_path, slope_example):
    code, doc, elapsed = _run_analyze(data_dir, tmp_path, "sys_slope.json")
    h1, h2, elapsed = _check_example_reproduction(doc, code, elapsed, slope_example.band)

    v = slope_example.A @ h1 + slope_example.B @ h2
    assert np.linalg.norm(v - h1) <= 1.0e-6 * np.linalg.norm(h1)
    assert np.min(v * h1) >= -1.0e-9 * np.linalg.norm(h1) ** 2

    phi = PiecewiseLinearMap(
        np.asarray(doc["phi"]["breakpoints"], dtype=float), odd=doc["phi"]["odd"]
    )
    assert verify_slope(phi, slope_example.band).ok
    assert elapsed <= 10.0

    cos_h1 = _cosine(h1, _H1_EXPECTED_SLOPE)
    cos_w = _cosine(h2, _W_EXPECTED_SLOPE)
    print(
        f"criterion 1 report-only: cos(h1, expected) = {cos_h1:.7f}, "
        f"cos(w*, expected) = {cos_w:.7f} (threshold 0.999, non-gating)"
    )


def test_criterion_2_odd_example_reproduction(data_dir, tmp_path, odd_example):
    code, doc, elapsed = _run_analyze(data_dir, tmp_path, "sys_slope_odd.json")
    h1, h2, elapsed = _check_example_reproduction(doc, code, elapsed, odd_example.band)

    v = odd_example.A @ h1 + odd_example.B @ h2
    assert np.linalg.norm(v - h1) <= 1.0e-6 * np.linalg.norm(h1)
    assert np.min(v * h1) >= -1.0e-9 * np.linalg.norm(h1) ** 2

    phi = PiecewiseLinearMap(
        np.asarray(doc["phi"]["breakpoints"], dtype=float), odd=True
    )
    assert doc["phi"]["odd"] is True
    rep = verify_slope(phi, odd_example.band)
    assert rep.ok
    # exact oddness at the breakpoints, not merely within tolerance
    mirrored = np.asarray(eval_pwl(phi, -phi.z_nodes))
    assert np.array_equal(mirrored, -phi.w_nodes)
    assert elapsed <= 10.0

    cos_h1 = _cosine(h1, _H1_EXPECTED_ODD)
    print(
        f"criterion 2 report-only: cos(h1, expected) = {cos_h1:.7f} "
        f"(threshold 0.999, non-gating)"
    )


def test_criterion_3_equilibrium_and_decay(
    slope_example, slope_report, odd_example, odd_report
):
    for sysm, rep in ((slope_example, slope_report), (odd_example, odd_report)):
        h1 = np.asarray(rep.dual["h1"], dtype=float)
        traj = simulate(sysm, rep.phi, h1, 1000)
        dev = np.max(np.linalg.norm(traj.states - h1[None, :], axis=1))
        assert dev <= 1.0e-8 * np.linalg.norm(h1)

        x0 = np.array([-0.5, -0.5])
        traj0 = simulate(sysm, rep.phi, x0, 1000)
        norms = np.linalg.norm(traj0.states, axis=1)
        assert norms[-1] < norms[0]
        # decay floors pinned from a one-time oracle run of this pipeline
        # (observed 2.5e-20 / 1.0e-81 final, 3.9e-10 / 2.2e-39 tail max)
        assert norms[-1] <= 1.0e-12
        assert np.max(norms[500:]) <= 1.0e-6


def test_criterion_4_multiplier_inequality_suite():
    t0 = time.perf_counter()
    band = SlopeBand(0.0, 1.0)
    worst = {"DHD": np.inf, "DD": np.inf}
    for label, cone, odd in (("DHD", ConeTag.DHD, False), ("DD", ConeTag.DD, True)):
        for i in range(1000):
            m = 1 + i % 5
            M = random_member(cone, m, seed=7000 + i)
            sample = sample_slope_fn(band, seed=9000 + i, odd=odd)
            audit = audit_multiplier_inequality(
                M, band, sample.phi, trials=1, seed=11000 + i
            )
            worst[label] = min(worst[label], audit.min_normalized)
        assert worst[label] >= -1.0e-9, (label, worst[label])
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0
    print(
        f"criterion 4 worst normalized form: DHD {worst['DHD']:.3e}, "
        f"DD {worst['DD']:.3e} in {elapsed:.2f} s"
    )


def _random_identity_system(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
    return StateSpaceSystem(
        A,
        rng.normal(size=(n, m)),
        rng.normal(size=(m, n)),
        rng.normal(size=(m, m)),
        SlopeBand(0.0, 1.0),
        NonlinearityClass.SLOPE,
    )


def _hollow(rng, m):
    X = rng.normal(size=(m, m))
    np.fill_diagonal(X, 0.0)
    return X


def test_criterion_5_lagrangian_round_trip():
    # pairing the primal LMI with H must equal pairing (P, M) with the dual
    # equality residuals plus the cone pairings, for arbitrary assignments
    rng = np.random.default_rng(42)
    ones_cache = {}
    worst = {"dual_dhd": 0.0, "dual_dd": 0.0}
    for kind in ("dual_dhd", "dual_dd"):
        for _ in range(500):
            sysm = _random_identity_system(rng)
            n, m = sysm.n, sysm.m
            ones = ones_cache.setdefault(m, np.ones(m))
            P = rng.normal(size=(n, n))
            P = P + P.T
            M = rng.normal(size=(m, m))
            Hh = rng.normal(size=(n + m, n + m))
            H = Hh + Hh.T
            f = rng.normal(size=m)
            g = rng.normal(size=m)
            X = _hollow(rng, m)

            L = _lmi_matrix(lmi_congruence(sysm), P, M)
            dyn = state_equality_block(sysm, H)
            Y = output_coupling_block(sysm, H)
            lhs = np.trace(L @ H)

            if kind == "dual_dhd":
                coup = Y - np.outer(ones, f) - np.outer(g, ones) - X
                rhs = np.trace(P @ dyn) + 2.0 * (
                    np.trace(M @ coup)
                    + f @ M @ ones
                    + ones @ M @ g
                    + np.trace(M @ X)
                )
            else:
                Z = _hollow(rng, m)
                dM = np.diag(M).copy()
                Mo = M - np.diag(dM)
                r_diag = np.diag(Y) - f - g
                r_od = Y - X + Z
                np.fill_diagonal(r_od, 0.0)
                rhs = np.trace(P @ dyn) + 2.0 * (
                    dM @ (r_diag + f + g) + np.trace(Mo @ (r_od + X - Z))
                )

            scale = max(1.0, abs(lhs), abs(rhs))
            worst[kind] = max(worst[kind], abs(lhs - rhs) / scale)
        assert worst[kind] <= 1.0e-10, (kind, worst[kind])
    print(
        f"criterion 5 worst identity residual: dhd {worst['dual_dhd']:.3e}, "
        f"dd {worst['dual_dd']:.3e}"
    )


def test_criterion_6_weak_duality_exclusivity():
    rng = np.random.default_rng(2024)
    counts = {"primal": 0, "dual": 0, "neither": 0}
    for i in range(100):
        A = rng.normal(size=(2, 2))
        A *= rng.uniform(0.3, 0.95) / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
        sysm = StateSpaceSystem(
            A,
            rng.normal(size=(2, 2)),
            rng.normal(size=(2, 2)),
            rng.normal(size=(2, 2)),
            SlopeBand(0.0, 1.0),
            NonlinearityClass.SLOPE_ODD if i % 2 else NonlinearityClass.SLOPE,
        )
        rep = audit_duality(sysm, seed=i)
        assert rep.exclusive, (i, rep)
        if rep.primal_decisive:
            counts["primal"] += 1
        elif rep.dual_decisive:
            counts["dual"] += 1
        else:
            counts["neither"] += 1
    print(f"criterion 6 outcome split over 100 instances: {counts}")


def test_criterion_7_trivial_system_sanity(data_dir, tmp_path):
    out = tmp_path / "dec.json"
    code = main(["analyze", str(data_dir / "sys_decoupled.json"), "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "absolutely_stable"

    code = main(["analyze", str(data_dir / "sys_unstable.json")])
    assert code == 1


def test_criterion_8_determinism(data_dir, tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    for path in (first, second):
        code = main(["analyze", str(data_dir / "sys_slope.json"), "--out", str(path)])
        assert code == 10
    assert first.read_bytes() == second.read_bytes()
