"""Certificate extraction and destabilizing-map construction."""

from dataclasses import replace

import numpy as np
import pytest

from lurestab.detector import (
    DualCertificate,
    Inconclusive,
    build_pwl,
    extract_certificate,
    snap_to_band,
)
from lurestab.engine import TOL_RANK, SolveResult
from lurestab.errors import CertificateInconsistentError, StructuralError
from lurestab.pwl import eval_pwl, verify_slope
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem


def test_extract_slope_certificate(slope_example, slope_dual_reduced):
    cert = extract_certificate(
        slope_example, slope_dual_reduced, NonlinearityClass.SLOPE
    )
    assert isinstance(cert, DualCertificate)
    assert cert.rank == 1
    assert cert.Z is None

    # the factor reproduces H and the pieces are consistent
    h = cert.h
    assert np.linalg.norm(np.outer(h, h) - cert.H) <= 1.0e-6
    assert np.array_equal(cert.w_star, cert.h2)
    z = slope_example.C @ cert.h1 + slope_example.D @ cert.h2
    assert np.array_equal(cert.z_star, z)

    # fixed point of the linear part driven by w*
    v = slope_example.A @ cert.h1 + slope_example.B @ cert.h2
    assert np.linalg.norm(v - cert.h1) <= 1.0e-6 * np.linalg.norm(cert.h1)
    assert np.min(v * cert.h1) >= -1.0e-9 * np.linalg.norm(cert.h1) ** 2

    # sign canonicalization: dominant state entry is positive
    assert cert.h1[np.argmax(np.abs(cert.h1))] > 0


def test_extract_odd_certificate_carries_z(odd_example, odd_dual_reduced):
    cert = extract_certificate(
        odd_example, odd_dual_reduced, NonlinearityClass.SLOPE_ODD
    )
    assert isinstance(cert, DualCertificate)
    assert cert.Z is not None
    assert cert.Z.shape == (odd_example.m, odd_example.m)


def test_extract_rejects_high_rank(slope_example, slope_dual_reduced):
    spread = dict(slope_dual_reduced.assignment)
    d = spread["H"].shape[0]
    spread["H"] = np.eye(d) / d
    res = SolveResult(
        status="feasible", assignment=spread, residuals=slope_dual_reduced.residuals
    )
    out = extract_certificate(slope_example, res, NonlinearityClass.SLOPE)
    assert isinstance(out, Inconclusive)
    assert out.reason == "rank"


def test_extract_rank_tolerance_splits_clusters(slope_example, slope_dual_reduced):
    # the rank counts eigenvalues of H above TOL_RANK times the largest; at
    # rank one the factor is the dominant eigenvector, scaled
    cert = extract_certificate(slope_example, slope_dual_reduced, NonlinearityClass.SLOPE)
    lam, Q = np.linalg.eigh(slope_dual_reduced.assignment["H"])
    rest = Q[:, :-1]  # orthogonal to the dominant eigenvector
    d = len(lam)
    cases = [
        (np.zeros(d - 1), 1),
        (np.full(d - 1, 0.5 * TOL_RANK), 1),
        (np.r_[2.0 * TOL_RANK, np.zeros(d - 2)], 2),
        (np.full(d - 1, 0.5), d),
    ]
    for tail, rank in cases:
        H = lam[-1] * (np.outer(Q[:, -1], Q[:, -1]) + (rest * tail) @ rest.T)
        res = replace(slope_dual_reduced, assignment=dict(slope_dual_reduced.assignment, H=H))
        out = extract_certificate(slope_example, res, NonlinearityClass.SLOPE)
        if rank == 1:
            assert np.allclose(out.h, cert.h, atol=1.0e-9)
        else:
            assert out == Inconclusive("rank", f"numerical rank {rank}")


def test_extract_rank_zero_matrix(slope_example, slope_dual_reduced):
    d = slope_dual_reduced.assignment["H"].shape[0]
    H = np.zeros((d, d))
    res = replace(slope_dual_reduced, assignment=dict(slope_dual_reduced.assignment, H=H))
    out = extract_certificate(slope_example, res, NonlinearityClass.SLOPE)
    assert out == Inconclusive("rank", "numerical rank 0")


def test_extract_checks_class_against_blocks(slope_example, slope_dual_reduced):
    with pytest.raises(StructuralError):
        extract_certificate(
            slope_example, slope_dual_reduced, NonlinearityClass.SLOPE_ODD
        )


def test_extract_is_sign_invariant(slope_example, slope_dual_reduced):
    cert = extract_certificate(
        slope_example, slope_dual_reduced, NonlinearityClass.SLOPE
    )
    flipped = dict(slope_dual_reduced.assignment)
    h = -cert.h  # same H, opposite factor sign
    flipped["H"] = np.outer(h, h)
    res = SolveResult(
        status="feasible", assignment=flipped, residuals=slope_dual_reduced.residuals
    )
    cert2 = extract_certificate(slope_example, res, NonlinearityClass.SLOPE)
    assert isinstance(cert2, DualCertificate)
    assert np.allclose(cert2.h1, cert.h1, atol=1.0e-9)
    assert np.allclose(cert2.h2, cert.h2, atol=1.0e-9)


def _toy_cert(z, w, odd_partner=False):
    z = np.asarray(z, dtype=float)
    w = np.asarray(w, dtype=float)
    m = z.size
    return DualCertificate(
        H=np.eye(2 + m),
        f=np.zeros(m),
        g=np.zeros(m),
        X=np.zeros((m, m)),
        Z=np.zeros((m, m)) if odd_partner else None,
        rank=1,
        h1=np.ones(2),
        h2=w,
        z_star=z,
        w_star=w,
    )


def test_build_pwl_interpolates_certificate_pairs():
    cert = _toy_cert([-1.0, 0.5, 2.0], [-0.3, 0.2, 0.9])
    phi = build_pwl(cert, odd=False)
    # origin inserted, pairs preserved exactly
    assert np.any(np.all(phi.breakpoints == [0.0, 0.0], axis=1))
    for zi, wi in zip(cert.z_star, cert.w_star):
        assert eval_pwl(phi, zi) == wi


def test_build_pwl_merges_duplicate_outputs():
    cert = _toy_cert([0.5, 0.5 + 1.0e-12, 1.0], [0.2, 0.2, 0.4])
    phi = build_pwl(cert, odd=False)
    assert phi.breakpoints.shape[0] == 3  # origin + merged pair + last


def test_build_pwl_flags_inconsistent_duplicates():
    cert = _toy_cert([0.5, 0.5 + 1.0e-12, 1.0], [0.2, -0.2, 0.4])
    with pytest.raises(CertificateInconsistentError):
        build_pwl(cert, odd=False)


def test_build_pwl_odd_mirror_is_exact():
    cert = _toy_cert([-1.5, 0.4, 2.0], [-0.7, 0.1, 0.9], odd_partner=True)
    phi = build_pwl(cert, odd=True)
    assert phi.odd
    z = phi.z_nodes
    w = phi.w_nodes
    # mirrored node set and exact antisymmetry, bit for bit
    assert np.array_equal(z, -z[::-1])
    assert np.array_equal(w, -w[::-1])
    for zi, wi in zip(cert.z_star, cert.w_star):
        assert eval_pwl(phi, zi) == wi


def test_build_pwl_odd_folds_conflicts():
    # (1, 0.3) and (-1, 0.3) fold to (1, 0.3) vs (1, -0.3): inconsistent
    cert = _toy_cert([1.0, -1.0], [0.3, 0.3], odd_partner=True)
    with pytest.raises(CertificateInconsistentError):
        build_pwl(cert, odd=True)


def test_example_maps_pass_slope_audit(
    slope_example, slope_dual_reduced, odd_example, odd_dual_reduced
):
    for sysm, res, cls in (
        (slope_example, slope_dual_reduced, NonlinearityClass.SLOPE),
        (odd_example, odd_dual_reduced, NonlinearityClass.SLOPE_ODD),
    ):
        cert = extract_certificate(sysm, res, cls)
        phi = build_pwl(cert, odd=cls is NonlinearityClass.SLOPE_ODD)
        rep = verify_slope(phi, sysm.band)
        assert rep.ok, (cls, rep)


def _flat_segment_case(slope):
    """h1 = 2 w and z = (4 w1, 2 w2): nodes (2 w2, w2) and (4 w1, w1).

    With w1 = w2 the segment between them is flat, exactly on mu = 0; w1 is
    set so that the segment has the given slope instead.
    """
    sysm = StateSpaceSystem(
        0.5 * np.eye(2), np.eye(2), np.diag([2.0, 1.0]), np.zeros((2, 2)),
        SlopeBand(0.0, 1.0), NonlinearityClass.SLOPE,
    )
    w1 = 1.0 + 2.0 * slope / (1.0 - 4.0 * slope)
    w = np.array([w1, 1.0])
    h1 = np.linalg.solve(np.eye(2) - sysm.A, sysm.B @ w)
    return sysm, replace(_toy_cert(sysm.C @ h1 + sysm.D @ w, w), h1=h1)


def test_snap_puts_near_flat_segment_on_band_edge():
    sysm, cert = _flat_segment_case(-3.0e-9)
    assert verify_slope(build_pwl(cert, odd=False), sysm.band).min_slope < sysm.band.mu
    snapped = snap_to_band(sysm, cert, odd=False)
    assert snapped.snapped == 1
    rep = verify_slope(build_pwl(snapped, odd=False), sysm.band)
    assert rep.ok, rep
    assert sysm.band.mu <= rep.min_slope and rep.max_slope <= sysm.band.nu
    h1, w = snapped.h1, snapped.w_star
    assert np.max(np.abs(sysm.A @ h1 + sysm.B @ w - h1)) <= 1.0e-14
    assert np.array_equal(snapped.z_star, sysm.C @ h1 + sysm.D @ w)
    assert np.array_equal(snapped.h2, w)


def test_snap_leaves_in_band_certificate_alone():
    sysm, cert = _flat_segment_case(3.0e-9)
    assert snap_to_band(sysm, cert, odd=False) is cert
