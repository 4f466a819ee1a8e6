"""Certificate extraction and destabilizing-map construction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lurestab.detector import (
    DualCertificate,
    Inconclusive,
    build_pwl,
    extract_certificate,
    fit,
    snap_to_band,
)
from lurestab import engine
from lurestab.equilibria import equilibrium_maps
from lurestab.errors import CertificateInconsistentError, InternalContradictionError
from lurestab.pwl import eval_pwl, verify_slope
from lurestab.system import NonlinearityClass, SlopeBand, StateSpaceSystem, normalize_band


def test_extract_slope_certificate(slope_example, slope_dual_reduced):
    cert = extract_certificate(slope_example, slope_dual_reduced.factor)
    assert isinstance(cert, DualCertificate)

    # the factor reproduces H and the pieces are consistent
    h = np.concatenate([cert.h1, cert.h2])
    assert np.linalg.norm(np.outer(h, h) - slope_dual_reduced.assignment["H"]) <= 1.0e-6
    z = slope_example.C @ cert.h1 + slope_example.D @ cert.h2
    assert np.array_equal(cert.z_star, z)

    # fixed point of the linear part driven by w*
    v = slope_example.A @ cert.h1 + slope_example.B @ cert.h2
    assert np.linalg.norm(v - cert.h1) <= 1.0e-6 * np.linalg.norm(cert.h1)
    assert np.min(v * cert.h1) >= -1.0e-9 * np.linalg.norm(cert.h1) ** 2

    # sign canonicalization: dominant state entry is positive
    assert cert.h1[np.argmax(np.abs(cert.h1))] > 0


def test_extract_odd_certificate_carries_z(odd_example, odd_dual_reduced):
    # the odd class's dual carries Z, and the certificate is read off its H
    Z = odd_dual_reduced.assignment["Z"]
    assert Z.shape == (odd_example.m, odd_example.m)
    cert = extract_certificate(odd_example, odd_dual_reduced.factor)
    assert isinstance(cert, DualCertificate)
    h = np.concatenate([cert.h1, cert.h2])
    assert np.linalg.norm(np.outer(h, h) - odd_dual_reduced.assignment["H"]) <= 1.0e-6


def test_extract_rejects_high_rank(slope_example, slope_dual_reduced):
    # the dual pass gives no factor where H is not rank one
    d = slope_dual_reduced.assignment["H"].shape[0]
    assert engine._rank_ratio(np.eye(d) / d)[2] is None
    out = extract_certificate(slope_example, None)
    assert isinstance(out, Inconclusive)
    assert out.reason == "rank"


def test_extract_is_sign_invariant(slope_example, slope_dual_reduced):
    h = slope_dual_reduced.factor
    cert = extract_certificate(slope_example, h)
    cert2 = extract_certificate(slope_example, -h)  # same H, opposite factor sign
    assert isinstance(cert2, DualCertificate)
    assert np.allclose(cert2.h1, cert.h1, atol=1.0e-9)
    assert np.allclose(cert2.h2, cert.h2, atol=1.0e-9)


def test_extract_gates_hand_made_factors():
    # A = 1/2, B = 1, C = 1, D = 0; the factor is h = (h1, h2)
    sysm = _diagonal_system([1.0])
    # A h1 + B h2 = -h1: the dichotomy's branch with no conclusion
    out = extract_certificate(sysm, np.array([1.0, -1.5]))
    assert isinstance(out, Inconclusive) and out.reason == "sign"
    # a zero state contradicts the nonvanishing proof where ||D|| < 1, and
    # is degenerate where the proof does not apply
    with pytest.raises(InternalContradictionError):
        extract_certificate(sysm, np.array([0.0, 1.0]))
    out = extract_certificate(replace(sysm, D=np.array([[1.0]])), np.array([0.0, 1.0]))
    assert isinstance(out, Inconclusive) and out.reason == "degenerate"


def _toy_cert(z, w):
    return DualCertificate(
        h1=np.ones(2), h2=np.asarray(w, dtype=float), z_star=np.asarray(z, dtype=float)
    )


def _toy_loop(odd=False):
    """A normalized loop of the slope class, or of the odd one; build_pwl
    reads only its class."""
    return _diagonal_system([1.0], odd)


def test_build_pwl_interpolates_certificate_pairs():
    cert = _toy_cert([-1.0, 0.5, 2.0], [-0.3, 0.2, 0.9])
    phi = build_pwl(_toy_loop(), cert)
    # origin inserted, pairs preserved exactly
    assert np.any(np.all(phi.breakpoints == [0.0, 0.0], axis=1))
    for zi, wi in zip(cert.z_star, cert.h2):
        assert eval_pwl(phi, zi) == wi


def test_build_pwl_merges_duplicate_outputs():
    cert = _toy_cert([0.5, 0.5 + 1.0e-12, 1.0], [0.2, 0.2, 0.4])
    phi = build_pwl(_toy_loop(), cert)
    assert phi.breakpoints.shape[0] == 3  # origin + merged pair + last


def test_build_pwl_flags_inconsistent_duplicates():
    cert = _toy_cert([0.5, 0.5 + 1.0e-12, 1.0], [0.2, -0.2, 0.4])
    with pytest.raises(CertificateInconsistentError):
        build_pwl(_toy_loop(), cert)


def test_build_pwl_odd_mirror_is_exact():
    cert = _toy_cert([-1.5, 0.4, 2.0], [-0.7, 0.1, 0.9])
    phi = build_pwl(_toy_loop(odd=True), cert)
    assert phi.odd
    z = phi.z_nodes
    w = phi.w_nodes
    # mirrored node set and exact antisymmetry, bit for bit
    assert np.array_equal(z, -z[::-1])
    assert np.array_equal(w, -w[::-1])
    for zi, wi in zip(cert.z_star, cert.h2):
        assert eval_pwl(phi, zi) == wi


def test_build_pwl_odd_folds_conflicts():
    # (1, 0.3) and (-1, 0.3) fold to (1, 0.3) vs (1, -0.3): inconsistent
    cert = _toy_cert([1.0, -1.0], [0.3, 0.3])
    with pytest.raises(CertificateInconsistentError):
        build_pwl(_toy_loop(odd=True), cert)


def test_example_maps_pass_slope_audit(
    slope_example, slope_dual_reduced, odd_example, odd_dual_reduced
):
    for sysm, res in ((slope_example, slope_dual_reduced), (odd_example, odd_dual_reduced)):
        cert = extract_certificate(sysm, res.factor)
        phi = build_pwl(sysm, cert)
        rep = verify_slope(phi, sysm.band)
        assert rep.ok, (sysm.nl_class, rep)


def _diagonal_system(c, odd=False):
    """A = I / 2, B = I, C = diag(c), D = 0: h1 = 2 w and z_i = 2 c_i w_i."""
    m = len(c)
    cls = NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE
    return StateSpaceSystem(
        0.5 * np.eye(m), np.eye(m), np.diag(np.asarray(c, dtype=float)), np.zeros((m, m)),
        SlopeBand(0.0, 1.0), cls,
    )


def _equilibrium_cert(sysm, w):
    """The toy certificate of the exact equilibrium driven by w."""
    w = np.asarray(w, dtype=float)
    h1 = np.linalg.solve(np.eye(sysm.n) - sysm.A, sysm.B @ w)
    return replace(_toy_cert(sysm.C @ h1 + sysm.D @ w, w), h1=h1)


def _flat_segment_case(slope):
    """h1 = 2 w and z = (4 w1, 2 w2): nodes (2 w2, w2) and (4 w1, w1).

    With w1 = w2 the segment between them is flat, exactly on mu = 0, and
    with w1 = w2 / 3 it lies on nu = 1; w1 is set so that the segment has
    the given slope instead.
    """
    sysm = _diagonal_system([2.0, 1.0])
    w1 = 1.0 + 2.0 * slope / (1.0 - 4.0 * slope)
    return sysm, _equilibrium_cert(sysm, [w1, 1.0])


def _assert_snapped_equilibrium(sysm, cert, snapped):
    """The repaired witness is an exact equilibrium with recomputed z*,
    and its map passes the audit; returns the audit."""
    h1, w = snapped.h1, snapped.h2
    assert snapped is not cert
    assert np.max(np.abs(sysm.A @ h1 + sysm.B @ w - h1)) <= 1.0e-14
    assert np.array_equal(snapped.z_star, sysm.C @ h1 + sysm.D @ w)
    assert h1[np.argmax(np.abs(h1))] > 0
    rep = verify_slope(build_pwl(sysm, snapped), sysm.band)
    assert rep.ok, rep
    return rep


def test_snap_puts_near_flat_segment_on_band_edge():
    sysm, cert = _flat_segment_case(-3.0e-9)
    assert verify_slope(build_pwl(sysm, cert), sysm.band).min_slope < sysm.band.mu
    snapped = snap_to_band(sysm, cert)
    assert snapped.snapped == 1
    rep = _assert_snapped_equilibrium(sysm, cert, snapped)
    assert abs(rep.min_slope - sysm.band.mu) <= 1.0e-15


def test_snap_puts_steep_segment_on_upper_edge():
    sysm, cert = _flat_segment_case(1.0 + 3.0e-9)
    assert verify_slope(build_pwl(sysm, cert), sysm.band).max_slope > sysm.band.nu
    snapped = snap_to_band(sysm, cert)
    assert snapped.snapped == 1
    rep = _assert_snapped_equilibrium(sysm, cert, snapped)
    assert abs(rep.max_slope - sysm.band.nu) <= 1.0e-15


def test_snap_repairs_a_folded_odd_point():
    # w1 < 0 puts channel 1 at z < 0; unfolded, every slope is in the band,
    # folded onto z >= 0 its node and channel 2's make a segment below mu
    sysm, flat = _flat_segment_case(-3.0e-9)
    sysm = replace(sysm, nl_class=NonlinearityClass.SLOPE_ODD)
    cert = _equilibrium_cert(sysm, flat.h2 * [-1.0, 1.0])
    assert snap_to_band(replace(sysm, nl_class=NonlinearityClass.SLOPE), cert) is cert
    assert verify_slope(build_pwl(sysm, cert), sysm.band).min_slope < sysm.band.mu
    snapped = snap_to_band(sysm, cert)
    assert snapped.snapped == 1
    rep = _assert_snapped_equilibrium(sysm, cert, snapped)
    assert abs(rep.min_slope - sysm.band.mu) <= 1.0e-15


def test_snap_adds_a_row_its_projection_violates():
    # nodes near z = 2, 4, 6 with w = 1, 1 + 1e-9, 1 - 3e-9: only the last
    # segment falls below mu, but levelling it lowers the middle node past
    # the first one, so a second round levels that segment too
    sysm = _diagonal_system([1.0, 2.0, 3.0])
    cert = _equilibrium_cert(sysm, [1.0, 1.0 + 1.0e-9, 1.0 - 3.0e-9])
    slopes = build_pwl(sysm, cert).segment_slopes()
    assert np.count_nonzero(slopes < sysm.band.mu) == 1
    snapped = snap_to_band(sysm, cert)
    assert snapped.snapped == 2
    rep = _assert_snapped_equilibrium(sysm, cert, snapped)
    assert abs(rep.min_slope - sysm.band.mu) <= 1.0e-15


def test_snap_keeps_the_certificate_when_projection_loses_h1():
    # one channel with G = 1/2: the only node has slope 2, and the only map
    # of the band through it is w = 0, so h1 would vanish
    sysm = StateSpaceSystem(
        np.array([[0.5]]), np.array([[1.0]]), np.array([[0.25]]), np.zeros((1, 1)),
        SlopeBand(0.0, 1.0), NonlinearityClass.SLOPE,
    )
    cert = _equilibrium_cert(sysm, [1.0])
    assert verify_slope(build_pwl(sysm, cert), sysm.band).max_slope == 2.0
    assert snap_to_band(sysm, cert) is cert


def test_snap_leaves_a_pair_the_map_merges_alone():
    # two identical channels whose (z*, w*) differ in the last bit, as the
    # dual's rounding leaves them: their slope of -1/2 is noise, and
    # build_pwl merges the pair into one node inside the band
    sysm = _diagonal_system([1.0, 1.0])
    w = np.array([1.0, np.nextafter(1.0, 2.0)])
    cert = replace(_toy_cert([2.0, np.nextafter(2.0, 0.0)], w), h1=2.0 * w)
    assert verify_slope(build_pwl(sysm, cert), sysm.band).ok
    assert build_pwl(sysm, cert).breakpoints.shape == (2, 2)
    assert snap_to_band(sysm, cert) is cert


def test_snap_levels_a_merged_pair_whose_inputs_differ():
    # channel 1 of this plant has C = 0, so z*_1 = 0 and its node merges
    # with the origin; an input w*_1 = 2e-6 left by rounding is more than
    # the merge tolerance, so no map passes through both until the pair is
    # levelled to dw = 0
    plant = StateSpaceSystem(
        np.array([[0.5804905842003484]]),
        np.array([[0.8244122790838154, -0.33691804951042836]]),
        np.array([[0.0], [-1.1916459308176033]]), np.zeros((2, 2)),
        SlopeBand(0.0, 3.0), NonlinearityClass.SLOPE,
    )
    unit = normalize_band(plant)
    F, _ = equilibrium_maps(unit)
    w = np.array([2.0e-6, 1.0])
    cert = fit(unit, F @ w, w)
    assert cert.snapped == 1 and cert.h2[0] == 0.0
    phi = build_pwl(unit, cert)
    assert verify_slope(phi, unit.band).ok
    h1, w = cert.h1, cert.h2
    assert np.max(np.abs(unit.A @ h1 + unit.B @ w - h1)) <= 1.0e-14 * np.max(np.abs(h1))


@st.composite
def _on_edge_witnesses(draw):
    """An exact equilibrium of a diagonal loop whose map runs through
    segments on mu, on nu and inside the band, in a random channel order
    (and, for the odd class, with random channel signs), with w perturbed by
    at most 1e-8."""
    m = draw(st.integers(min_value=2, max_value=4))
    odd = draw(st.booleans())
    unit = st.floats(min_value=0.1, max_value=0.9)
    slopes = [draw(st.sampled_from([1.0, 0.5]) | unit)]
    slopes += draw(st.lists(st.sampled_from([0.0, 1.0]) | unit, min_size=m - 1, max_size=m - 1))
    dz = draw(st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=m, max_size=m))
    z, w = np.cumsum(dz), np.cumsum(np.multiply(slopes, dz))
    order = draw(st.permutations(range(m)))
    z, w = z[order], w[order]
    sysm = _diagonal_system(z / (2.0 * w), odd)
    if odd:  # a channel of the other sign has the same folded node
        w = w * draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m))
    noise = draw(st.lists(st.floats(min_value=-1.0e-8, max_value=1.0e-8), min_size=m, max_size=m))
    return sysm, _equilibrium_cert(sysm, w + noise)


@settings(max_examples=200, deadline=None)
@given(_on_edge_witnesses())
def test_snap_returns_a_passing_equilibrium_near_the_band_edges(case):
    sysm, cert = case
    snapped = snap_to_band(sysm, cert)
    h1, w = snapped.h1, snapped.h2
    assert np.max(np.abs(sysm.A @ h1 + sysm.B @ w - h1)) <= 1.0e-14 * np.max(np.abs(h1))
    assert verify_slope(build_pwl(sysm, snapped), sysm.band).ok


def test_snap_leaves_in_band_certificate_alone():
    sysm, cert = _flat_segment_case(3.0e-9)
    assert snap_to_band(sysm, cert) is cert
