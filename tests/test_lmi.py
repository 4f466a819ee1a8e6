import numpy as np
import pytest

from lurestab import (
    NonlinearityClass,
    SlopeBand,
    StateSpaceSystem,
    StructuralError,
    build_primal,
    reduce_rank,
)
from lurestab.engine import build_dual
from lurestab.lmi import (
    _lmi_matrix,
    lmi_congruence,
    multiplier_matrix,
)
from lurestab.multipliers import build_multiplier
from cones import ConeTag, is_member
from helpers import random_member
from oracles import dense_dual_rows, output_coupling_block, state_equality_block


def _random_system(seed, n=2, m=3, odd=False, band=SlopeBand(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
    return StateSpaceSystem(
        A,
        rng.normal(size=(n, m)),
        rng.normal(size=(m, n)),
        rng.normal(size=(m, m)),
        band,
        NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE,
    )


def test_primal_decision_variables_and_kinds():
    prob = build_primal(_random_system(0))
    kinds = {v.name: (v.kind, v.dim) for v, _ in prob.variables}
    assert kinds == {
        "P": ("sym", 2),
        "M_diag": ("vector", 3),
        "M_offdiag": ("hollow", 3),
        "t": ("vector", 1),
    }
    # contiguous coordinates, and the objective is the margin t
    slices = {v.name: (sl.start, sl.stop) for v, sl in prob.variables}
    assert slices == {"P": (0, 3), "M_diag": (3, 6), "M_offdiag": (6, 12), "t": (12, 13)}
    assert np.array_equal(prob.objective, np.eye(13)[12])
    # the LMI block's svec of 5 x 5, the row and column sums, M's off-diagonal
    assert dense_dual_rows(prob).T.shape == (15 + 3 + 3 + 6, 13)
    assert prob.F_incidence.shape == (3 + 3 + 6, 13)

    prob_dd = build_primal(_random_system(1, odd=True))
    kinds_dd = {v.name: v.kind for v, _ in prob_dd.variables}
    assert kinds_dd == {
        "P": "sym", "M_diag": "vector", "M_offdiag": "hollow", "M_abs": "hollow", "t": "vector",
    }


def test_primal_constraint_names_and_cones():
    # M_ii >= 0 and M_abs >= 0 are implied by the rest and not stated; each
    # constraint names the dual block it carries
    common = [
        ("lmi_margin", "psd", "H"),
        ("row_sums", "nonneg", "f"),
        ("col_sums", "nonneg", "g"),
    ]
    prob = build_primal(_random_system(0))
    assert [(c.name, c.cone, c.dual) for c, _ in prob.constraints] == common + [
        ("m_offdiag_nonpos", "hollow_nonneg", "X"),
    ]
    prob_dd = build_primal(_random_system(1, odd=True))
    assert [(c.name, c.cone, c.dual) for c, _ in prob_dd.constraints] == common + [
        ("dom_hi", "hollow_nonneg", "X"),
        ("dom_lo", "hollow_nonneg", "Z"),
    ]


@pytest.mark.parametrize("odd", [False, True], ids=["slope", "odd"])
def test_every_row_of_the_primal_carries_a_dual_block(odd):
    # every row of F is homogeneous and its constraint names a dual block,
    # so the dual is F's whole transpose: one form serves both LMIs
    prob = build_primal(_random_system(5, n=3, m=3, odd=odd))
    assert all(con.dual is not None for con, _ in prob.constraints)
    dual = build_dual(prob)
    rows = dense_dual_rows(prob)
    assert dual.blocks == prob.constraints and dual.ncone == rows.shape[1]
    # the raw pair holds the orthant's columns exactly; the LMI's, which the
    # form takes from its congruence, match the oracle's within rounding
    h = dual.h_slice
    assert np.array_equal(dual.A_raw, -prob.F_incidence.T)
    assert np.array_equal(dual.A_raw, rows[:, h.stop:])
    lmi = dual.A[:, h] * dual.d[:, None]
    assert np.max(np.abs(lmi - rows[:, h])) <= 1e-14 * np.max(np.abs(rows[:, h]))
    assert np.array_equal(dual.b_raw, prob.objective)
    blocks = dual.reconstruct(np.ones(dual.ncone))
    assert set(blocks) == ({"H", "f", "g", "X", "Z"} if odd else {"H", "f", "g", "X"})


def test_primal_lmi_matrix_matches_congruence():
    # L read off lmi_congruence against the paper's form with
    # build_multiplier's Pi, on [0, 1] and on a general band
    worst = 0.0
    for band in (SlopeBand(0.0, 1.0), SlopeBand(-0.4, 1.7)):
        for seed in range(25):
            sys = _random_system(seed, band=band)
            rng = np.random.default_rng(100 + seed)
            P = rng.normal(size=(2, 2))
            P = P + P.T
            M = rng.normal(size=(3, 3))
            L = _lmi_matrix(lmi_congruence(sys), P, M)
            AB = np.hstack([sys.A, sys.B])
            I0 = np.hstack([np.eye(2), np.zeros((2, 3))])
            CD = np.hstack([sys.C, sys.D])
            OI = np.hstack([np.zeros((3, 2)), np.eye(3)])
            pi = build_multiplier(M, band).pi
            expect = (AB.T @ P @ AB - I0.T @ P @ I0
                      + np.vstack([CD, OI]).T @ pi @ np.vstack([CD, OI]))
            assert np.array_equal(L, L.T)
            worst = max(worst, np.linalg.norm(L - expect) / np.linalg.norm(expect))
    assert worst <= 1.0e-14


def test_reduced_dual_holds_from_its_definition(
    slope_example, odd_example, slope_dual_reduced, odd_dual_reduced
):
    # the dual blocks read off the adjoint of the primal satisfy the paper's
    # dual, written out from its definition
    cases = [(slope_example, slope_dual_reduced), (odd_example, odd_dual_reduced)]
    for seed in range(40, 46):
        sysm = _random_system(seed, n=2 + seed % 2, m=2 + seed % 3, odd=bool(seed % 2))
        cases.append((sysm, reduce_rank(build_dual(build_primal(sysm)), deflate=False)))
    for sysm, red in cases:
        assert red.status == "feasible"
        blocks = red.assignment
        H, f, g, X = blocks["H"], blocks["f"], blocks["g"], blocks["X"]
        m = sysm.m
        off = ~np.eye(m, dtype=bool)
        assert np.abs(state_equality_block(sysm, H)).max() <= 1e-8
        assert abs(np.trace(H) - 1.0) <= 1e-8
        assert np.linalg.eigvalsh(H)[0] >= -1e-8
        Y = output_coupling_block(sysm, H)
        pair = np.outer(np.ones(m), f) + np.outer(g, np.ones(m))
        if sysm.nl_class is NonlinearityClass.SLOPE_ODD:
            Z = blocks["Z"]
            assert np.abs(np.diag(Y) - f - g).max() <= 1e-8
            assert np.abs((Y - X + Z)[off]).max() <= 1e-8
            assert np.abs((X + Z + pair)[off]).max() <= 1e-8
            hollow = (X, Z)
        else:
            assert "Z" not in blocks
            assert np.abs(Y - pair - X).max() <= 1e-8
            hollow = (X,)
        assert f.min() >= -1e-8 and g.min() >= -1e-8
        for W in hollow:
            assert np.array_equal(np.diag(W), np.zeros(m))
            assert W.max() <= 1e-8


def test_dual_requires_reduced_band():
    # the dual is the adjoint of the primal, which exists on [0, 1] only
    rng = np.random.default_rng(7)
    A = np.eye(2) * 0.5
    sys = StateSpaceSystem(A, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                           rng.normal(size=(2, 2)), SlopeBand(-1.0, 1.0))
    with pytest.raises(StructuralError):
        build_primal(sys)


def test_round_trip_identity_spot():
    # pairing the primal LMI against H equals pairing the dual blocks
    # against (P, M), for arbitrary (not necessarily feasible) values
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(50):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sys = _random_system(100 + trial, n=n, m=m, odd=bool(trial % 2))
        P = rng.normal(size=(n, n))
        P = P + P.T
        M = rng.normal(size=(m, m))
        Hh = rng.normal(size=(n + m, n + m))
        H = Hh + Hh.T
        L = _lmi_matrix(lmi_congruence(sys), P, M)
        lhs = np.trace(L @ H)
        rhs = (np.trace(P @ state_equality_block(sys, H))
               + 2.0 * np.trace(M @ output_coupling_block(sys, H)))
        scale = max(1.0, np.linalg.norm(L) * np.linalg.norm(H))
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-12


def test_rank_one_coupling_specialization():
    # Y(h h^T) = h2 (C h1 + D h2 - h2)^T on the [0, 1] band
    sys = _random_system(10)
    rng = np.random.default_rng(11)
    h1, h2 = rng.normal(size=2), rng.normal(size=3)
    H = np.outer(np.concatenate([h1, h2]), np.concatenate([h1, h2]))
    Y = output_coupling_block(sys, H)
    expect = np.outer(h2, sys.C @ h1 + sys.D @ h2 - h2)
    assert np.allclose(Y, expect, atol=1e-12)


def _assignment(M):
    M = np.asarray(M, dtype=float)
    return {"M_diag": np.diag(M).copy(), "M_offdiag": M - np.diag(np.diag(M))}


@pytest.mark.parametrize("cone", [ConeTag.DHD, ConeTag.DD])
def test_multiplier_matrix_returns_m_inside_its_cone_as_assembled(cone):
    nl_class = NonlinearityClass.SLOPE_ODD if cone is ConeTag.DD else NonlinearityClass.SLOPE
    for seed in range(20):
        M = random_member(cone, 3, seed)
        assert np.array_equal(multiplier_matrix(_assignment(M), nl_class), M)


def test_multiplier_matrix_moves_m_onto_its_cone():
    # the IPM's rows may leave the cone by rounding: M = -4.5e-11 at m = 1
    slope, odd = NonlinearityClass.SLOPE, NonlinearityClass.SLOPE_ODD
    assert multiplier_matrix(_assignment([[-4.5e-11]]), slope).tolist() == [[0.0]]
    assert multiplier_matrix(_assignment([[-4.5e-11]]), odd).tolist() == [[0.0]]
    # DHD clears a positive off-diagonal entry, then adds no deficit here
    M = multiplier_matrix(_assignment([[1.0, 1.0e-12], [-1.0, 1.0]]), slope)
    assert M.tolist() == [[1.0, 0.0], [-1.0, 1.0]]
    # DD keeps the off-diagonal signs and adds only row 0's deficit
    M = multiplier_matrix(_assignment([[1.0, -1.0000001], [0.5, 2.0]]), odd)
    assert M[0, 1] == -1.0000001 and M[1, 0] == 0.5 and M[1, 1] == 2.0
    assert M[0, 0] == pytest.approx(1.0000001, abs=1.0e-15)
    assert is_member(M, ConeTag.DD, tol=0.0).member
