import numpy as np
import pytest

from lurestab import (
    NonlinearityClass,
    SlopeBand,
    StateSpaceSystem,
    StructuralError,
    build_primal,
    reduce_rank,
    solve,
)
from lurestab.engine import build_dual
from lurestab.lmi import BOX_BOUND, primal_lmi_matrix
from lurestab.multipliers import build_multiplier
from oracles import output_coupling_block, state_equality_block


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
    assert prob.F.shape == (prob.F0.size, 13)

    prob_dd = build_primal(_random_system(1, odd=True))
    kinds_dd = {v.name: v.kind for v, _ in prob_dd.variables}
    assert kinds_dd == {
        "P": "sym", "M_diag": "vector", "M_offdiag": "hollow", "M_abs": "hollow", "t": "vector",
    }


def test_primal_constraint_names_and_cones():
    # M_ii >= 0 and M_abs >= 0 are implied by the rest and not stated; each
    # constraint that vanishes at zero names the dual block it carries
    common = [
        ("lmi_margin", "psd", "H"),
        ("margin_cap", "nonneg", None),
        ("p_box_hi", "nonneg", None),
        ("p_box_lo", "nonneg", None),
        ("m_diag_box", "nonneg", None),
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


def test_box_constraint_is_zero_at_the_bound():
    prob = build_primal(_random_system(4))
    rows = {c.name: sl for c, sl in prob.constraints}
    assert np.array_equal(prob.F0[rows["p_box_hi"]], np.ones(3))
    # P_00 is the first coordinate, with weight 1
    z = np.zeros(prob.objective.size)
    z[0] = BOX_BOUND
    value = prob.F0 + prob.F @ z
    assert np.array_equal(value[rows["p_box_hi"]], [0.0, 1.0, 1.0])
    assert value[rows["p_box_lo"]][0] == 2.0


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
            L = primal_lmi_matrix(sys, P, M)
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
        dual = build_dual(solve(build_primal(sysm)))
        cases.append((sysm, reduce_rank(dual, solve(dual))))
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


def test_build_dual_needs_a_primal_result():
    dual = build_dual(solve(build_primal(_random_system(8))))
    with pytest.raises(StructuralError):
        build_dual(solve(dual))


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
        L = primal_lmi_matrix(sys, P, M)
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
