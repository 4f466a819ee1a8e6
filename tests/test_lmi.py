import numpy as np
import pytest

from lurestab import (
    LmiKind,
    NonlinearityClass,
    SlopeBand,
    StateSpaceSystem,
    StructuralError,
    build_dual,
    build_primal,
)
from lurestab.lmi import (
    BOX_BOUND,
    output_coupling_block,
    primal_lmi_matrix,
    state_equality_block,
)
from lurestab.multipliers import build_multiplier


def _random_system(seed, n=2, m=3, odd=False):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
    return StateSpaceSystem(
        A,
        rng.normal(size=(n, m)),
        rng.normal(size=(m, n)),
        rng.normal(size=(m, m)),
        SlopeBand(0.0, 1.0),
        NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE,
    )


def test_kind_constants():
    assert LmiKind.PRIMAL_DHD.is_primal
    assert not LmiKind.DUAL_DD.is_primal


def test_primal_structure_dhd():
    sys = _random_system(0)
    prob = build_primal(sys, LmiKind.PRIMAL_DHD)
    names = {v.name: v for v in prob.variables}
    assert names["P"].kind == "sym"
    assert names["M_diag"].kind == "nonneg" and names["M_diag"].dim == 3
    assert names["M_offdiag"].kind == "z0"
    assert names["lmi_slack"].kind == "psd"
    assert "row_slack" in names and "col_slack" in names
    eq_names = [e.name for e in prob.equalities]
    assert "lmi_margin" in eq_names
    assert "p_box_hi" in eq_names and "m_diag_box" in eq_names
    zero = prob.zero_assignment()
    assert zero["P"].shape == (2, 2)


def test_primal_structure_dd_has_dominance_blocks():
    sys = _random_system(1, odd=True)
    prob = build_primal(sys, LmiKind.PRIMAL_DD)
    names = {v.name: v for v in prob.variables}
    assert names["M_offdiag"].kind == "hollow_free"
    assert names["M_abs"].kind == "hollow_nonneg"
    eq_names = [e.name for e in prob.equalities]
    assert "dom_hi" in eq_names and "dom_lo" in eq_names


def test_primal_lmi_matrix_matches_congruence():
    sys = _random_system(2)
    rng = np.random.default_rng(3)
    P = rng.normal(size=(2, 2))
    P = P + P.T
    M = rng.normal(size=(3, 3))
    L = primal_lmi_matrix(sys, P, M)
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(2), np.zeros((2, 3))])
    CD = np.hstack([sys.C, sys.D])
    OI = np.hstack([np.zeros((3, 2)), np.eye(3)])
    pi = build_multiplier(M, sys.band).pi
    expect = (AB.T @ P @ AB - I0.T @ P @ I0
              + np.vstack([CD, OI]).T @ pi @ np.vstack([CD, OI]))
    assert np.allclose(L, expect, atol=1e-12)


def test_box_equalities_scaled_to_unit_rhs():
    sys = _random_system(4)
    prob = build_primal(sys, LmiKind.PRIMAL_DHD)
    blocks = {e.name: e for e in prob.equalities}
    assign = prob.zero_assignment()
    n_tri = 2 * 3 // 2
    assert np.allclose(blocks["p_box_hi"].rhs, np.ones(n_tri))
    # at P with a single entry at the bound, the slack must absorb exactly 1
    assign["P"] = np.zeros((2, 2))
    assign["P"][0, 0] = BOX_BOUND
    val = blocks["p_box_hi"].fn(assign)
    assert val[0] == pytest.approx(1.0)


def test_dual_structure():
    sys = _random_system(5)
    prob = build_dual(sys, LmiKind.DUAL_DHD)
    names = {v.name: v for v in prob.variables}
    assert names["H"].kind == "psd" and names["H"].dim == 5
    assert set(names) == {"H", "f", "g", "X"}
    eq_names = [e.name for e in prob.equalities]
    assert eq_names == ["dyn", "coupling", "scale"]
    assert prob.meta["psd_main"] == "H"

    prob_dd = build_dual(_random_system(6, odd=True), LmiKind.DUAL_DD)
    names_dd = {v.name for v in prob_dd.variables}
    assert "Z" in names_dd
    eq_dd = [e.name for e in prob_dd.equalities]
    assert "coupling_diag" in eq_dd and "pairing" in eq_dd


def test_dual_requires_reduced_band():
    rng = np.random.default_rng(7)
    A = np.eye(2) * 0.5
    sys = StateSpaceSystem(A, rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                           rng.normal(size=(2, 2)), SlopeBand(-1.0, 1.0))
    with pytest.raises(StructuralError):
        build_dual(sys, LmiKind.DUAL_DHD)


def test_build_primal_rejects_dual_kind():
    sys = _random_system(8)
    with pytest.raises(StructuralError):
        build_primal(sys, LmiKind.DUAL_DHD)
    with pytest.raises(StructuralError):
        build_dual(sys, LmiKind.PRIMAL_DHD)


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
