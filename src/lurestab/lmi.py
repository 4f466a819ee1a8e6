"""Assembly of the stability LMI and its dual as conic feasibility problems.

Primal (per nonlinearity class): find P and a multiplier matrix M in the
DHD cone (DD for odd nonlinearities) such that

    L(P, M) = [A B; I 0]-type quadratic Lyapunov difference
            + [C D; 0 I]^T Pi(M, band) [C D; 0 I]  <  0.

On the band [0, 1] the P > 0 requirement is dropped (Schur stability of A
makes it automatic), so P is a free symmetric variable.

Dual (band [0, 1] only): find H PSD, f, g >= 0 and zero-diagonal
Z-matrices such that

    [A B] H [A B]^T = [I 0] H [I 0]^T
    Y(H) := [0 I] H ([C D] - [0 I])^T   couples to (f, g, X[, Z])
    trace(H) = 1.

Problems are declarative: named variables with cone kinds plus affine
equality blocks given as callables; the engine turns them into matrix form
by probing a coordinate basis.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import StructuralError
from .multipliers import build_multiplier
from .system import StateSpaceSystem

__all__ = [
    "EqualityBlock",
    "LmiKind",
    "SdpFeasibilityProblem",
    "VarSpec",
    "build_dual",
    "build_primal",
    "output_coupling_block",
    "primal_lmi_matrix",
    "state_equality_block",
]

BOX_BOUND = 1.0e4

_VAR_KINDS = ("psd", "sym", "nonneg", "z0", "hollow_nonneg", "hollow_free")
_EQ_STRUCTURES = ("sym", "full", "hollow", "vector", "scalar")


@dataclass(frozen=True)
class LmiKind:
    """Which of the four LMI systems to assemble.

    reduced=True is the band-[0,1] form (P free symmetric in the primal);
    the duals exist only in reduced form.
    """

    tag: str
    reduced: bool = True

    def __post_init__(self):
        if self.tag not in ("primal_dhd", "primal_dd", "dual_dhd", "dual_dd"):
            raise StructuralError(f"unknown LMI kind {self.tag!r}")
        if self.tag.startswith("dual") and not self.reduced:
            raise StructuralError("dual LMIs are only defined in reduced form")

    @property
    def is_primal(self) -> bool:
        return self.tag.startswith("primal")


LmiKind.PRIMAL_DHD = LmiKind("primal_dhd")
LmiKind.PRIMAL_DD = LmiKind("primal_dd")
LmiKind.DUAL_DHD = LmiKind("dual_dhd")
LmiKind.DUAL_DD = LmiKind("dual_dd")


@dataclass(frozen=True)
class VarSpec:
    """One named block variable.

    kind: "psd" (symmetric PSD matrix), "sym" (free symmetric matrix),
    "nonneg" (entrywise nonnegative vector), "z0" (zero diagonal,
    nonpositive off-diagonal), "hollow_nonneg" (zero diagonal, nonnegative
    off-diagonal), "hollow_free" (zero diagonal, free off-diagonal).
    dim is the matrix dimension, or the length for vector kinds.
    """

    name: str
    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in _VAR_KINDS:
            raise StructuralError(f"unknown variable kind {self.kind!r}")
        if self.dim < 1:
            raise StructuralError(f"variable {self.name!r} needs dim >= 1")

    @property
    def shape(self) -> tuple:
        if self.kind == "nonneg":
            return (self.dim,)
        return (self.dim, self.dim)


@dataclass(frozen=True)
class EqualityBlock:
    """Affine equality: fn(assignment) == rhs, entrywise.

    structure tells the engine which entries carry independent equations:
    "sym" (upper triangle), "full" (all entries), "hollow" (off-diagonal
    entries), "vector", "scalar".
    """

    name: str
    fn: Callable[[dict], np.ndarray]
    rhs: np.ndarray
    structure: str

    def __post_init__(self):
        if self.structure not in _EQ_STRUCTURES:
            raise StructuralError(f"unknown equality structure {self.structure!r}")


@dataclass(frozen=True, eq=False)
class SdpFeasibilityProblem:
    """Declarative conic feasibility instance handed to the engine."""

    variables: tuple
    equalities: tuple
    objective: Optional[dict] = None
    meta: dict = field(default_factory=dict)

    def var(self, name: str) -> VarSpec:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def zero_assignment(self) -> dict:
        return {v.name: np.zeros(v.shape) for v in self.variables}

    def debug_dump(self) -> str:
        lines = ["variables:"]
        for v in self.variables:
            lines.append(f"  {v.name}: kind={v.kind} dim={v.dim}")
        lines.append("equalities:")
        for eq in self.equalities:
            lines.append(
                f"  {eq.name}: structure={eq.structure} rhs_shape={np.shape(eq.rhs)}"
            )
        if self.objective is not None:
            parts = ", ".join(sorted(self.objective))
            lines.append(f"objective over: {parts}")
        else:
            lines.append("objective: none (pure feasibility)")
        return "\n".join(lines)


def primal_lmi_matrix(sys: StateSpaceSystem, P: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The (n+m) x (n+m) matrix required negative definite by the primal."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, m = sys.n, sys.m
    AB = np.hstack([A, B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    lyap = AB.T @ P @ AB - I0.T @ P @ I0
    CD = np.hstack([C, D])
    OI = np.hstack([np.zeros((m, n)), np.eye(m)])
    outer = np.vstack([CD, OI])
    pi = build_multiplier(M, sys.band).pi
    return lyap + outer.T @ pi @ outer


def state_equality_block(sys: StateSpaceSystem, H: np.ndarray) -> np.ndarray:
    """[A B] H [A B]^T - [I 0] H [I 0]^T, the dual's dynamics block."""
    n, m = sys.n, sys.m
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    return AB @ H @ AB.T - I0 @ H @ I0.T


def output_coupling_block(sys: StateSpaceSystem, H: np.ndarray) -> np.ndarray:
    """Y(H) = ([0 I] - mu [C D]) H (nu [C D] - [0 I])^T.

    On the band [0, 1] this is [0 I] H ([C D] - [0 I])^T, the matrix the
    dual couples to (f, g, X[, Z]).  For a rank-1 H = (h1; h2)(h1; h2)^T it
    specializes to h2 (C h1 + D h2 - h2)^T.
    """
    n, m = sys.n, sys.m
    CD = np.hstack([sys.C, sys.D])
    OI = np.hstack([np.zeros((m, n)), np.eye(m)])
    left = OI - sys.band.mu * CD
    right = sys.band.nu * CD - OI
    return left @ H @ right.T


def _steer_matrix(sys: StateSpaceSystem) -> np.ndarray:
    """Linear functional whose value on rank-1 H is h1^T (A h1 + B h2).

    trace(S H) with S = sym([I 0]^T [A B]) equals the proof's branch
    discriminant on rank-1 iterates; the engine uses it as a small tie-break
    toward the branch where a certificate can be concluded.
    """
    n, m = sys.n, sys.m
    AB = np.hstack([sys.A, sys.B])
    I0 = np.hstack([np.eye(n), np.zeros((n, m))])
    S = I0.T @ AB
    return 0.5 * (S + S.T)


@lru_cache(maxsize=None)
def _triu_index(d: int):
    rows, cols = np.triu_indices(d)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _triu_entries(P: np.ndarray) -> np.ndarray:
    return P[_triu_index(P.shape[0])]


def _offdiag_matrix(M: np.ndarray) -> np.ndarray:
    out = np.array(M, dtype=float, copy=True)
    np.fill_diagonal(out, 0.0)
    return out


def build_primal(sys: StateSpaceSystem, kind: LmiKind) -> SdpFeasibilityProblem:
    """Assemble the max-margin strict-feasibility problem for the primal.

    Strictness is decided by maximizing t in L <= -t I (encoded as
    minimizing the slack s with t = 1 - s) under box bounds on P and on the
    diagonal of M, which makes the homogeneous problem numerically
    well-posed.  The caller declares the primal strictly feasible when the
    reported margin t* clears its threshold.
    """
    if not kind.is_primal:
        raise StructuralError(f"build_primal got dual kind {kind.tag!r}")
    if kind.reduced and not sys.band.is_reduced:
        raise StructuralError("reduced primal requires the band [0, 1]")
    n, m = sys.n, sys.m
    L = n + m if kind.reduced else 2 * n + m
    n_tri = n * (n + 1) // 2
    ones_m = np.ones(m)

    variables = [
        VarSpec("P", "sym" if kind.reduced else "psd", n),
        VarSpec("M_diag", "nonneg", m),
        VarSpec("lmi_slack", "psd", L),
        VarSpec("margin_slack", "nonneg", 1),
        VarSpec("P_box_hi", "nonneg", n_tri),
        VarSpec("P_box_lo", "nonneg", n_tri),
        VarSpec("M_diag_box", "nonneg", m),
    ]

    if kind.tag == "primal_dhd":
        variables.append(VarSpec("M_offdiag", "z0", m))
    else:
        variables += [
            VarSpec("M_offdiag", "hollow_free", m),
            VarSpec("M_abs", "hollow_nonneg", m),
            VarSpec("dom_hi_slack", "hollow_nonneg", m),
            VarSpec("dom_lo_slack", "hollow_nonneg", m),
        ]
    variables += [VarSpec("row_slack", "nonneg", m), VarSpec("col_slack", "nonneg", m)]

    def the_m(v: dict) -> np.ndarray:
        return np.diag(v["M_diag"]) + v["M_offdiag"]

    def lmi_lhs(v: dict) -> np.ndarray:
        core = primal_lmi_matrix(sys, v["P"], the_m(v))
        if not kind.reduced:
            core = np.block(
                [[core, np.zeros((n + m, n))], [np.zeros((n, n + m)), -v["P"]]]
            )
        return core - v["margin_slack"][0] * np.eye(L) + v["lmi_slack"]

    # box equalities are stated in units of the bound (rhs 1), which keeps
    # every constraint constant at O(1) and the slack solutions near 1
    equalities = [
        EqualityBlock("lmi_margin", lmi_lhs, -np.eye(L), "sym"),
        EqualityBlock(
            "p_box_hi",
            lambda v: _triu_entries(v["P"]) / BOX_BOUND + v["P_box_hi"],
            np.ones(n_tri),
            "vector",
        ),
        EqualityBlock(
            "p_box_lo",
            lambda v: -_triu_entries(v["P"]) / BOX_BOUND + v["P_box_lo"],
            np.ones(n_tri),
            "vector",
        ),
        EqualityBlock(
            "m_diag_box",
            lambda v: v["M_diag"] / BOX_BOUND + v["M_diag_box"],
            np.ones(m),
            "vector",
        ),
    ]

    if kind.tag == "primal_dhd":
        equalities += [
            EqualityBlock(
                "row_sums",
                lambda v: v["M_diag"] + v["M_offdiag"] @ ones_m - v["row_slack"],
                np.zeros(m),
                "vector",
            ),
            EqualityBlock(
                "col_sums",
                lambda v: v["M_diag"] + v["M_offdiag"].T @ ones_m - v["col_slack"],
                np.zeros(m),
                "vector",
            ),
        ]
    else:
        equalities += [
            EqualityBlock(
                "row_sums",
                lambda v: v["M_diag"] - v["M_abs"] @ ones_m - v["row_slack"],
                np.zeros(m),
                "vector",
            ),
            EqualityBlock(
                "col_sums",
                lambda v: v["M_diag"] - v["M_abs"].T @ ones_m - v["col_slack"],
                np.zeros(m),
                "vector",
            ),
            EqualityBlock(
                "dom_hi",
                lambda v: _offdiag_matrix(v["M_abs"] - v["M_offdiag"]) - v["dom_hi_slack"],
                np.zeros((m, m)),
                "hollow",
            ),
            EqualityBlock(
                "dom_lo",
                lambda v: _offdiag_matrix(v["M_abs"] + v["M_offdiag"]) - v["dom_lo_slack"],
                np.zeros((m, m)),
                "hollow",
            ),
        ]

    meta = {
        "system": sys,
        "kind": kind,
        "margin_from": "margin_slack",
        "lmi_dim": L,
        "strict_lmi": lambda v: primal_lmi_matrix(sys, v["P"], the_m(v)),
        "multiplier_from": the_m,
    }
    return SdpFeasibilityProblem(
        variables=tuple(variables),
        equalities=tuple(equalities),
        objective={"margin_slack": np.ones(1)},
        meta=meta,
    )


def build_dual(sys: StateSpaceSystem, kind: LmiKind) -> SdpFeasibilityProblem:
    """Assemble the reduced dual feasibility problem (band [0, 1] only).

    Normalization trace(H) = 1 pins the scale; any nonzero solution of the
    homogeneous system has H != 0, so no solutions are lost.
    """
    if kind.is_primal:
        raise StructuralError(f"build_dual got primal kind {kind.tag!r}")
    if not sys.band.is_reduced:
        raise StructuralError("the dual LMIs are defined on the band [0, 1] only")
    n, m = sys.n, sys.m
    ones = np.ones((m, 1))

    variables = [
        VarSpec("H", "psd", n + m),
        VarSpec("f", "nonneg", m),
        VarSpec("g", "nonneg", m),
        VarSpec("X", "z0", m),
    ]
    equalities = [
        EqualityBlock(
            "dyn", lambda v: state_equality_block(sys, v["H"]), np.zeros((n, n)), "sym"
        ),
        EqualityBlock(
            "scale", lambda v: np.trace(v["H"]), np.asarray(1.0), "scalar"
        ),
    ]

    if kind.tag == "dual_dhd":
        equalities.insert(
            1,
            EqualityBlock(
                "coupling",
                lambda v: output_coupling_block(sys, v["H"])
                - ones @ v["f"][None, :]
                - v["g"][:, None] @ ones.T
                - v["X"],
                np.zeros((m, m)),
                "full",
            ),
        )
    else:
        variables.append(VarSpec("Z", "z0", m))
        equalities.insert(
            1,
            EqualityBlock(
                "coupling_diag",
                lambda v: np.diag(output_coupling_block(sys, v["H"])) - v["f"] - v["g"],
                np.zeros(m),
                "vector",
            ),
        )
        equalities.insert(
            2,
            EqualityBlock(
                "coupling_offdiag",
                lambda v: _offdiag_matrix(
                    output_coupling_block(sys, v["H"]) - v["X"] + v["Z"]
                ),
                np.zeros((m, m)),
                "hollow",
            ),
        )
        equalities.insert(
            3,
            EqualityBlock(
                "pairing",
                lambda v: _offdiag_matrix(
                    v["X"] + v["Z"] + ones @ v["f"][None, :] + v["g"][:, None] @ ones.T
                ),
                np.zeros((m, m)),
                "hollow",
            ),
        )

    meta = {
        "system": sys,
        "kind": kind,
        "psd_main": "H",
        "steer": _steer_matrix(sys),
        "normalization": "scale",
    }
    return SdpFeasibilityProblem(
        variables=tuple(variables), equalities=tuple(equalities), objective=None, meta=meta
    )
