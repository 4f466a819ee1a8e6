"""Analysis pipeline and canonical report serialization.

analyze() brings the loop to the slope band [0, 1] (system.normalize_band)
and runs the primal there first; a strict-margin win means absolute
stability.  Otherwise the dual is solved once, steering toward the branch
the proof concludes on, rank-reduced, and pushed through certificate
extraction and nonlinearity construction.  The certificate or the witness
is then mapped back to the original band, where the slope audit and a
one-step algebraic equilibrium check run.  Every verdict carries
the residuals and tolerances that produced it, and reports serialize to
byte-stable canonical JSON (sorted keys, fixed 17-significant-digit
floats, no timestamps).
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detector import Inconclusive, build_pwl, extract_certificate
from .conic import MAX_ITERS
from .engine import CONE_TOL, PRIMAL_MARGIN, TOL_EQ, TOL_RANK, build_dual, reduce_rank, solve
from .errors import AssumptionViolatedError
from .linalg import spectral_norm
from .lmi import build_primal, multiplier_matrix
from .pwl import PiecewiseLinearMap, eval_pwl, verify_slope
from .simulate import simulate  # noqa: F401  bench/spans.py patches lurestab.report.simulate
from .system import NonlinearityClass, SlopeBand, StateSpaceSystem, normalize_band, validate

__all__ = ["AnalysisReport", "analyze", "canonical_json"]

_EQ_CHECK_TOL = 1.0e-9


def _plain(obj):
    """Recursively convert numpy containers to plain python types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError("non-finite value cannot enter a canonical report")
    return format(float(x), ".16e")


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str))


def _emit(obj, level: int) -> str:
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit(obj[k], level + 1)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(_is_scalar(v) for v in obj):
            return "[" + ", ".join(_emit(v, 0) for v in obj) + "]"
        parts = [f"{inner}{_emit(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, .16e floats, trailing newline."""
    return _emit(_plain(obj), 0) + "\n"


@dataclass
class AnalysisReport:
    """Verdict plus the evidence that produced it."""

    verdict: str  # "absolutely_stable" | "not_absolutely_stable" | "inconclusive"
    primal: Optional[dict]
    dual: Optional[dict]
    phi: Optional[PiecewiseLinearMap]
    diagnostics: dict

    def to_dict(self) -> dict:
        phi = None
        if self.phi is not None:
            phi = {
                "odd": bool(self.phi.odd),
                "breakpoints": self.phi.breakpoints.tolist(),
            }
        return _plain(
            {
                "verdict": self.verdict,
                "primal": self.primal,
                "dual": self.dual,
                "phi": phi,
                "diagnostics": self.diagnostics,
            }
        )

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def _band_input(band: SlopeBand, z, w) -> np.ndarray:
    """Loop input on the band for input w of the normalized loop at output z."""
    return band.mu * np.asarray(z) + (band.nu - band.mu) * np.asarray(w)


def _equilibrium_check(sys: StateSpaceSystem, phi, h1, w_star, v) -> dict:
    """Residuals of h1 = A h1 + B w* and w* = phi(C h1 + D w*), with bounds.

    v is A h1 + B w*.  Each bound is _EQ_CHECK_TOL times the size of the
    terms its residual is summed from, the scale bench/checker.py judges the
    same two equations on, so a witness within both bounds passes there too.
    """
    nh1, nw = np.linalg.norm(h1), np.linalg.norm(w_star)
    state = np.linalg.norm(v - h1)
    loop = np.max(np.abs(eval_pwl(phi, sys.C @ h1 + sys.D @ w_star) - w_star))
    state_bound = _EQ_CHECK_TOL * (spectral_norm(sys.A) * nh1 + spectral_norm(sys.B) * nw + nh1)
    loop_bound = _EQ_CHECK_TOL * (
        np.max(np.abs(phi.w_nodes)) + np.max(np.abs(w_star))
        + (spectral_norm(sys.C) * nh1 + spectral_norm(sys.D) * nw)
    )
    ok = state <= state_bound and loop <= loop_bound
    return _plain({"ok": ok, "state_residual": state, "state_bound": state_bound,
                   "loop_residual": loop, "loop_bound": loop_bound})


def analyze(sys: StateSpaceSystem) -> AnalysisReport:
    """Decide absolute stability or produce instability evidence.

    The LMIs are solved for normalize_band(sys).  The margin and the dual
    blocks H, f, g, X, Z stay in those normalized coordinates; P, M, h1,
    h2 = w*, z* and phi are reported for the original system and band.
    The tolerances are fixed module constants, echoed in
    diagnostics["tolerances"].

    diagnostics["pipeline"]["inconclusive_reason"] is one of band_normalization,
    dual_not_feasible, rank, sign, degenerate, slope_check, equilibrium_check.
    """
    vrep = validate(sys)  # raises on a non-Schur A

    diagnostics = {
        "system": {
            "n": vrep.n,
            "m": vrep.m,
            "spectral_radius": vrep.rho_a,
            "schur_margin": vrep.schur_margin,
            "d_norm": vrep.d_norm,
            "gain_margin": vrep.gain_margin,
            "well_posedness_guaranteed": vrep.well_posedness_guaranteed,
            "band": [sys.band.mu, sys.band.nu],
            "nonlinearity_class": sys.nl_class.value,
        },
        "tolerances": {
            "tol_rank": TOL_RANK,
            "tol_eq": TOL_EQ,
            "primal_margin": PRIMAL_MARGIN,
            "cone_tol": CONE_TOL,
            "max_ipm_iters": MAX_ITERS,
            "equilibrium_check_tol": _EQ_CHECK_TOL,
        },
        "pipeline": {},
    }
    pipe = diagnostics["pipeline"]
    is_odd = sys.nl_class is NonlinearityClass.SLOPE_ODD
    primal_dict = dual_dict = phi = None

    def report(verdict: str) -> AnalysisReport:
        return AnalysisReport(verdict, primal_dict, dual_dict, phi, diagnostics)

    try:
        unit = normalize_band(sys)
    except AssumptionViolatedError as exc:
        pipe["inconclusive_reason"] = "band_normalization"
        pipe["inconclusive_detail"] = str(exc)
        return report("inconclusive")

    primal_res = solve(build_primal(unit))
    pipe["primal_status"] = primal_res.status
    pipe["primal_ipm_status"] = primal_res.diagnostics["ipm_status"]
    pipe["primal_ipm_iterations"] = primal_res.diagnostics["ipm_iterations"]
    primal_dict = {
        "status": primal_res.status,
        "margin": primal_res.residuals.margin,
        "max_equality_residual": primal_res.residuals.max_equality,
        "max_cone_violation": primal_res.residuals.max_cone_violation,
    }
    if primal_res.status == "feasible":
        # the normalized LMI at (P, M (nu - mu)^2) is a congruence of the
        # original one at (P, M)
        M = multiplier_matrix(primal_res.assignment)
        primal_dict["P"] = primal_res.assignment["P"]
        primal_dict["M"] = M / (sys.band.nu - sys.band.mu) ** 2
        return report("absolutely_stable")

    dual_problem = build_dual(primal_res)
    dual_res = solve(dual_problem)
    pipe["dual_status"] = dual_res.status
    if dual_res.status != "feasible":
        pipe["inconclusive_reason"] = "dual_not_feasible"
        dual_dict = {
            "status": dual_res.status,
            "max_equality_residual": dual_res.residuals.max_equality,
            "max_cone_violation": dual_res.residuals.max_cone_violation,
        }
        return report("inconclusive")

    reduced = reduce_rank(dual_problem, dual_res)
    pipe["rank_trail"] = list(reduced.diagnostics["rank_trail"])
    pipe["rank_rounds"] = reduced.diagnostics["rounds"]

    dual_dict = {
        "status": "feasible",
        "max_equality_residual": reduced.residuals.max_equality,
        "max_cone_violation": reduced.residuals.max_cone_violation,
        "H": reduced.assignment["H"],
    }

    outcome = extract_certificate(unit, reduced, sys.nl_class)
    if isinstance(outcome, Inconclusive):
        pipe["inconclusive_reason"] = outcome.reason
        pipe["inconclusive_detail"] = outcome.detail
        return report("inconclusive")
    cert = outcome
    pipe["snapped_segments"] = cert.snapped
    # h1 and z* are shared by both loops; only the input changes
    w_star = _band_input(sys.band, cert.z_star, cert.w_star)
    v = sys.A @ cert.h1 + sys.B @ w_star
    dual_dict.update(
        {
            "rank": cert.rank,
            "h1": cert.h1,
            "h2": w_star,
            "z_star": cert.z_star,
            "w_star": w_star,
            "f": cert.f,
            "g": cert.g,
            "X": cert.X,
            "Z": cert.Z,
            "sign_min": float(np.min(v * cert.h1)),
        }
    )

    unit_phi = build_pwl(cert, odd=is_odd)
    z_nodes = unit_phi.z_nodes
    phi = PiecewiseLinearMap(
        np.column_stack([z_nodes, _band_input(sys.band, z_nodes, unit_phi.w_nodes)]),
        odd=is_odd,
    )
    srep = verify_slope(phi, sys.band)
    pipe["slope_check"] = {
        "ok": srep.ok,
        "min_slope": srep.min_slope,
        "max_slope": srep.max_slope,
        "origin_defect": srep.origin_defect,
        "odd_defect": srep.odd_defect,
    }
    if not srep.ok:
        pipe["inconclusive_reason"] = "slope_check"
        return report("inconclusive")

    eq = _equilibrium_check(sys, phi, cert.h1, w_star, v)
    pipe["equilibrium_check"] = eq
    if not eq["ok"]:
        pipe["inconclusive_reason"] = "equilibrium_check"
        return report("inconclusive")

    return report("not_absolutely_stable")
