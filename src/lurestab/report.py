"""Analysis pipeline and canonical report serialization.

analyze() brings the loop to the slope band [0, 1] (system.normalize_band)
and first asks whether a linear gain shows an equilibrium; such a loop
cannot satisfy the LMI, so its primal is not solved.  Otherwise the primal
runs there; a strict-margin win means absolute stability.  If it fails,
for m <= 4, the equilibrium search runs next, and a loop with no
equilibrium ends inconclusive without a dual solve.  Either way a
nonzero equilibrium (h1, w) of the loop is known before the dual pass,
where one of the two applies, as equilibria hands it on; analyze itself
does no linear algebra on the loop.  One pass over the dual
(engine.reduce_rank) then solves it, steering toward the branch the proof concludes on, and deflates a point
that is not rank one only where no equilibrium input is known.
Certificate extraction reads the rank-one factor the pass returns as the
paper does, and the witness is mapped back to the original band, where
the slope audit and a one-step algebraic equilibrium check run.  On every
m a dual pass that ends numerical_limit, or a dual witness that fails
extraction, whose map cannot be built, or that fails either check, gives
way to the known equilibrium.  The primal's block is its status and the
achieved margin -lambda_max(L(P, M)), with P and M when it certifies; the
dual's carries the raw residuals of its point.  Every verdict carries the
margin, residuals and tolerances that produced it, and reports serialize
to byte-stable canonical JSON (sorted keys, fixed 17-significant-digit
floats, no timestamps).
"""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .detector import DualCertificate, Inconclusive, build_pwl, extract_certificate, fit
from .conic import MAX_ITERS
from .engine import CONE_TOL, PRIMAL_MARGIN, TOL_EQ, TOL_RANK, build_dual, reduce_rank, solve
from .equilibria import MAX_CHANNELS, linear_equilibrium, search, zero_state
from .errors import AssumptionViolatedError, CertificateInconsistentError
from .linalg import spectral_norm
from .lmi import build_primal, multiplier_matrix
from .pwl import PiecewiseLinearMap, eval_pwl, verify_slope
from .simulate import simulate  # noqa: F401  bench/spans.py patches lurestab.report.simulate
from .system import SlopeBand, StateSpaceSystem, normalize_band, validate

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
    A zero state h1 (equilibria.zero_state) fails the check: the
    equilibrium must be nonzero.
    """
    nh1, nw = np.linalg.norm(h1), np.linalg.norm(w_star)
    state = np.linalg.norm(v - h1)
    loop = np.max(np.abs(eval_pwl(phi, sys.C @ h1 + sys.D @ w_star) - w_star))
    state_bound = _EQ_CHECK_TOL * (spectral_norm(sys.A) * nh1 + spectral_norm(sys.B) * nw + nh1)
    loop_bound = _EQ_CHECK_TOL * (
        np.max(np.abs(phi.w_nodes)) + np.max(np.abs(w_star))
        + (spectral_norm(sys.C) * nh1 + spectral_norm(sys.D) * nw)
    )
    ok = state <= state_bound and loop <= loop_bound and not zero_state(h1, w_star)
    return _plain({"ok": ok, "state_residual": state, "state_bound": state_bound,
                   "loop_residual": loop, "loop_bound": loop_bound})


def _witness(sys: StateSpaceSystem, cert: DualCertificate):
    """The destabilizing map of a certificate of the normalized loop, mapped
    back to sys's band, and its audits.

    Returns (phi, reason, checks, evidence): reason is None when the slope
    audit and the equilibrium check both pass, else the name of the one
    that failed; checks are the audits' pipeline entries and evidence the
    witness's entries of the dual block.
    """
    # h1 and z* are shared by both loops; only the input changes
    w_star = _band_input(sys.band, cert.z_star, cert.h2)
    v = sys.A @ cert.h1 + sys.B @ w_star
    evidence = {
        "h1": cert.h1,
        "h2": w_star,
        "z_star": cert.z_star,
        "w_star": w_star,
        "sign_min": float(np.min(v * cert.h1)),
    }
    unit_phi = build_pwl(sys, cert)  # reads only the class, which normalizing keeps
    z_nodes = unit_phi.z_nodes
    phi = PiecewiseLinearMap(
        np.column_stack([z_nodes, _band_input(sys.band, z_nodes, unit_phi.w_nodes)]),
        odd=unit_phi.odd,
    )
    srep = verify_slope(phi, sys.band)
    checks = {
        "snapped_segments": cert.snapped,
        "slope_check": {
            "ok": srep.ok,
            "min_slope": srep.min_slope,
            "max_slope": srep.max_slope,
            "origin_defect": srep.origin_defect,
            "odd_defect": srep.odd_defect,
        },
    }
    if not srep.ok:
        return phi, "slope_check", checks, evidence
    checks["equilibrium_check"] = eq = _equilibrium_check(sys, phi, cert.h1, w_star, v)
    return phi, None if eq["ok"] else "equilibrium_check", checks, evidence


def analyze(sys: StateSpaceSystem) -> AnalysisReport:
    """Decide absolute stability or produce instability evidence.

    The LMIs are solved for normalize_band(sys).  The margin and the dual
    blocks H, f, g, X, Z stay in those normalized coordinates; P, M, h1,
    h2 = w*, z* and phi are reported for the original system and band.
    The tolerances are fixed module constants, echoed in
    diagnostics["tolerances"].

    Where a linear gain shows an equilibrium (equilibria.linear_equilibrium
    returns lambda, a real eigenvalue >= 1 of G, and the equilibrium
    (h1, w) at its eigenvector w, of nonzero state h1, that the class map
    z / lambda closes) the strict LMI has no solution, and the primal is
    built for the dual but not solved: report.primal is None, the pipeline has no
    primal_* keys, and diagnostics["pipeline"]["linear_equilibrium"] holds
    lambda.  The
    linear gain decides no verdict itself.  Otherwise a primal that does
    not certify sends a loop with m <= MAX_CHANNELS to the equilibrium
    search, whose record is diagnostics["pipeline"]["equilibrium_search"]
    exactly when it runs.  A search with no ray ends the report
    inconclusive with reason no_equilibrium after one solve, the primal's:
    report.dual is None and the pipeline has no dual_status or rank_* keys.
    After the dual pass one fallback rule holds on every m: a dual pass
    that ends "numerical_limit", or a dual witness that fails
    (extract_certificate is Inconclusive, build_pwl cannot build its map,
    or the slope audit or the equilibrium check fails), gives way to the
    known equilibrium (h1, w), the eigenvector's or the search's ray's, as
    equilibria handed it on, and diagnostics["pipeline"]["witness_source"]
    is "linear" or "search".  Where no input is known, a map that cannot
    be built raises CertificateInconsistentError.
    After a numerical_limit pass the dual block keeps its status and
    residuals and gains the witness's entries, but no H, f, g, X or Z, and
    the pipeline has no rank_* keys.  So reason dual_not_feasible means
    that no input is known and the pass did not end feasible, or that a
    Farkas certificate of the dual certified as a primal point.  The
    dual pass deflates a point that is not rank one only where no input is
    known (m > MAX_CHANNELS with no linear equilibrium), so rank_stop
    "equilibrium" means an input is known, the reasons rank, sign and
    degenerate occur only where none is, and a witness read off a deflated
    point (rank_rounds > 0) has witness_source "dual".

    diagnostics["pipeline"]["inconclusive_reason"] is one of band_normalization,
    dual_not_feasible, no_equilibrium, rank, sign, degenerate, slope_check,
    equilibrium_check.
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
    primal_dict = dual_dict = phi = None

    def report(verdict: str) -> AnalysisReport:
        return AnalysisReport(verdict, primal_dict, dual_dict, phi, diagnostics)

    try:
        unit = normalize_band(sys)
    except AssumptionViolatedError as exc:
        pipe["inconclusive_reason"] = "band_normalization"
        pipe["inconclusive_detail"] = str(exc)
        return report("inconclusive")

    # one conic form serves the primal solve and the dual pass.  A linear
    # gain with an equilibrium rules out a strict LMI solution, so the
    # primal is not solved; the equilibrium at its eigenvector is the known
    # one, and the search does not run
    linear = linear_equilibrium(unit)
    form = build_dual(build_primal(unit))
    known = source = None
    if linear is not None:
        pipe["linear_equilibrium"], known = linear
        source = "linear"
    else:
        primal_res = solve(form)
        pipe["primal_status"] = primal_res.status
        pipe["primal_ipm_status"] = primal_res.diagnostics["ipm_status"]
        pipe["primal_ipm_iterations"] = primal_res.diagnostics["ipm_iterations"]
        primal_dict = {
            "status": primal_res.status,
            "margin": primal_res.margin,
        }
        if primal_res.status == "feasible":
            # the normalized LMI at (P, M (nu - mu)^2) is a congruence of the
            # original one at (P, M)
            M = multiplier_matrix(primal_res.assignment, sys.nl_class)
            primal_dict["P"] = primal_res.assignment["P"]
            primal_dict["M"] = M / (sys.band.nu - sys.band.mu) ** 2
            return report("absolutely_stable")
        if unit.m <= MAX_CHANNELS:
            pipe["equilibrium_search"], known = search(unit)
            if known is None:
                pipe["inconclusive_reason"] = "no_equilibrium"
                return report("inconclusive")
            source = "search"

    reduced = reduce_rank(form, deflate=known is None)
    feasible = reduced.status == "feasible"
    pipe["dual_status"] = reduced.status
    dual_dict = {
        "status": reduced.status,
        "max_equality_residual": reduced.residuals.max_equality,
        "max_cone_violation": reduced.residuals.max_cone_violation,
    }
    if not feasible and (known is None or reduced.status == "infeasible"):
        # no input to fall back on, or a Farkas certificate that certified
        pipe["inconclusive_reason"] = "dual_not_feasible"
        return report("inconclusive")

    witness = None
    if feasible:
        pipe["rank_trail"] = list(reduced.diagnostics["rank_trail"])
        pipe["rank_rounds"] = reduced.diagnostics["rounds"]
        pipe["rank_stop"] = reduced.diagnostics["rank_stop"]
        dual_dict["H"] = reduced.assignment["H"]
        outcome = extract_certificate(unit, reduced.factor)
        if not isinstance(outcome, Inconclusive):
            try:
                witness = _witness(sys, outcome)
            except CertificateInconsistentError:
                if known is None:
                    raise  # no input to fall back on
    fallback = known is not None and (witness is None or witness[1] is not None)
    if fallback:
        # a dual pass that ends numerical_limit, or a dual witness that
        # fails a gate, its map or an audit, gives way to the known equilibrium
        witness = _witness(sys, fit(unit, *known))
    if witness is None:
        pipe["inconclusive_reason"] = outcome.reason
        pipe["inconclusive_detail"] = outcome.detail
        return report("inconclusive")

    phi, reason, checks, evidence = witness
    pipe.update(checks)
    dual_dict.update(evidence)
    if feasible:
        blocks = reduced.assignment
        dual_dict.update(f=blocks["f"], g=blocks["g"], X=blocks["X"], Z=blocks.get("Z"))
    if fallback:
        pipe["witness_source"] = source
    else:
        dual_dict["rank"] = 1  # the witness is H's rank-one factor
        if pipe["rank_rounds"] > 0:
            pipe["witness_source"] = "dual"  # read off a deflated point
    if reason is not None:
        pipe["inconclusive_reason"] = reason
        return report("inconclusive")
    return report("not_absolutely_stable")
