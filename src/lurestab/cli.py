"""Command-line surface: analyze | simulate | field.

JSON in, canonical JSON report or CSV data out.  Exit codes are part of the
contract: 0 absolutely stable, 10 not absolutely stable, 20 inconclusive,
1 input or command-line usage error, 2 numeric failure.
"""

import argparse
import json
import sys as _sys
from functools import lru_cache

import numpy as np

from .errors import (
    AssumptionViolatedError,
    CertificateInconsistentError,
    InternalContradictionError,
    NumericFailureError,
    StructuralError,
    UnsupportedModeError,
)
from .pwl import PiecewiseLinearMap
from .report import analyze, canonical_json
from .simulate import simulate, vector_field
from .system import NonlinearityClass, SlopeBand, StateSpaceSystem

__all__ = ["main"]

EXIT_STABLE = 0
EXIT_INPUT = 1
EXIT_NUMERIC = 2
EXIT_NOT_STABLE = 10
EXIT_INCONCLUSIVE = 20

_VERDICT_EXIT = {
    "absolutely_stable": EXIT_STABLE,
    "not_absolutely_stable": EXIT_NOT_STABLE,
    "inconclusive": EXIT_INCONCLUSIVE,
}

_INPUT_ERRORS = (
    OSError,
    json.JSONDecodeError,
    KeyError,
    TypeError,
    ValueError,
    StructuralError,
    AssumptionViolatedError,
    UnsupportedModeError,
)
_NUMERIC_ERRORS = (
    NumericFailureError,
    InternalContradictionError,
    CertificateInconsistentError,
    np.linalg.LinAlgError,
)


def _fmt(x: float) -> str:
    return format(float(x), ".16e")


def _load_system(path: str) -> StateSpaceSystem:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for key in ("A", "B", "C", "D", "mu", "nu", "class"):
        if key not in data:
            raise ValueError(f"input file is missing {key!r}")
    nl = NonlinearityClass(data["class"])
    band = SlopeBand(float(data["mu"]), float(data["nu"]))
    return StateSpaceSystem(
        A=np.asarray(data["A"], dtype=float),
        B=np.asarray(data["B"], dtype=float),
        C=np.asarray(data["C"], dtype=float),
        D=np.asarray(data["D"], dtype=float),
        band=band,
        nl_class=nl,
    )


def _load_phi(path: str) -> PiecewiseLinearMap:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if "breakpoints" not in data:
        raise ValueError("phi file is missing 'breakpoints'")
    return PiecewiseLinearMap(
        breakpoints=np.asarray(data["breakpoints"], dtype=float),
        odd=bool(data.get("odd", False)),
    )


def _write_text(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _cmd_analyze(args) -> int:
    sys_ = _load_system(args.input)
    report = analyze(sys_)
    _write_text(report.to_json(), args.out)
    if args.phi_out and report.phi is not None:
        _write_text(canonical_json(report.to_dict()["phi"]), args.phi_out)
    return _VERDICT_EXIT[report.verdict]


def _trajectory_csv(traj, n: int, m: int) -> str:
    header = (
        ["k"]
        + [f"x_{i+1}" for i in range(n)]
        + [f"z_{i+1}" for i in range(m)]
        + [f"w_{i+1}" for i in range(m)]
        + ["loop_residual"]
    )
    lines = [",".join(header)]
    for k in range(traj.states.shape[0]):
        row = (
            [str(k)]
            + [_fmt(v) for v in traj.states[k]]
            + [_fmt(v) for v in traj.outputs[k]]
            + [_fmt(v) for v in traj.inputs[k]]
            + [_fmt(traj.loop_residuals[k])]
        )
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cmd_simulate(args) -> int:
    sys_ = _load_system(args.input)
    phi = _load_phi(args.phi)
    x0 = np.asarray([float(tok) for tok in args.x0.split(",")], dtype=float)
    if x0.size != sys_.n:
        raise ValueError(f"x0 has {x0.size} entries, the system needs {sys_.n}")
    traj = simulate(sys_, phi, x0, args.steps)
    _write_text(_trajectory_csv(traj, sys_.n, sys_.m), args.out)
    return 0


def _cmd_field(args) -> int:
    sys_ = _load_system(args.input)
    phi = _load_phi(args.phi)
    pairs = vector_field(
        sys_,
        phi,
        xlim=(args.xmin, args.xmax),
        ylim=(args.ymin, args.ymax),
        nx=args.nx,
        ny=args.ny,
    )
    lines = ["x1,x2,dx1,dx2"]
    for x, dx in pairs:
        lines.append(",".join([_fmt(x[0]), _fmt(x[1]), _fmt(dx[0]), _fmt(dx[1])]))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as
    it was, and every call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="lurestab",
        description="Absolute stability analysis of discrete-time Lur'e systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="decide stability and report evidence")
    pa.add_argument("input", help="system JSON (A, B, C, D, mu, nu, class)")
    pa.add_argument("--out", default=None, help="report path (default stdout)")
    pa.add_argument("--phi-out", default=None, help="write constructed phi as JSON")
    pa.set_defaults(func=_cmd_analyze)

    ps = sub.add_parser("simulate", help="closed-loop trajectory CSV")
    ps.add_argument("input")
    ps.add_argument("--phi", required=True, help="phi JSON file")
    ps.add_argument(
        "--x0", required=True, help="comma-separated initial state, e.g. --x0=-0.5,-0.5"
    )
    ps.add_argument("--steps", type=int, default=1000)
    ps.add_argument("--out", default=None, help="CSV path (default stdout)")
    ps.set_defaults(func=_cmd_simulate)

    pf = sub.add_parser("field", help="one-step vector field CSV (n = 2 only)")
    pf.add_argument("input")
    pf.add_argument("--phi", required=True)
    pf.add_argument("--xmin", type=float, default=-2.0)
    pf.add_argument("--xmax", type=float, default=2.0)
    pf.add_argument("--ymin", type=float, default=-2.0)
    pf.add_argument("--ymax", type=float, default=2.0)
    pf.add_argument("--nx", type=int, default=21)
    pf.add_argument("--ny", type=int, default=21)
    pf.add_argument("--out", default=None, help="CSV path (default stdout)")
    pf.set_defaults(func=_cmd_field)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or usage and the error
        return 0 if exc.code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=_sys.stderr)
        return EXIT_INPUT
