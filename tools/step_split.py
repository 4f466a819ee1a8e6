"""Split the time of one benchmark input's analysis by layer.

    python3 tools/step_split.py ROOT INPUT

Imports the program from ROOT/src and the inputs from
ROOT/bench/workloads.py, as tools/report_bytes.py does (one BLAS thread),
and analyzes INPUT, the name of one input of any workload (ladder-20,
corpus-43, ...), ANALYSES times after one warm-up analysis.  It times
engine.DualForm once per analysis and, in every interior-point step
(conic._step), the NT scaling (conic._Scaling), the Schur complement
(_Scaling.schur), its factor (conic._NormalFactor) and the rest of the
step, and prints the median of each:

    ladder-20: 20 analyses, 5.0 steps each
    analyze            96.61 ms
    DualForm            1.71 ms per analysis
    _Scaling            0.61 ms per step
    schur               6.87 ms per step
    _NormalFactor       6.42 ms per step
    rest of _step       3.72 ms per step

(one BLAS thread on a shared 2-vCPU x86-64 virtual machine).

Two checkouts are compared by running the tool on each in turn.
"""

import sys
import time
from pathlib import Path
from statistics import median

from report_bytes import _load

ANALYSES = 20
# what is timed inside each step
_INNER = ("_Scaling", "schur", "_NormalFactor")


def _timed(owner, name: str, times: list):
    """Replace owner.name by a wrapper that appends each call's seconds to
    times."""
    real = getattr(owner, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)

    setattr(owner, name, wrapper)


def split(root: Path, name: str) -> list:
    """[(label, median seconds, unit)] for the input called name."""
    lurestab, workloads = _load(root)
    case = next((c for make in workloads.WORKLOADS.values() for c in make() if c.name == name), None)
    if case is None:
        raise SystemExit(f"no input called {name!r} in {root / 'bench' / 'workloads.py'}")
    if case.path is not None:
        system = lurestab.cli._load_system(str(case.path))
    else:
        cls = lurestab.NonlinearityClass.SLOPE_ODD if case.odd else lurestab.NonlinearityClass.SLOPE
        system = lurestab.StateSpaceSystem(
            case.A, case.B, case.C, case.D, lurestab.SlopeBand(case.mu, case.nu), cls
        )
    conic, engine = lurestab.conic, lurestab.engine
    parts = {key: [] for key in ("DualForm",) + _INNER}
    _timed(engine.DualForm, "__init__", parts["DualForm"])
    _timed(conic._Scaling, "__init__", parts["_Scaling"])
    _timed(conic._Scaling, "schur", parts["schur"])
    _timed(conic._NormalFactor, "__init__", parts["_NormalFactor"])
    rest = []
    real_step = conic._step

    def step(*args):
        marks = [len(parts[key]) for key in _INNER]
        t0 = time.perf_counter()
        try:
            return real_step(*args)
        finally:
            seconds = time.perf_counter() - t0
            rest.append(seconds - sum(sum(parts[key][at:]) for key, at in zip(_INNER, marks)))

    conic._step = step
    lurestab.report.analyze(system)
    for times in list(parts.values()) + [rest]:
        times.clear()
    total = []
    for _ in range(ANALYSES):
        t0 = time.perf_counter()
        lurestab.report.analyze(system)
        total.append(time.perf_counter() - t0)
    rows = [("steps", len(rest) / ANALYSES, "per analysis"), ("analyze", median(total), ""),
            ("DualForm", median(parts["DualForm"]), "per analysis")]
    rows += [(key, median(parts[key] or [0.0]), "per step") for key in _INNER]
    return rows + [("rest of _step", median(rest or [0.0]), "per step")]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/step_split.py ROOT INPUT", file=sys.stderr)
        return 2
    root, name = Path(argv[0]).resolve(), argv[1]
    rows = split(root, name)
    print(f"{name}: {ANALYSES} analyses, {rows[0][1]:.1f} steps each")
    for label, seconds, unit in rows[1:]:
        print(f"{label:<15} {1e3 * seconds:8.2f} ms {unit}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
