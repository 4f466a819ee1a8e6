"""Split the time of one benchmark input's analysis by layer, for one or
more checkouts side by side.

    python3 tools/step_split.py ROOT [ROOT ...] INPUT

Imports the program from each ROOT/src and the inputs from
ROOT/bench/workloads.py, as tools/report_bytes.py does (one BLAS thread),
and analyzes INPUT, the name of one input of any workload (ladder-20,
corpus-43, ...), ANALYSES times per checkout after one warm-up analysis
each.  The checkouts take turns analysis by analysis in this one process,
so that a drift of the host's speed falls on all of them alike.  It times
engine.DualForm once per analysis and, in every interior-point step
(conic._step), the NT scaling (conic._Scaling), the Schur complement
(_Scaling.schur), its factor (conic._NormalFactor) and the rest of the
step, and prints the median of each, one column per ROOT:

    ladder-20: 20 analyses per checkout, alternated
                        parent     change
    steps                  5.0        5.0 per analysis
    analyze              99.46      79.49 ms
    DualForm              1.99       2.07 ms per analysis
    _Scaling              0.60       0.61 ms per step
    schur                 7.04       2.80 ms per step
    _NormalFactor         6.55       6.58 ms per step
    rest of _step         3.71       3.39 ms per step

(one BLAS thread on a shared 2-vCPU x86-64 virtual machine; the columns
are headed by each ROOT's directory name).
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


class _Checkout:
    """The checkout at root, loaded and instrumented, with the system of
    the input called name."""

    def __init__(self, root: Path, name: str):
        lurestab, workloads = _load(root)
        case = next((c for make in workloads.WORKLOADS.values() for c in make() if c.name == name),
                    None)
        if case is None:
            raise SystemExit(f"no input called {name!r} in {root / 'bench' / 'workloads.py'}")
        if case.path is not None:
            self.system = lurestab.cli._load_system(str(case.path))
        else:
            cls = lurestab.NonlinearityClass.SLOPE_ODD if case.odd else lurestab.NonlinearityClass.SLOPE
            self.system = lurestab.StateSpaceSystem(
                case.A, case.B, case.C, case.D, lurestab.SlopeBand(case.mu, case.nu), cls
            )
        self.analyze = lurestab.report.analyze
        conic, engine = lurestab.conic, lurestab.engine
        self.parts = parts = {key: [] for key in ("DualForm",) + _INNER}
        _timed(engine.DualForm, "__init__", parts["DualForm"])
        _timed(conic._Scaling, "__init__", parts["_Scaling"])
        _timed(conic._Scaling, "schur", parts["schur"])
        _timed(conic._NormalFactor, "__init__", parts["_NormalFactor"])
        self.rest = rest = []
        self.total = []
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

    def run(self):
        """One timed analysis."""
        t0 = time.perf_counter()
        self.analyze(self.system)
        self.total.append(time.perf_counter() - t0)

    def clear(self):
        for times in list(self.parts.values()) + [self.rest, self.total]:
            times.clear()

    def rows(self) -> list:
        """[(label, median seconds, unit)]; steps is a count."""
        parts = self.parts
        rows = [("steps", len(self.rest) / len(self.total), "per analysis"),
                ("analyze", median(self.total), ""),
                ("DualForm", median(parts["DualForm"]), "per analysis")]
        rows += [(key, median(parts[key] or [0.0]), "per step") for key in _INNER]
        return rows + [("rest of _step", median(self.rest or [0.0]), "per step")]


def split(roots: list, name: str) -> list:
    """Per root, [(label, median seconds, unit)] for the input called
    name, the roots analyzing in turn."""
    checkouts = [_Checkout(root, name) for root in roots]
    for checkout in checkouts:
        checkout.run()
        checkout.clear()
    for _ in range(ANALYSES):
        for checkout in checkouts:
            checkout.run()
    return [checkout.rows() for checkout in checkouts]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 2:
        print("usage: python3 tools/step_split.py ROOT [ROOT ...] INPUT", file=sys.stderr)
        return 2
    roots, name = [Path(arg).resolve() for arg in argv[:-1]], argv[-1]
    columns = split(roots, name)
    print(f"{name}: {ANALYSES} analyses per checkout" + (", alternated" if len(roots) > 1 else ""))
    print(" " * 15 + "".join(f" {root.name[-10:]:>10}" for root in roots))
    for i, (label, _, unit) in enumerate(columns[0]):
        if i == 0:
            cells = "".join(f" {rows[i][1]:10.1f}" for rows in columns)
        else:
            cells = "".join(f" {1e3 * rows[i][1]:10.2f}" for rows in columns)
            unit = f"ms {unit}"
        print(f"{label:<15}{cells} {unit}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
