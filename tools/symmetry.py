"""Analyze loops under exact transforms that change no fact about them.

    python3 tools/symmetry.py ROOT > ROOT.txt

Imports the program from ROOT/src and analyzes each loop of two sets:
corpus_full, every input of that workload in ROOT/bench/workloads.py, and
channels, the 120 loops of tools/channels.py.
Each loop is analyzed as given and under three transforms.  Each is exact
in floating point (powers of two and permutations only) and leaves the
loop's dynamics, band and class unchanged, so no outcome should follow it:

    scale    a diagonal state scaling T^-1 A T, T^-1 B, C T, with
             T = diag(2, 1/2, 4, 2, 1/2, 4, ...)
    io       the scaling 4 B, C / 4
    reverse  the channels in reverse order (B's columns, C's rows, D's
             rows and columns)

A transformed loop's outcome is its verdict, inconclusive reason and
witness source ("-" where absent), or the name of the exception its
analysis raises.  For every outcome that differs from the loop's own it
prints

    set loop transform: outcome -> outcome

and then one summary line per set, with the moves counted by the first of
verdict, reason and witness source that moved, and by transform:

    channels: loops=120 runs=360 moved=0 verdict=0 reason=0 witness_source=0 scale=0 io=0 reverse=0

A move is an outcome that follows the rounding of the loop's coordinates,
not the loop.  The loops do not depend on ROOT, so two checkouts are
compared with `diff`.  The channels set takes about four times as long as
tools/channels.py.
"""

import os

# One BLAS thread, as the benchmark runs.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib.util  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from channels import loops  # noqa: E402

FIELDS = ("verdict", "reason", "witness_source")


def _scale(A, B, C, D):
    t = 2.0 ** np.resize([1.0, -1.0, 2.0], len(A))
    return A * t / t[:, None], B / t[:, None], C * t, D


def _io(A, B, C, D):
    return A, 4.0 * B, C / 4.0, D


def _reverse(A, B, C, D):
    return A, B[:, ::-1], C[::-1], D[::-1, ::-1]


TRANSFORMS = {"scale": _scale, "io": _io, "reverse": _reverse}


def _corpus_full(root: Path):
    """(label, plant, mu, nu, odd) of every corpus_full input."""
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for case in workloads.WORKLOADS["corpus_full"]():
        yield case.name, (case.A, case.B, case.C, case.D), case.mu, case.nu, case.odd


def _channels():
    """(label, plant, mu, nu, odd) of every tools/channels.py loop."""
    for label, plant, nu in loops():
        for odd in (False, True):
            yield f"{label} {'slope_odd' if odd else 'slope'}", plant, 0.0, nu, odd


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/symmetry.py ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    sys.path.insert(0, str(root / "src"))
    from lurestab import NonlinearityClass, SlopeBand, StateSpaceSystem
    from lurestab.report import analyze

    def outcome(plant, mu, nu, odd) -> tuple:
        cls = NonlinearityClass.SLOPE_ODD if odd else NonlinearityClass.SLOPE
        try:
            rep = analyze(StateSpaceSystem(*plant, SlopeBand(mu, nu), cls))
        except Exception as exc:  # a raised analysis is an outcome too
            return (f"raised {type(exc).__name__}", "-", "-")
        pipe = rep.diagnostics["pipeline"]
        return (rep.verdict, pipe.get("inconclusive_reason", "-"), pipe.get("witness_source", "-"))

    summaries = []
    for name, loops_of_set in (("corpus_full", _corpus_full(root)), ("channels", _channels())):
        moves, nloops = Counter(), 0
        for label, plant, mu, nu, odd in loops_of_set:
            nloops += 1
            own = outcome(plant, mu, nu, odd)
            for tname, transform in TRANSFORMS.items():
                got = outcome(transform(*plant), mu, nu, odd)
                if got != own:
                    field = next(f for f, a, b in zip(FIELDS, own, got) if a != b)
                    moves[field] += 1
                    moves[tname] += 1
                    print(f"{name} {label} {tname}: {' '.join(own)} -> {' '.join(got)}", flush=True)
        counts = " ".join(f"{key}={moves[key]}" for key in FIELDS + tuple(TRANSFORMS))
        summaries.append(f"{name}: loops={nloops} runs={nloops * len(TRANSFORMS)} "
                         f"moved={sum(moves[f] for f in FIELDS)} {counts}")
    print("\n".join(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main())
