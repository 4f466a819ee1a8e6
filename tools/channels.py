"""Analyze the seeded loops past the equilibrium search's channel count.

    python3 tools/channels.py ROOT > ROOT.txt

Imports the program from ROOT/src and analyzes 120 loops with m > 4: the
ladder recipe at n = m (tests/test_engine.py::_ladder_loop: A = N(0, 1)
scaled to spectral radius 0.8, B, C = 0.1 N(0, 1), D = 0.02 N(0, 1)) for
n in 5, 6, 8, 12 and 16, rng seeds 0 to 5 and both classes, on the bands
[0, 1.5 k*] and [0, 0.98 k*].  k* is the first gain at which
A + k B (I - k D)^{-1} C is not Schur, found on a 0.05 grid and refined to
0.001.  Prints one line per loop -- its verdict, inconclusive reason,
witness source, solve_conic calls and deflation rounds -- and then a
summary line.  The loops do not depend on ROOT, so two checkouts are
compared with `diff`.
"""

import os

# One BLAS thread, as the benchmark runs.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIZES = (5, 6, 8, 12, 16)
SEEDS = range(6)
BANDS = (1.5, 0.98)  # multiples of k*


def _plant(seed: int, n: int):
    """(A, B, C, D) of the ladder recipe at n = m with rng seed."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.8 / max(abs(np.linalg.eigvals(A)))
    B, C = 0.1 * rng.normal(size=(n, n)), 0.1 * rng.normal(size=(n, n))
    D = 0.02 * rng.normal(size=(n, n))
    return A, B, C, D


def _schur(A, B, C, D, k: float) -> bool:
    """Whether the loop closed with the linear gain k z is Schur."""
    Ak = A + k * B @ np.linalg.solve(np.eye(len(D)) - k * D, C)
    return max(abs(np.linalg.eigvals(Ak))) < 1.0


def critical_gain(A, B, C, D) -> float:
    """k*: the first gain on a 0.05 grid at which the loop closed with k z
    is not Schur, refined to the first such gain on a 0.001 grid."""
    coarse = next(j for j in range(1, 100_000) if not _schur(A, B, C, D, 0.05 * j))
    return next(k for k in (round(0.05 * (coarse - 1) + 0.001 * i, 3) for i in range(1, 51))
                if not _schur(A, B, C, D, k))


def loops():
    """(label, plant, nu) of every loop, in the order printed; each is
    analyzed on the band [0, nu] in both classes."""
    for multiple in BANDS:
        for n in SIZES:
            for seed in SEEDS:
                plant = _plant(seed, n)
                yield f"{multiple:g}k* n={n} seed={seed}", plant, multiple * critical_gain(*plant)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/channels.py ROOT", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    from lurestab import NonlinearityClass, SlopeBand, StateSpaceSystem, engine
    from lurestab.report import analyze

    real_solve = engine.solve_conic
    solves = []

    def counting(*args, **kwargs):
        solves.append(1)
        return real_solve(*args, **kwargs)

    engine.solve_conic = counting
    verdicts, total_solves, total_rounds = Counter(), 0, 0
    for label, plant, nu in loops():
        for cls in NonlinearityClass:
            solves.clear()
            rep = analyze(StateSpaceSystem(*plant, SlopeBand(0.0, nu), cls))
            pipe = rep.diagnostics["pipeline"]
            reason = pipe.get("inconclusive_reason", "-")
            rounds = pipe.get("rank_rounds", 0)
            print(f"{label} {cls.value}: {rep.verdict} {reason} {pipe.get('witness_source', '-')} "
                  f"solves={len(solves)} rounds={rounds}")
            verdicts[rep.verdict if reason == "-" else reason] += 1
            total_solves += len(solves)
            total_rounds += rounds
    summary = " ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
    print(f"loops={sum(verdicts.values())} {summary} solves={total_solves} rounds={total_rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
