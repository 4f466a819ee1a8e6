"""Input recipes of the three benchmark workloads.

Every input is a plain `Case`: the plant matrices, the slope band and the
class, with no object of the program under test in it, so the independent
checker can read the same data.  The recipes are documented in README.md.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAPER_FILES = ("sys_slope", "sys_slope_odd", "sys_decoupled")

# The expected verdict and CLI exit code of the paper's own examples.
PAPER_EXPECT = {
    "sys_slope": ("not_absolutely_stable", 10),
    "sys_slope_odd": ("not_absolutely_stable", 10),
    "sys_decoupled": ("absolutely_stable", 0),
}

LADDER_SIZES = (2, 4, 8, 12, 16, 20)

# The timed corpus is every third system of the fixed 120-system corpus,
# i = 1, 4, ..., 118: a whole pass over all 120 takes about 90 s here, more
# than the run budget of the benchmark allows.  The residue keeps both
# classes (i odd is slope_odd) and the known crash at i = 100.
CORPUS_SIZE = 120
CORPUS_STRIDE = 3
CORPUS_OFFSET = 1

# Shapes and bands of the general-band additions.  Odd class with m = 1 is
# the fault input of fault_keyerror(), not one of these shapes.
GENERAL_BAND_SHAPES = (
    (1, 1, False, -0.5, 1.0),
    (2, 2, False, -1.0, 1.0),
    (3, 2, True, -0.3, 1.5),
    (2, 3, False, -0.2, 2.0),
    (3, 3, True, -1.0, 0.5),
    (2, 4, True, -0.5, 2.0),
    (3, 4, False, -0.1, 0.8),
    (1, 2, True, -2.0, 2.0),
)


@dataclass(frozen=True)
class Case:
    """One input of a workload, with what the benchmark knows about it.

    expect_verdict is set where the verdict is known from the recipe (the
    paper's examples and the ladder); expect_error names the exception of a
    known fault.  path is the JSON file the CLI reads, for file inputs.
    """

    name: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    mu: float
    nu: float
    odd: bool
    path: Optional[Path] = None
    expect_verdict: Optional[str] = None
    expect_exit: Optional[int] = None
    expect_error: Optional[str] = None


def _case(name, A, B, C, D, mu=0.0, nu=1.0, odd=False, **extra) -> Case:
    A, B, C, D = (np.array(M, dtype=float) for M in (A, B, C, D))
    return Case(name, A, B, C, D, float(mu), float(nu), bool(odd), **extra)


def paper() -> list:
    out = []
    for stem in PAPER_FILES:
        path = ROOT / "tests" / "data" / f"{stem}.json"
        raw = json.loads(path.read_text())
        verdict, code = PAPER_EXPECT[stem]
        out.append(
            _case(
                stem, raw["A"], raw["B"], raw["C"], raw["D"], raw["mu"], raw["nu"],
                raw["class"] == "slope_odd", path=path,
                expect_verdict=verdict, expect_exit=code,
            )
        )
    return out


def ladder() -> list:
    """Primal-only n = m ladder: stable by small gain at every size."""
    rng = np.random.default_rng(3)
    out = []
    for n in LADDER_SIZES:
        A = rng.normal(size=(n, n))
        A *= 0.8 / max(abs(np.linalg.eigvals(A)))
        B = 0.1 * rng.normal(size=(n, n))
        C = 0.1 * rng.normal(size=(n, n))
        D = 0.02 * rng.normal(size=(n, n))
        out.append(_case(f"ladder-{n}", A, B, C, D, expect_verdict="absolutely_stable"))
    return out


def roadmap_corpus() -> list:
    """The fixed 120-system robustness corpus, drawn exactly as recorded."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(CORPUS_SIZE):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.95) / max(abs(np.linalg.eigvals(A)).max(), 1e-9)
        B, C = rng.normal(size=(n, m)), rng.normal(size=(m, n))
        D = rng.normal(size=(m, m)) * rng.uniform(0, 1)
        err = "LinAlgError" if i == 100 else None  # known fault, see README.md
        out.append(_case(f"corpus-{i}", A, B, C, D, odd=bool(i % 2), expect_error=err))
    return out


def general_band(seed: int = 2025) -> list:
    """Systems on bands mu < 0 < nu, stable by small gain for every seed.

    A is scaled to spectral norm below 0.8 and B, C, D so that
    max(|mu|, nu) * ||G||_inf <= 0.5, so the circle criterion holds and the
    verdict is absolutely_stable whatever the seed draws.  The corpus uses
    the fixed default seed: these systems sit at the corpus's median
    latency, and drawing them anew for each run moved that median by more
    than host noise does.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k, (n, m, odd, mu, nu) in enumerate(GENERAL_BAND_SHAPES):
        gain = max(-mu, nu)
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.3, 0.8) / np.linalg.norm(A, 2)
        B, C = rng.normal(size=(n, m)), rng.normal(size=(m, n))
        D = rng.normal(size=(m, m))
        D *= 0.1 / (gain * np.linalg.norm(D, 2))
        bc = np.linalg.norm(B, 2) * np.linalg.norm(C, 2) / (1.0 - np.linalg.norm(A, 2))
        s = np.sqrt(0.4 / (gain * bc))
        out.append(
            _case(f"band-{k}", A, s * B, s * C, D, mu, nu, odd,
                  expect_verdict="absolutely_stable")
        )
    return out


def fault_keyerror() -> Case:
    """Odd class, m = 1, band other than [0, 1]: the reconstruct fault."""
    return _case(
        "odd-m1-band", [[0.5]], [[0.1]], [[0.1]], [[0.0]], -0.3, 1.5, True,
        expect_error="KeyError",
    )


def corpus() -> list:
    fixed = roadmap_corpus()[CORPUS_OFFSET::CORPUS_STRIDE]
    return fixed + general_band() + [fault_keyerror()]


WORKLOADS = {"paper": paper, "ladder": ladder, "corpus": corpus, "corpus_full": roadmap_corpus}
