"""Fingerprint every benchmark report of one source checkout.

    python3 tools/report_bytes.py ROOT > ROOT.txt

Imports the program from ROOT/src and the inputs from
ROOT/bench/workloads.py, analyzes every input of the paper, ladder, corpus
and corpus_full workloads, and prints one line per input,
"workload/input sha256", the digest of the report's canonical JSON.  File
inputs (the paper's examples) go through the command line, as the
benchmark runs them.  An input whose analysis raises prints the
exception's name in place of the digest.  Two checkouts have the same
reports exactly when `diff` finds no difference between their outputs.
"""

import os

# One BLAS thread, as the benchmark runs: a different thread count may sum
# in a different order.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("paper", "ladder", "corpus", "corpus_full")


def _load(root: Path):
    """(lurestab, workloads) of the checkout at root.  A lurestab imported
    before, from another checkout, is dropped first, so that one process
    can load two checkouts in turn."""
    for name in [n for n in sys.modules if n.split(".")[0] == "lurestab"]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    import lurestab
    import lurestab.cli

    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return lurestab, workloads


def _report(lurestab, case) -> str:
    """The canonical report text of one input."""
    if case.path is not None:
        buf = io.StringIO()
        with redirect_stdout(buf):
            lurestab.cli.main(["analyze", str(case.path)])
        return buf.getvalue()
    cls = lurestab.NonlinearityClass.SLOPE_ODD if case.odd else lurestab.NonlinearityClass.SLOPE
    system = lurestab.StateSpaceSystem(
        case.A, case.B, case.C, case.D, lurestab.SlopeBand(case.mu, case.nu), cls
    )
    return lurestab.report.analyze(system).to_json()


def reports(root: Path):
    """Yield ("workload/input", report text) for every input of the
    checkout at root; an input whose analysis raises yields the exception's
    name as its text."""
    lurestab, workloads = _load(root)
    for workload in WORKLOADS:
        for case in workloads.WORKLOADS[workload]():
            try:
                text = _report(lurestab, case)
            except Exception as exc:  # a known fault is part of the fingerprint
                text = type(exc).__name__
            yield f"{workload}/{case.name}", text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python3 tools/report_bytes.py ROOT", file=sys.stderr)
        return 2
    for key, text in reports(Path(argv[0]).resolve()):
        if text.startswith("{"):  # a report; an exception's name prints as it is
            text = hashlib.sha256(text.encode()).hexdigest()
        print(f"{key} {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
