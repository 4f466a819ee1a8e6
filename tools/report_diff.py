"""List the benchmark reports that differ between two source checkouts.

    python3 tools/report_diff.py ROOT_A ROOT_B

Analyzes every input of the paper, ladder, corpus and corpus_full
workloads in each checkout, as tools/report_bytes.py does (one BLAS
thread, the program from ROOT/src, the inputs from ROOT/bench/workloads.py).
For every input whose report text differs it prints

    workload/input: verdict_a -> verdict_b
      path: a -> b

with one indented line per JSON path that differs: both values for a
scalar, a list's two lengths where they differ, and "absent" for a key
only one side has.  An input whose analysis raises reads as the verdict
"raised <exception name>", and one that a checkout lacks as "absent".
Then one line counts the differing reports, and the output ends with one
line per differing path, list indices folded, and the reports it differs
in:

    primal.P: 66 reports
"""

import json
import re
import sys
from collections import Counter
from pathlib import Path

from report_bytes import reports

_ABSENT = object()  # a key only the other side has


def _parse(text) -> dict:
    """The report as JSON, or a verdict naming the exception raised, or
    "absent" for text None."""
    if text is None:
        return {"verdict": "absent"}
    return json.loads(text) if text.startswith("{") else {"verdict": f"raised {text}"}


def _show(value) -> str:
    if isinstance(value, dict):
        return "{...}"
    if isinstance(value, list):
        return f"[{len(value)} items]"
    return json.dumps(value)


def differences(a, b, path=""):
    """Yield (path, a, b) for every place where the JSON values a and b
    differ: a scalar, a list's length, or a key that one side lacks (_ABSENT
    there)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                yield sub, a.get(key, _ABSENT), b.get(key, _ABSENT)
            else:
                yield from differences(a[key], b[key], sub)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{path} length", len(a), len(b)
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from differences(x, y, f"{path}[{i}]")
    elif a != b or type(a) is not type(b):
        yield path, a, b


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/report_diff.py ROOT_A ROOT_B", file=sys.stderr)
        return 2
    side_a = dict(reports(Path(argv[0]).resolve()))
    side_b = dict(reports(Path(argv[1]).resolve()))
    keys = {**side_a, **side_b}
    moved, by_path = 0, Counter()
    for key in keys:
        if side_a.get(key) == side_b.get(key):
            continue
        moved += 1
        a, b = _parse(side_a.get(key)), _parse(side_b.get(key))
        print(f"{key}: {a['verdict']} -> {b['verdict']}")
        paths = set()
        for path, x, y in differences(a, b):
            print(f"  {path}: {'absent' if x is _ABSENT else _show(x)} -> "
                  f"{'absent' if y is _ABSENT else _show(y)}")
            paths.add(re.sub(r"\[\d+\]", "", path))
        by_path.update(paths)
    print(f"{moved} of {len(keys)} reports differ")
    for path, count in sorted(by_path.items()):
        print(f"{path}: {count} reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
