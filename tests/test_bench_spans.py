"""The benchmark's span tracer patches the package by name; every name it
patches must exist, or `bench/run.py --trace 1` fails with an AttributeError."""

import importlib
import importlib.util
import pathlib

import lurestab

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve_on_the_package():
    spans = _load_spans()
    assert spans.TARGETS
    for mod, attr, _ in spans.TARGETS:
        owner = importlib.import_module(f"lurestab.{mod}")
        assert callable(getattr(owner, attr, None)), f"lurestab.{mod}.{attr}"
    assert callable(lurestab.lmi.build_multiplier)
    assert callable(lurestab.report.AnalysisReport.to_json)
