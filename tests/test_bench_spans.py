"""The benchmark's span tracer patches the package by name; every name it
patches must exist, or `bench/run.py --trace 1` fails with an AttributeError,
and every layer it traces must be called, or a per-layer metric reads 0."""

import importlib
import importlib.util
import pathlib

import lurestab
import lurestab.cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


def test_every_span_target_is_called_on_the_dual_path(capsys):
    # the stable example solves the primal, and the slope example, whose
    # linear equilibrium skips the primal, runs the whole dual pass through
    # the CLI; only the simulation is no longer part of analyze
    spans = _load_spans()
    tracer = spans.Tracer()
    with tracer.patched(lurestab):
        for stem, expected_code in (("sys_decoupled", 0), ("sys_slope", 10)):
            tracer.op = stem
            code = lurestab.cli.main(["analyze", str(ROOT / "tests" / "data" / f"{stem}.json")])
            assert code == expected_code
            assert capsys.readouterr().out
    seen = {layer for *_, layer, _, _, _ in tracer.spans}
    expected = {layer for _, _, layer in spans.TARGETS} - {"simulate.simulate"}
    assert expected <= seen, expected - seen
    # the steer solve runs inside reduce_rank, which counts rounds only
    metrics = tracer.layer_metrics()
    assert metrics["engine.reduce_rank.calls"] == 1
    solves = {stem: sum(1 for _, _, op, layer, *_ in tracer.spans
                        if op == stem and layer == "conic.solve_conic")
              for stem in ("sys_decoupled", "sys_slope")}
    assert solves == {"sys_decoupled": 1, "sys_slope": 1 + metrics["engine.reduce_rank.rounds"]}
