"""Span tracing of the program's layers, recorded from outside the package.

The tracer replaces public functions by timing wrappers at the names the
program looks them up under (several are imported by name, so
`lurestab.report.solve` is patched, not `lurestab.engine.solve`), keeps the
spans in memory and restores the originals when the traced block ends.
A span's self time is its duration minus the time of the spans it caused.
"""

import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, layer): each wrapped where the caller looks it up.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "analyze", "report.analyze"),
    ("report", "analyze", "report.analyze"),
    ("report", "validate", "system.validate"),
    ("report", "build_primal", "lmi.build"),
    ("report", "build_dual", "lmi.build"),
    ("report", "solve", "engine.solve"),
    ("report", "reduce_rank", "engine.reduce_rank"),
    ("engine", "solve_conic", "conic.solve_conic"),
    ("report", "extract_certificate", "detector.extract_certificate"),
    ("report", "build_pwl", "detector.build_pwl"),
    ("report", "verify_slope", "pwl.verify_slope"),
    ("report", "simulate", "simulate.simulate"),
)

# Counts read off a layer's result.
RESULT_COUNTS = {
    "conic.solve_conic": ("conic.iters", lambda res: res.iterations),
    "engine.reduce_rank": ("engine.reduce_rank.rounds", lambda res: res.diagnostics.get("rounds", 0)),
}

# Per-layer metrics: name -> (layer, statistic, unit).
LAYER_METRICS = {
    "conic.solve_conic.s": ("conic.solve_conic", "total", "s"),
    "conic.solve_conic.calls": ("conic.solve_conic", "calls", "count"),
    "conic.iters": ("conic.iters", "count", "count"),
    "engine.solve.self_s": ("engine.solve", "self", "s"),
    "multipliers.build_multiplier.calls": ("multipliers.build_multiplier.calls", "count", "count"),
    "engine.reduce_rank.self_s": ("engine.reduce_rank", "self", "s"),
    "engine.reduce_rank.calls": ("engine.reduce_rank", "calls", "count"),
    "engine.reduce_rank.rounds": ("engine.reduce_rank.rounds", "count", "count"),
    "lmi.build.s": ("lmi.build", "total", "s"),
    "system.validate.s": ("system.validate", "total", "s"),
    "detector.extract_certificate.s": ("detector.extract_certificate", "total", "s"),
    "detector.build_pwl.s": ("detector.build_pwl", "total", "s"),
    "pwl.verify_slope.s": ("pwl.verify_slope", "total", "s"),
    "simulate.simulate.s": ("simulate.simulate", "total", "s"),
    "report.analyze.self_s": ("report.analyze", "self", "s"),
    "report.to_json.s": ("report.to_json", "total", "s"),
    "cli.main.self_s": ("cli.main", "self", "s"),
}


class Tracer:
    """Spans (id, parent id, operation, layer, start, end, self seconds)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._ids = itertools.count()
        self._stack = []  # [span id, layer, start, seconds of child spans]

    def _wrap(self, layer, fn):
        count = RESULT_COUNTS.get(layer)

        def wrapper(*args, **kwargs):
            frame = [next(self._ids), layer, time.perf_counter(), 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - frame[2]
                if self._stack:
                    self._stack[-1][3] += dur
                self.spans.append((frame[0], parent, self.op, layer, frame[2], end, dur - frame[3]))
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return wrapper

    def _counter(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self, lurestab):
        """Trace every layer of the given package while the block runs."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        try:
            for mod, attr, layer in TARGETS:
                owner = getattr(lurestab, mod)
                patch(owner, attr, self._wrap(layer, getattr(owner, attr)))
            report_cls = lurestab.report.AnalysisReport
            patch(report_cls, "to_json", self._wrap("report.to_json", report_cls.to_json))
            patch(
                lurestab.lmi,
                "build_multiplier",
                self._counter("multipliers.build_multiplier.calls", lurestab.lmi.build_multiplier),
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_metrics(self):
        """Per-layer figures of every span and count recorded."""
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for _, _, _, layer, start, end, self_s in self.spans:
            total[layer] += end - start
            own[layer] += self_s
            calls[layer] += 1
        stats = {"total": total, "self": own, "calls": calls, "count": self.counts}
        out = {name: stats[stat][layer] for name, (layer, stat, _) in LAYER_METRICS.items()}
        iters = out["conic.iters"]
        out["conic.s_per_iter"] = out["conic.solve_conic.s"] / iters if iters else 0.0
        return out
