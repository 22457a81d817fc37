"""In-memory spans around calls into gpbo, patched at the call sites.

A span is ``(name, start, end, parent, note)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``note`` is what the layer metric
needs from the call (an exception's class name, a point count, a jitter).
Spans are kept in a list and written out only when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module or class path, attribute, span name, note taken from the call)
CALL_SITES = [
    ("gpbo.loop", "optimize_hypers", "gp.optimize_hypers", None),
    ("gpbo.gp", "log_marginal_likelihood", "gp.lml", None),
    ("gpbo.gp", "gram_matrix", "kernels.gram", None),
    ("gpbo.gp", "gram_grad_hyper", "kernels.grad", None),
    ("gpbo.loop", "fit_posterior", "gp.fit_posterior", lambda a, out: out.jitter),
    ("gpbo.loop", "predict", "gp.predict", lambda a, out: len(a[1])),
    ("gpbo.gp", "cross_covariance", "kernels.cross_cov", None),
    ("gpbo.loop", "score", "acquisition.score", None),
    ("gpbo.loop", "propose_next", "loop.propose_next", None),
    ("gpbo.loop", "halton_points", "loop.halton", None),
    ("gpbo.objectives", "branin", "objectives.eval", None),
    ("gpbo.objectives", "rosenbrock", "objectives.eval", None),
    ("gpbo.gp:ObservationSet", "append", "gp.append", None),
    ("gpbo.loop", "incumbent", "loop.incumbent", None),
    ("gpbo.baseline", "incumbent", "loop.incumbent", None),
    ("gpbo.external:ExternalObjective", "__call__", "external.call",
     lambda a, out: a[0].evaluations),
    ("gpbo.trace_io:TraceWriter", "write", "trace_io.write", None),
    ("gpbo.cli", "random_search_baseline", "baseline", None),
    ("gpbo.cli", "main", "cli", None),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """Collects spans while installed; ``uninstall`` restores every callee."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name, start, clock(), parent, type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[index] = (name, start, clock(), parent, note(args, out) if note else None)
            return out

        return traced

    def install(self) -> None:
        for path, attr, name, note in CALL_SITES:
            owner = _owner(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,note\n")
            for name, start, end, parent, note in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{'' if note is None else note}\n")

    def layer_metrics(self) -> dict:
        """Per-layer counts, busy time, percentiles and self time."""
        by_name: dict[str, list[tuple]] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, note in self.spans:
            by_name.setdefault(name, []).append((end - start, note))
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]

        def durs(name):
            return [d for d, _ in by_name.get(name, [])]

        def p50(name, scale):
            d = durs(name)
            return statistics.median(d) * scale if d else 0.0

        # the first evaluation of each ExternalObjective starts its worker
        spawn, roundtrip = [], []
        for d, evaluations in by_name.get("external.call", []):
            (spawn if evaluations == 1 else roundtrip).append(d)
        m = {}
        for layer in ("gp.optimize_hypers", "gp.lml", "gp.predict", "acquisition.score",
                      "loop.propose_next", "objectives.eval", "trace_io.write"):
            m[f"{layer}.calls"] = (len(durs(layer)), "count")
        for layer in ("gp.optimize_hypers", "gp.lml", "kernels.gram", "kernels.grad",
                      "gp.fit_posterior", "gp.predict", "kernels.cross_cov",
                      "acquisition.score", "loop.propose_next", "loop.halton",
                      "objectives.eval", "gp.append", "loop.incumbent", "trace_io.write"):
            m[f"{layer}.busy_s"] = (sum(durs(layer)), "s")
        m["external.busy_s"] = (sum(durs("external.call")), "s")
        m["gp.optimize_hypers.ms_p50"] = (p50("gp.optimize_hypers", 1e3), "ms")
        m["gp.lml.us_p50"] = (p50("gp.lml", 1e6), "us")
        m["loop.propose_next.ms_p50"] = (p50("loop.propose_next", 1e3), "ms")
        m["gp.lml.failed"] = (
            sum(1 for _, note in by_name.get("gp.lml", []) if note == "FactorizationError"),
            "count",
        )
        m["gp.fit_posterior.jitter_escalations"] = (
            sum(1 for _, note in by_name.get("gp.fit_posterior", []) if note), "count"
        )
        m["gp.predict.points"] = (sum(n for _, n in by_name.get("gp.predict", [])), "count")
        m["external.roundtrip_us_p50"] = (
            statistics.median(roundtrip) * 1e6 if roundtrip else 0.0, "us"
        )
        m["external.spawn_ms"] = (statistics.median(spawn) * 1e3 if spawn else 0.0, "ms")
        m["baseline.self_s"] = (self_time.get("baseline", 0.0), "s")
        m["cli.self_s"] = (self_time.get("cli", 0.0), "s")
        m["trace.spans"] = (len(self.spans), "count")
        return m
