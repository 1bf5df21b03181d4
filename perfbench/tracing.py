"""Per-layer tracing from outside the package.

The layers are the modules of ``gregory``: ``cli``, ``exact``,
``properties`` and ``quadrature``.  :class:`Tracer` replaces every public
function of ``exact``, ``properties`` and ``quadrature`` at the module
attributes through which another module calls it (for example
``gregory.cli.bernoulli2_series`` and
``gregory.properties.shifted_kernel_integral``) with a wrapper that records
a span: name, start, end, parent span and job id, kept in memory.  Hot tiny
calls (:data:`FOLDED`) get a count and their elapsed time instead of a span;
that time is charged to their own group and subtracted from the enclosing
span's self time.  Each job is one root span named ``cli.job``; ``cli``
self time is what is left of a job once the layer spans are taken out.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("exact", "properties", "quadrature")
JOB_SPAN = "cli.job"

FOLDED = {"is_majorized", "format_rational", "stieltjes_weight_unit"}

# function name -> metric group; functions not listed report as "<layer>.other"
GROUPS = {
    "bernoulli2_series": "exact.series",
    "bernoulli2_explicit_table": "exact.explicit",
    "check_cm_sequence": "properties.cm",
    "check_minimality_perturbation": "properties.cm",
    "check_log_convexity": "properties.log_convexity",
    "hankel_determinant": "properties.det",
    "check_shifted_kernel_determinants": "properties.det",
    "is_majorized": "properties.majorization",
    "check_majorization_inequality": "properties.majorization",
    "cm_grid_test": "properties.grid",
    "check_bernstein": "properties.grid",
    "estimate_cm_degree": "properties.grid",
}

_TABLE_BUILDERS = {"bernoulli2_series", "bernoulli2_explicit_table"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index into the span list
    job: int


def self_times(spans: list[Span], folded: dict[int, float]) -> list[float]:
    """Each span's duration minus the time its child spans and folded calls cover."""
    covered = [folded.get(i, 0.0) for i in range(len(spans))]
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def group_of(name: str) -> str:
    layer, _, function = name.partition(".")
    return "cli" if layer == "cli" else GROUPS.get(function, f"{layer}.other")


class Tracer:
    """Installs span wrappers on the package and accumulates spans and counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.folded: dict[int, float] = defaultdict(float)     # parent span -> time
        self.folded_time: dict[str, float] = defaultdict(float)  # group -> time
        self.counts: Counter = Counter()
        self.tables: dict[int, list[tuple]] = defaultdict(list)  # job -> builds
        self._stack: list[int] = []
        self._job = -1
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        for info in pkgutil.iter_modules(package.__path__):
            if info.name == "__main__":
                continue
            module = importlib.import_module(f"{package.__name__}.{info.name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__
                layer = owner.rpartition(".")[2]
                if owner == module.__name__ or layer not in LAYERS:
                    continue
                name = f"{layer}.{obj.__name__}"
                wrap = self._folded if obj.__name__ in FOLDED else self._spanned
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrap(obj, name))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    # -- recording ------------------------------------------------------

    def run_job(self, job_id: int, call):
        """Run call() inside the root span of job job_id."""
        self._job = job_id
        index = len(self.spans)
        span = Span(JOB_SPAN, time.perf_counter(), 0.0, None, job_id)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return call()
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _spanned(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        function = fn.__name__

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None, self._job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            self._observe(function, args, kwargs, result)
            return result

        return wrapper

    def _folded(self, fn, name):
        stack, clock = self._stack, time.perf_counter
        group = group_of(name)
        count_key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack:
                    self.folded[stack[-1]] += elapsed
                self.folded_time[group] += elapsed
                self.counts[count_key] += 1

        return wrapper

    def _observe(self, function, args, kwargs, result) -> None:
        self.counts[f"{function}.calls"] += 1
        if function in _TABLE_BUILDERS:
            n_max = args[0] if args else kwargs["n_max"]
            self.tables[self._job].append((function, n_max))
            if function == "bernoulli2_series":
                self.counts["series.coeffs"] += n_max + 1
        n_evals = getattr(result, "n_evals", None)
        if n_evals is not None:
            self.counts["quadrature.calls"] += 1
            self.counts["quadrature.n_evals"] += n_evals
            self.counts["quadrature.unconverged"] += not result.converged

    # -- summary --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures over everything recorded so far."""
        own = self_times(self.spans, self.folded)
        group_self: dict[str, float] = defaultdict(float, self.folded_time)
        job_total = 0.0
        for span, self_s in zip(self.spans, own):
            group_self[group_of(span.name)] += self_s
            if span.name == JOB_SPAN:
                job_total += span.end - span.start

        def layer_self(layer: str) -> float:
            return sum(v for g, v in group_self.items() if g.partition(".")[0] == layer)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        c = self.counts
        builds = sum(len(b) for b in self.tables.values())
        distinct = sum(len(set(b)) for b in self.tables.values())
        q_self = layer_self("quadrature")
        metrics = {"cli.self_s": group_self["cli"],
                   "cli.share": ratio(group_self["cli"], job_total),
                   "exact.series.calls": c["bernoulli2_series.calls"],
                   "exact.series.coeffs": c["series.coeffs"],
                   "exact.series.self_s": group_self["exact.series"],
                   "exact.explicit.self_s": group_self["exact.explicit"],
                   "exact.rebuild_ratio": ratio(builds, distinct),
                   "exact.share": ratio(layer_self("exact"), job_total)}
        for group in ("cm", "log_convexity", "det", "majorization", "grid"):
            metrics[f"properties.{group}.self_s"] = group_self[f"properties.{group}"]
        metrics.update({
            "properties.majorization.useful_ratio": ratio(
                c["check_majorization_inequality.calls"], c["properties.is_majorized.calls"]),
            "properties.share": ratio(layer_self("properties"), job_total),
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.n_evals": c["quadrature.n_evals"],
            "quadrature.evals_per_call": ratio(c["quadrature.n_evals"], c["quadrature.calls"]),
            "quadrature.ns_per_eval": ratio(q_self * 1e9, c["quadrature.n_evals"]),
            "quadrature.self_s": q_self,
            "quadrature.share": ratio(q_self, job_total),
            "quadrature.unconverged_ratio": ratio(c["quadrature.unconverged"],
                                                  c["quadrature.calls"]),
        })
        return metrics
