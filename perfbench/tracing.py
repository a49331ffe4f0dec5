"""In-memory span and counter recorder that traces sntail from outside.

Each layer is timed by replacing its public functions with wrappers under
the names their callers look up (``sntail.oracles.profile_batch`` is the
name ``region_tail_integral`` resolves at call time, for example).  The
package itself is not modified; `Tracer.restore` puts every original back.

A span records name, start, end, the span that caused it and the
invocation it belongs to.  Spans started on a worker thread with no open
span of their own take the main thread's innermost open span as parent,
so Monte Carlo chunk stages nest under the `estimate_tail` call that
dispatched them.  Counters are counted from the arguments and results at
the same boundaries; nothing is estimated except `density.pdf_evals`,
which is computed as points times z-plan nodes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: str
    invocation: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# Counting functions: (tracer, span, args, kwargs, result) -> None.


def _rows(points: Any) -> int:
    """Number of points stacked along the last axis; a 1-D array is one point."""
    shape = getattr(points, "shape", ())
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _plan_nodes(plan: Any, variant: str | None) -> int | None:
    pos = getattr(plan, "pos_nodes", None)
    neg = getattr(plan, "neg_nodes", None)
    if pos is None or neg is None:
        return None
    if variant == "weighted":
        return int(pos.size)
    return int(pos.size + neg.size)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any = None) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _count_profile_batch(tracer, span, args, kwargs, result) -> None:
    points = _rows(_arg(args, kwargs, 1, "vs"))
    nodes = _plan_nodes(_arg(args, kwargs, 3, "plan"), _arg(args, kwargs, 2, "variant"))
    span.attrs["points"] = points
    tracer.count("density.profile_points", points)
    if nodes is None:
        tracer.missing.add("ZPlan.pos_nodes/neg_nodes")
        return
    span.attrs["plan_nodes"] = nodes
    tracer.count("density.pdf_evals", points * nodes)


def _count_z_plan(tracer, span, args, kwargs, result) -> None:
    nodes = _plan_nodes(result, None)
    if nodes is None:
        tracer.missing.add("ZPlan.pos_nodes/neg_nodes")
        return
    span.attrs["nodes"] = nodes
    tracer.count("density.z_plan_nodes", nodes)


def _count_region(tracer, span, args, kwargs, result) -> None:
    meta = getattr(result, "metadata", None) or {}
    if "refinement_level" in meta:
        levels = int(meta["refinement_level"]) + 1
        span.attrs["levels"] = levels
        tracer.count("oracles.region_levels", levels)
    if "nodes" in meta:
        span.attrs["nodes"] = int(meta["nodes"])
        tracer.count("oracles.region_nodes", int(meta["nodes"]))


def _count_estimate(tracer, span, args, kwargs, result) -> None:
    sampler = _arg(args, kwargs, 0, "sampler")
    span.attrs["trials"] = int(getattr(sampler, "trials", 0))
    span.attrs["workers"] = int(getattr(sampler, "workers", 1))


def _count_chunk(tracer, span, args, kwargs, result) -> None:
    tracer.count("montecarlo.chunks", 1)


def _g_points(counter: str | None):
    def count(tracer, span, args, kwargs, result) -> None:
        points = _rows(_arg(args, kwargs, 0, "vs"))
        tracer.count("analytic_core.g_many_points", points)
        if counter:
            tracer.count(counter, points)

    return count


# (module, attribute, span name or None for counting only, counting function).
# The module is where the caller looks the name up, not where it is defined.
HOOKS: tuple[tuple[str, str, str | None, Callable | None], ...] = (
    ("sntail.cli", "parse_config", "cli.parse_config", None),
    ("sntail.cli", "emit", "cli.emit", None),
    ("sntail.cli", "run_verify", "ledger.run_verify", None),
    ("sntail.cli", "predict_tail", "asymptotics.predict_tail", None),
    ("sntail.ledger", "predict_tail", "asymptotics.predict_tail", None),
    ("sntail.cli", "region_tail_integral", "oracles.region_tail_integral", _count_region),
    ("sntail.ledger", "region_tail_integral", "oracles.region_tail_integral", _count_region),
    ("sntail.bounds", "region_tail_integral", "oracles.region_tail_integral", _count_region),
    ("sntail.cli", "sphere_tail_exact", "oracles.sphere_tail_exact", None),
    ("sntail.ledger", "sphere_tail_exact", "oracles.sphere_tail_exact", None),
    ("sntail.ledger", "leading_coeff_fit", "oracles.leading_coeff_fit", None),
    ("sntail.cli", "curvature_functionals", "bounds.curvature_functionals", None),
    ("sntail.bounds", "curvature_functionals", "bounds.curvature_functionals", None),
    ("sntail.cli", "envelope_bounds", "bounds.envelope_bounds", None),
    ("sntail.bounds", "envelope_bounds", "bounds.envelope_bounds", None),
    ("sntail.ledger", "validate_sandwich", "bounds.validate_sandwich", None),
    ("sntail.oracles", "profile_batch", "density.profile_batch", _count_profile_batch),
    ("sntail.bounds", "profile_batch", "density.profile_batch", _count_profile_batch),
    ("sntail.oracles", "build_z_plan", "density.build_z_plan", _count_z_plan),
    ("sntail.bounds", "build_z_plan", "density.build_z_plan", _count_z_plan),
    ("sntail.oracles", "h_profile", "density.h_profile", None),
    ("sntail.bounds", "h_profile", "density.h_profile", None),
    ("sntail.asymptotics", "h_profile", "density.h_profile", None),
    ("sntail.asymptotics", "weighted_profile_mirror", "density.h_profile", None),
    ("sntail.cli", "estimate_tail", "montecarlo.estimate_tail", _count_estimate),
    ("sntail.ledger", "estimate_tail", "montecarlo.estimate_tail", _count_estimate),
    ("sntail.montecarlo", "_chunk_uniforms", "montecarlo.uniforms", _count_chunk),
    ("sntail.montecarlo", "statistic_batch", "montecarlo.statistic_batch", None),
    ("sntail.density", "DensityModel.draw_from_uniforms", "density.draw_from_uniforms", None),
    ("sntail.bounds", "g_many", None, _g_points("bounds.g_points")),
    ("sntail.oracles", "g_many", None, _g_points(None)),
    ("sntail.analytic_core", "g_many", None, _g_points(None)),
)


class Tracer:
    """Spans and counters of traced invocations, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = {}
        self.missing: set[str] = set()
        self.invocation = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters.setdefault(self.invocation, Counter())[name] += amount

    def _call(self, name: str | None, counter: Callable | None, fn, args, kwargs):
        if name is None:
            result = fn(*args, **kwargs)
            counter(self, None, args, kwargs, result)
            return result
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = Span(next(self._ids), parent, name, 0.0, 0.0,
                    threading.current_thread().name, self.invocation)
        stack.append(span.span_id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if counter is not None:
            counter(self, span, args, kwargs, result)
        return result

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook target; targets that no longer exist are noted."""
        for module_name, attr, name, counter in HOOKS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, self._wrapper(original, name, counter))

    def _wrapper(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, counter, fn, args, kwargs)

        return traced

    def restore(self) -> None:
        """Put back every original, in reverse order of wrapping."""
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# ---------------------------------------------------------------------------
# Deriving per-layer metrics from the spans of one invocation.

# Span names whose total duration is reported as the metric `<name>_s`.
TIMED_SPANS = (
    "density.profile_batch",
    "density.build_z_plan",
    "density.h_profile",
    "density.draw_from_uniforms",
    "oracles.region_tail_integral",
    "oracles.sphere_tail_exact",
    "oracles.leading_coeff_fit",
    "bounds.curvature_functionals",
    "bounds.envelope_bounds",
    "bounds.validate_sandwich",
    "montecarlo.estimate_tail",
    "montecarlo.uniforms",
    "montecarlo.statistic_batch",
    "asymptotics.predict_tail",
    "ledger.run_verify",
    "cli.parse_config",
    "cli.emit",
)

CALL_COUNTS = {
    "density.profile_batch_calls": "density.profile_batch",
    "density.build_z_plan_calls": "density.build_z_plan",
    "density.h_profile_calls": "density.h_profile",
    "oracles.region_calls": "oracles.region_tail_integral",
    "bounds.curvature_calls": "bounds.curvature_functionals",
}

COUNTERS = (
    "density.profile_points",
    "density.pdf_evals",
    "density.z_plan_nodes",
    "oracles.region_levels",
    "oracles.region_nodes",
    "bounds.g_points",
    "montecarlo.chunks",
    "analytic_core.g_many_points",
)

REGION_LEVELS = 3
_MC_STAGES = ("montecarlo.uniforms", "density.draw_from_uniforms", "montecarlo.statistic_batch")


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.span_id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            parent = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, parent.start), min(s.end, parent.end))
            )
    return {
        s.span_id: s.duration - union_length(children.get(s.span_id, []))
        for s in spans
    }


def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans of `name` with no ancestor of the same name (no double counting)."""
    by_id = {s.span_id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def invocation_metrics(spans: list[Span], counters: Counter, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation of `wall` seconds."""
    out: dict[str, float] = {}
    for name in TIMED_SPANS:
        out[f"{name}_s"] = sum(s.duration for s in _outermost(spans, name))
    for metric, name in CALL_COUNTS.items():
        out[metric] = sum(1 for s in spans if s.name == name)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    evals = out["density.pdf_evals"]
    out["density.ns_per_pdf_eval"] = (
        1e9 * out["density.profile_batch_s"] / evals if evals else 0.0
    )

    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)
    levels = [0.0] * REGION_LEVELS
    for region in (s for s in spans if s.name == "oracles.region_tail_integral"):
        batches = sorted(
            (s for s in spans
             if s.parent == region.span_id and s.name == "density.profile_batch"),
            key=lambda s: s.start,
        )
        for k, batch in enumerate(batches[:REGION_LEVELS]):
            levels[k] += batch.duration
    for k, value in enumerate(levels):
        out[f"oracles.region_level{k}_s"] = value
    out["oracles.region_self_s"] = sum(
        own[s.span_id] for s in spans if s.name == "oracles.region_tail_integral"
    )
    out["ledger.self_s"] = sum(own[s.span_id] for s in spans if s.name == "ledger.run_verify")

    estimates = [s for s in spans if s.name == "montecarlo.estimate_tail"]
    trials = sum(s.attrs.get("trials", 0) for s in estimates)
    out["montecarlo.ns_per_trial"] = (
        1e9 * out["montecarlo.estimate_tail_s"] / trials if trials else 0.0
    )
    capacity = sum(s.duration * s.attrs.get("workers", 1) for s in estimates)
    busy = 0.0
    for stage in (s for s in spans if s.name in _MC_STAGES):
        parent = by_id.get(stage.parent)
        if parent is not None and parent.name == "montecarlo.estimate_tail":
            busy += stage.duration
    out["montecarlo.worker_busy_frac"] = busy / capacity if capacity else 0.0

    out["trace.untraced_s"] = wall - union_length([(s.start, s.end) for s in spans])
    return out


def median_metrics(per_invocation: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced invocations of a run."""
    return {
        key: float(statistics.median(m[key] for m in per_invocation))
        for key in per_invocation[0]
    }
