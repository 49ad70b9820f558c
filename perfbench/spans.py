"""Span recorder for the traced run.

The program is not instrumented: the traced run replaces module-level
bindings of the library's entry points with wrappers that record a span per
call (name, start, end, parent span, query id, and a small note).  Modules
import functions by name, so every binding a caller resolves is wrapped;
``restore`` puts every original back.  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable

from stats import covered, percentile, self_time

# (module, attribute) pairs wrapped in the traced run.  A span is named after
# the binding; its layer is the module that defines the function.
BINDINGS = (
    ("solver", "validate"),
    ("solver", "refine"),
    ("solver", "locate_terminal_path"),
    ("solver", "phase1"),
    ("solver", "phase2"),
    ("solver", "reconstruct"),
    ("solver", "max_flow"),
    ("solver", "min_cut_value"),
    ("solver", "cut_table"),
    ("solver", "route_external_flow"),
    ("solver", "build_full_mimic"),
    ("solver", "merge_mimics"),
    ("solver", "build_mimic4_single_source"),
    ("solver", "build_mimic_general"),
    ("solver", "merge_networks"),
    ("solver", "decompose_k33_free"),
    ("solver", "decompose_k5_free"),
    ("decomposition", "spqr"),
    ("decomposition", "is_planar"),
    ("decomposition", "planar_embed"),
    ("decomposition", "biconnected_split"),
    ("external", "max_flow"),
    ("external", "min_cut_value"),
    # min_cut_value calls max_flow through its own module's binding.
    ("maxflow", "max_flow"),
    # build_mimic_general reaches the cut kernel through these two.
    ("mimic", "cut_table"),
    ("mimic", "min_cut_side"),
)

_MARK = "__perfbench_span__"
QUERY = "query"  # the benchmark's root span around one solve call


def _arcs(args, kwargs, result):
    return len(args[0].edges)


def _mode(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs.get("mode", "full")


def _components(args, kwargs, result):
    return (len(args[0].components), len(result.components))


def _vertices(args, kwargs, result):
    return (len(args[0].vertices), len(result.vertices))


_NOTES: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "max_flow": _arcs,
    "min_cut_side": _arcs,
    "cut_table": _mode,
    "refine": _components,
    "build_mimic_general": _vertices,
}


class Recorder:
    """Spans as lists [name, start, end, parent index, query id, note,
    raised], kept in call order, and FlowNetwork constructions per query."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.networks_built: dict[int | None, int] = defaultdict(int)
        self.query: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = _NOTES.get(name.split(".", 1)[1])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = clock()
                span[6] = True
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def run_query(self, query: int, call: Callable[[], Any]) -> Any:
        """Run one solve call under a root span for ``query``."""
        self.query = query
        try:
            return self.wrap(f"bench.{QUERY}", call)()
        finally:
            self.query = None

    def install(self) -> None:
        for mod_name, attr in BINDINGS:
            mod = importlib.import_module(f"minorflow.{mod_name}")
            self._patch(mod, attr, self.wrap(f"{mod_name}.{attr}", getattr(mod, attr)))
        # FlowNetwork constructions are counted, not spanned: there are too many.
        from minorflow.network import FlowNetwork

        post_init = FlowNetwork.__post_init__

        def counting_post_init(net):
            self.networks_built[self.query] += 1
            post_init(net)

        setattr(counting_post_init, _MARK, post_init)
        self._patch(FlowNetwork, "__post_init__", counting_post_init)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt") as out:
            for i, (name, start, end, parent, query, note, raised) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "query": query, "note": note, "raised": raised}
                out.write(json.dumps(rec) + "\n")


def wrapped_bindings() -> list[str]:
    """Bindings that currently hold a wrapper; empty when untraced."""
    from minorflow.network import FlowNetwork

    found = [
        f"{m}.{a}"
        for m, a in BINDINGS
        if hasattr(getattr(importlib.import_module(f"minorflow.{m}"), a), _MARK)
    ]
    if hasattr(FlowNetwork.__post_init__, _MARK):
        found.append("network.FlowNetwork.__post_init__")
    return found


def _layer(name: str) -> str:
    if name.startswith("bench."):
        return "bench"
    mod, attr = name.split(".", 1)
    fn = getattr(importlib.import_module(f"minorflow.{mod}"), attr)
    return fn.__module__.rsplit(".", 1)[-1]


def self_times(spans: list[list]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [self_time(s[1], s[2], children.get(i, ())) for i, s in enumerate(spans)]


def layer_metrics(
    rec: Recorder, queries: int, scales: dict[int, float]
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics over the traced queries, plus a breakdown of self
    time by layer and by span name.  Times and counts are per query unless
    the name says otherwise; ratios are of totals over the run.  Span times
    of query q are multiplied by ``scales[q]``, its factor to reference
    speed."""
    in_query = [i for i, s in enumerate(rec.spans) if s[4] is not None]
    spans = [rec.spans[i] for i in in_query]
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        by_name[s[0]].append(s)

    def busy(*names: str) -> float:
        # Union per query, so a binding reached through another never counts twice.
        per_query: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name in names:
            for s in by_name.get(name, ()):
                per_query[s[4]].append((s[1], s[2]))
        return sum(covered(iv) * scales[q] for q, iv in per_query.items()) / queries

    def count(*names: str, where: Callable[[list], bool] = lambda s: True) -> int:
        return sum(1 for name in names for s in by_name.get(name, ()) if where(s))

    def notes(name: str) -> list:
        return [s[5] for s in by_name.get(name, ()) if s[5] is not None]

    selfs = self_times(rec.spans)
    layers = {name: _layer(name) for name in by_name}
    self_by_layer: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    for i in in_query:
        name, query = rec.spans[i][0], rec.spans[i][4]
        self_by_layer[layers[name]] += selfs[i] * scales[query]
        self_by_name[name] += selfs[i] * scales[query]

    refine = notes("solver.refine")
    general = notes("solver.build_mimic_general")
    k4_steps = count("solver.cut_table", where=lambda s: s[5] == "single_source")
    general_built = count("solver.build_mimic_general")
    kernel = ("solver.max_flow", "external.max_flow", "maxflow.max_flow", "mimic.min_cut_side")
    kernel_calls = count(*kernel)
    general_in = sum(a for a, _ in general)

    # Coverage of each query by its direct children (the top-level layers).
    roots = {i: s for i, s in enumerate(rec.spans) if s[0] == f"bench.{QUERY}"}
    top: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in rec.spans:
        if s[3] in roots:
            top[s[3]].append((s[1], s[2]))
    coverage = [covered(top[i]) / (s[2] - s[1]) for i, s in roots.items()]

    per_q = lambda x: x / queries  # noqa: E731
    metrics = {
        "decomposition.validate_s": busy("solver.validate"),
        "decomposition.refine_s": busy("solver.refine"),
        "decomposition.decompose_s": busy("solver.decompose_k33_free", "solver.decompose_k5_free"),
        "decomposition.biconnected_split_s": busy("decomposition.biconnected_split"),
        "decomposition.components_in": per_q(sum(a for a, _ in refine)),
        "decomposition.components_refined": per_q(sum(b for _, b in refine)),
        "spqr.spqr_s": busy("decomposition.spqr"),
        "spqr.calls": per_q(count("decomposition.spqr")),
        "planar.is_planar_s": busy("decomposition.is_planar"),
        "planar.is_planar_calls": per_q(count("decomposition.is_planar")),
        "planar.planar_embed_s": busy("decomposition.planar_embed"),
        "solver.locate_s": busy("solver.locate_terminal_path"),
        "solver.phase1_s": busy("solver.phase1"),
        "solver.phase2_s": busy("solver.phase2"),
        "solver.final_solve_s": busy("solver.max_flow"),
        "solver.reconstruct_s": busy("solver.reconstruct"),
        "mimic.full_built": per_q(count("solver.build_full_mimic")),
        "mimic.merged": per_q(count("solver.merge_mimics")),
        "mimic.k4_steps": per_q(k4_steps),
        "mimic.k4_single_source_built": per_q(
            count("solver.build_mimic4_single_source", where=lambda s: not s[6])
        ),
        "mimic.general_built": per_q(general_built),
        "mimic.k4_hit_ratio": (k4_steps - general_built) / k4_steps if k4_steps else 0.0,
        "mimic.general_shrink_ratio": (
            sum(b for _, b in general) / general_in if general_in else 0.0
        ),
        "external.cut_table_s": busy("solver.cut_table", "mimic.cut_table"),
        "external.cut_tables": per_q(count("solver.cut_table", "mimic.cut_table")),
        "external.cut_table_min_cuts": per_q(count("external.min_cut_value")),
        "external.route_s": busy("solver.route_external_flow"),
        "external.routes": per_q(count("solver.route_external_flow")),
        "maxflow.calls": kernel_calls,
        "maxflow.calls_per_query": per_q(kernel_calls),
        "maxflow.busy_s": per_q(self_by_layer.get("maxflow", 0.0)),
        "maxflow.arcs": per_q(sum(sum(notes(n)) for n in kernel)),
        "network.networks_built": per_q(
            sum(c for q, c in rec.networks_built.items() if q is not None)
        ),
        "network.merge_calls": per_q(count("solver.merge_networks")),
        "trace.top_level_coverage": min(coverage) if coverage else 0.0,
        "trace.spans_per_query": per_q(len(spans)),
    }
    omitted = []
    if not k4_steps:
        omitted.append("mimic.k4_hit_ratio: no k=4 Phase II step ran (reported as 0)")
    if not general_in:
        omitted.append("mimic.general_shrink_ratio: no general mimic was built (reported as 0)")
    breakdown = {
        "self_s_per_query_by_layer": {k: v / queries for k, v in sorted(self_by_layer.items())},
        "self_s_per_query_by_span": {k: v / queries for k, v in sorted(self_by_name.items())},
        "top_level_coverage_p50": percentile(coverage, 50) if coverage else 0.0,
        "notes": omitted,
    }
    return metrics, breakdown
