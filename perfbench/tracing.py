"""Spans around calls into the library's layers, recorded from outside.

A ``Tracer`` replaces the layer functions listed below, in every loaded
``wondercoh`` module that refers to them, with wrappers that record a
span (name, start, end, parent span, operation id) in memory.  Span
times are process CPU time, the clock the harness times operations with.  The
library itself is not edited; ``uninstall`` puts the originals back.

From the spans this module derives the machine-independent count block,
the per-layer metrics and the per-layer self-time summary.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (span name, module, attribute, size of the result or None)
FUNCTIONS = (
    ("varieties.build_case", "varieties", "build_case", None),
    ("cohomology.enumerate", "cohomology", "_ball_coefficients", len),
    ("cohomology.enumerate_candidates", "cohomology", "enumerate_candidates", len),
    ("cohomology.contributions", "cohomology", "contributions", len),
    ("cohomology.cohomology_table", "cohomology", "cohomology_table", None),
    ("cohomology.omega_signature", "cohomology", "omega_signature", None),
    ("oracles.serre_involution_check", "oracles", "serre_involution_check", None),
    ("oracles.brion_h0", "oracles", "brion_h0", None),
    ("degrees.check_lengths", "degrees", "check_lengths", None),
    ("degrees.check_table_against_rule", "degrees", "check_table_against_rule", None),
    ("regions.region_plot", "regions", "region_plot", lambda plot: len(plot.points)),
    ("serialize.table_to_json", "serialize", "table_to_json", len),  # ASCII text
    ("cli.main", "cli", "main", None),
)
# (span name, module, class, method, size of the result or None)
METHODS = (
    ("varieties.pic_contains", "varieties", "WonderfulVariety", "pic_contains", None),
    ("roots.chamber_walk", "roots", "RootSystem", "make_dominant_shifted", None),
    ("roots.weyl_dimension", "roots", "RootSystem", "weyl_dimension", None),
    ("regions.svg", "regions", "RegionPlot", "svg", None),
    ("regions.sidecar", "regions", "RegionPlot", "sidecar", None),
)

NAME, START, END, PARENT, OP, SIZE = range(6)

# (metric, unit); see README.md for what each one measures
LAYER_METRICS = (
    ("varieties.build_case_ms", "ms"),
    ("varieties.pic_contains_us", "us"),
    ("varieties.pic_contains_calls", "count"),
    ("cohomology.enumerate_ms", "ms"),
    ("cohomology.candidates", "count"),
    ("cohomology.witnesses", "count"),
    ("cohomology.witness_yield", "ratio"),
    ("cohomology.contributions_ms", "ms"),
    ("cohomology.aggregate_ms", "ms"),
    ("cohomology.evaluations_per_op", "count"),
    ("cohomology.omega_signature_us", "us"),
    ("roots.chamber_walk_us", "us"),
    ("roots.weyl_dimension_us", "us"),
    ("roots.constituents", "count"),
    ("oracles.serre_ms", "ms"),
    ("oracles.brion_h0_ms", "ms"),
    ("degrees.check_ms", "ms"),
    ("regions.plot_ms", "ms"),
    ("regions.render_ms", "ms"),
    ("regions.points", "count"),
    ("serialize.json_ms", "ms"),
    ("serialize.json_bytes", "count"),
    ("cli.cohomology_ms", "ms"),
)


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened while set."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = {
            name[len("wondercoh."):]: mod
            for name, mod in sys.modules.items()
            if name.startswith("wondercoh.")
        }
        holders = list(modules.values()) + [sys.modules["wondercoh"]]
        # a layer function that a later version renames or removes is skipped
        for span, mod, attr, size in FUNCTIONS:
            original = getattr(modules.get(mod), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(span, original, size)
            for holder in holders:
                if vars(holder).get(attr) is original:
                    self._restore.append((holder, attr, original))
                    setattr(holder, attr, wrapper)
        for span, mod, cls_name, attr, size in METHODS:
            original = vars(getattr(modules.get(mod), cls_name, object)).get(attr)
            if original is None:
                continue
            cls = getattr(modules[mod], cls_name)
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original, size))

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    def _wrap(self, name, fn, size):
        spans, stack, clock = self.spans, self._stack, time.process_time_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if size is not None:
                span[SIZE] = size(result)
            return result

        return wrapper

    def write(self, path: str) -> None:
        """One JSON object per line: name, start and end in CPU ns (not
        rescaled), parent span index (null at the top), operation id and
        result size."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                         "parent": s[PARENT], "op": s[OP], "size": s[SIZE]}
                    )
                    + "\n"
                )


def _spans_of(spans, ops) -> list[tuple[int, list]]:
    return [(i, s) for i, s in enumerate(spans) if s[OP] in ops]


def _duration(span, scale) -> float:
    """Span time in ns, rescaled by its operation's speed factor."""
    return (span[END] - span[START]) * scale.get(span[OP], 1.0)


def counts(spans, ops) -> dict:
    """Machine-independent work counts over the given operations."""
    calls: dict[str, int] = defaultdict(int)
    sizes: dict[str, int] = defaultdict(int)
    for _, s in _spans_of(spans, ops):
        calls[s[NAME]] += 1
        sizes[s[NAME]] += s[SIZE] or 0
    n = len(ops)
    return {
        "operations": n,
        "candidates": sizes["cohomology.enumerate"],
        "witnesses": sizes["cohomology.contributions"],
        "constituents": calls["roots.weyl_dimension"],
        "json_bytes": sizes["serialize.table_to_json"],
        "evaluations": calls["cohomology.contributions"],
        "evaluations_per_op": calls["cohomology.contributions"] / n,
        "pic_contains_calls": calls["varieties.pic_contains"],
        "grid_points": sizes["regions.region_plot"],
    }


def layer_metrics(spans, ops, scale, setup_op, cli_op) -> dict[str, float]:
    """Per-layer metrics over the given operations: ``_ms`` is time per
    operation, ``_us`` time per call, counts are per operation.  Build and
    CLI times are per call, from the setup and CLI phases."""
    n = len(ops)
    time_ns: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    size: dict[str, int] = defaultdict(int)
    # enumeration inside contributions, and contributions inside cohomology_table
    nested_ns: dict[str, float] = defaultdict(float)
    nested_candidates = 0
    for _, s in _spans_of(spans, ops):
        dur = _duration(s, scale)
        time_ns[s[NAME]] += dur
        calls[s[NAME]] += 1
        size[s[NAME]] += s[SIZE] or 0
        parent = spans[s[PARENT]][NAME] if s[PARENT] is not None else None
        if (parent, s[NAME]) == ("cohomology.contributions", "cohomology.enumerate"):
            nested_ns[parent] += dur
            nested_candidates += s[SIZE]
        if (parent, s[NAME]) == ("cohomology.cohomology_table", "cohomology.contributions"):
            nested_ns[parent] += dur

    def per_op_ms(*names):
        return sum(time_ns[k] for k in names) / n / 1e6

    def per_call_us(name):
        return time_ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    def per_phase_call_ms(op, name):
        durs = [_duration(s, scale) for s in spans if s[OP] == op and s[NAME] == name]
        return sum(durs) / len(durs) / 1e6 if durs else 0.0

    contributions = "cohomology.contributions"
    table = "cohomology.cohomology_table"
    return {
        "varieties.build_case_ms": per_phase_call_ms(setup_op, "varieties.build_case"),
        "varieties.pic_contains_us": per_call_us("varieties.pic_contains"),
        "varieties.pic_contains_calls": calls["varieties.pic_contains"] / n,
        "cohomology.enumerate_ms": per_op_ms("cohomology.enumerate"),
        "cohomology.candidates": size["cohomology.enumerate"] / n,
        "cohomology.witnesses": size[contributions] / n,
        "cohomology.witness_yield": (
            size[contributions] / nested_candidates if nested_candidates else 0.0
        ),
        "cohomology.contributions_ms": (time_ns[contributions] - nested_ns[contributions]) / n / 1e6,
        "cohomology.aggregate_ms": (time_ns[table] - nested_ns[table]) / n / 1e6,
        "cohomology.evaluations_per_op": calls[contributions] / n,
        "cohomology.omega_signature_us": per_call_us("cohomology.omega_signature"),
        "roots.chamber_walk_us": per_call_us("roots.chamber_walk"),
        "roots.weyl_dimension_us": per_call_us("roots.weyl_dimension"),
        "roots.constituents": calls["roots.weyl_dimension"] / n,
        "oracles.serre_ms": per_op_ms("oracles.serre_involution_check"),
        "oracles.brion_h0_ms": per_op_ms("oracles.brion_h0"),
        "degrees.check_ms": per_op_ms("degrees.check_lengths", "degrees.check_table_against_rule"),
        "regions.plot_ms": per_op_ms("regions.region_plot"),
        "regions.render_ms": per_op_ms("regions.svg", "regions.sidecar"),
        "regions.points": size["regions.region_plot"] / n,
        "serialize.json_ms": per_op_ms("serialize.table_to_json"),
        "serialize.json_bytes": size["serialize.table_to_json"] / n,
        "cli.cohomology_ms": per_phase_call_ms(cli_op, "cli.main"),
    }


def self_time_summary(spans, ops, scale, op_time_ns: float) -> dict:
    """Self time (span time minus its child spans) per span name and per
    layer over the given operations; the harness layer is the operations'
    time outside every top-level span."""
    selected = _spans_of(spans, ops)
    covered: dict[int, float] = defaultdict(float)
    for _, s in selected:
        if s[PARENT] is not None:
            covered[s[PARENT]] += _duration(s, scale)
    by_name: dict[str, dict] = {}
    by_layer: dict[str, float] = defaultdict(float)
    top_level = 0.0
    for i, s in selected:
        dur = _duration(s, scale)
        own = dur - covered[i]
        entry = by_name.setdefault(s[NAME], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["total_ms"] += dur / 1e6
        entry["self_ms"] += own / 1e6
        by_layer[s[NAME].split(".")[0]] += own
        if s[PARENT] is None:
            top_level += dur
    by_layer["harness"] = op_time_ns - top_level
    spanned = sum(by_layer.values())
    return {
        "by_span": dict(sorted(by_name.items(), key=lambda kv: -kv[1]["self_ms"])),
        "by_layer": {
            k: {"self_ms": v / 1e6, "share": v / spanned if spanned else 0.0}
            for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])
        },
        "largest_self_span": max(by_name, key=lambda k: by_name[k]["self_ms"], default=None),
    }
