"""Outside-in layer trace of the zmcsurf CLI.

The tracer wraps the program's public entry points from outside: it
replaces names where they are looked up (`zmcsurf.cli` imports functions
by name, `zmcsurf.umbilic` imports `winding_index`, ...) and class
attributes such as `ImmersionPatch.evaluate` or `Poly.__call__`.  No
source file of the program is edited, and `uninstall` restores every
original.

A span records (name, start, end, parent id) in memory.  A layer's self
time is its spans' durations minus the part covered by child spans, so
the self times of all layers add up to the root spans, one per CLI call,
by construction.  What can move is the root's own self time, `cli.self_s`:
work in code no wrapper covers lands there.  Hot per-call entry points (polynomial, branch and field evaluation) only
count calls: a span per call would distort the run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from fractions import Fraction
from typing import NamedTuple


class Layer(NamedTuple):
    """One per-layer metric of the traced run."""

    name: str
    unit: str
    kind: str  # "span": self time of span name[:-2]; "count"; "share"; "run"
    moves: str  # the end-to-end metrics it should move
    on: str  # the workload where it shows


# The one list of per-layer metrics: the tracer, the report and the units
# all come from it.  BENCHMARK.json's per_layer list repeats the names.
LAYERS = (
    Layer("cli.self_s", "s", "span", "every per-command time", "all"),
    Layer("surfacespec.resolve_s", "s", "span", "classify_s", "float-path"),
    Layer("weierstrass.chart_s", "s", "span", "generate_s, classify_s, nodes_per_s", "grid-exact"),
    Layer("weierstrass.evaluate_s", "s", "span", "generate_s", "grid-exact"),
    Layer("geometry.classify_chart_s", "s", "span", "classify_s, flow_s", "grid-exact"),
    Layer("umbilic.analyze_point_s", "s", "span", "index_s", "umbilic-flow"),
    Layer("umbilic.eigenfields_s", "s", "span", "index_s, flow_s", "umbilic-flow"),
    Layer("umbilic.measure_indices_s", "s", "span", "index_s", "umbilic-flow"),
    Layer("flow.winding_s", "s", "span", "index_s", "umbilic-flow"),
    Layer("flow.streamlines_s", "s", "span", "flow_s", "umbilic-flow"),
    Layer("spacelike.chart_s", "s", "span", "classify_s, flow_s", "float-path"),
    Layer("spacelike.classify_s", "s", "span", "classify_s, flow_s", "float-path"),
    Layer("outputs.surface_csv_s", "s", "span", "generate_s", "grid-exact"),
    Layer("outputs.classification_csv_s", "s", "span", "classify_s", "grid-exact"),
    Layer("svgplot.render_svg_s", "s", "span", "flow_s", "umbilic-flow"),
    Layer("surfacespec.input_scalars", "count", "count", "classify_s", "float-path"),
    Layer("weierstrass.chart_nodes", "count", "count",
          "generate_s, classify_s, nodes_per_s", "grid-exact"),
    Layer("weierstrass.masked_nodes", "count", "count",
          "generate_s, classify_s, nodes_per_s", "grid-exact"),
    Layer("weierstrass.evaluate_calls", "count", "count", "generate_s", "grid-exact"),
    Layer("poly.evals", "count", "count", "generate_s, classify_s, flow_s", "all"),
    Layer("parafunc.branch_evals", "count", "count", "generate_s, classify_s, flow_s", "all"),
    Layer("geometry.nodes_classified", "count", "count", "classify_s, flow_s", "grid-exact"),
    Layer("geometry.marginal_nodes", "count", "count", "classify_s", "float-path"),
    Layer("flow.winding_calls", "count", "count", "index_s", "umbilic-flow"),
    Layer("flow.winding_samples", "count", "count", "index_s", "umbilic-flow"),
    Layer("flow.streamline_points", "count", "count", "flow_s", "umbilic-flow"),
    Layer("flow.field_evals", "count", "count", "flow_s, index_s", "umbilic-flow"),
    Layer("outputs.bytes", "bytes", "count",
          "generate_s, classify_s, peak_rss_mb", "grid-exact"),
    Layer("svgplot.bytes", "bytes", "count", "flow_s", "umbilic-flow"),
    # exact Hopf-branch decisions over unmasked nodes tested
    Layer("geometry.exact_share", "ratio", "share", "classify_s", "grid-exact"),
    # winding results at the requested radius and sample count
    Layer("flow.winding_first_try_share", "ratio", "share", "index_s", "umbilic-flow"),
    # traced pass time, traced minus untraced pass time, and cli.self_s
    # over the traced pass time: the share no wrapped layer claims
    Layer("trace.wall_s", "s", "run", "-", "all"),
    Layer("trace.overhead_s", "s", "run", "-", "all"),
    Layer("trace.unattributed_share", "ratio", "run", "-", "all"),
)

# the root span wraps each cli.main call; its self time is the CLI's own
ROOT = "cli.self"
SPAN_NAMES = tuple(layer.name[:-2] for layer in LAYERS if layer.kind == "span")
COUNT_NAMES = tuple(layer.name for layer in LAYERS if layer.kind == "count")
# share -> (counter of the part, counter of the base)
SHARES = {
    "geometry.exact_share": ("geometry.exact_nodes", "geometry.unmasked_tested"),
    "flow.winding_first_try_share": ("flow.winding_first_try", "flow.winding_calls"),
}


class Tracer:
    """Spans and counters around the program's layer boundaries."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent id]
        self.stack = []
        self.counts = Counter()
        self._saved = []

    # -- recording -------------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def wrap(self, name, fn, on_result=None):
        """fn timed as a span `name`; on_result(result, args, kwargs) counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = clock()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def count_calls(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_root(self, fn, *args):
        return self.wrap(ROOT, fn)(*args)

    # -- patching ---------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Replace the program's entry points with traced wrappers."""
        from zmcsurf import cli, flow, geometry, surfacespec, umbilic
        from zmcsurf.flow import FlowField
        from zmcsurf.parafunc import Branch
        from zmcsurf.poly import Poly
        from zmcsurf.spacelike import SpacelikeChart, SpacelikePatch
        from zmcsurf.weierstrass import ImmersionPatch

        c = self.counts

        def add(key, n):
            c[key] += n

        def on_chart(chart, args, kwargs):
            add("weierstrass.chart_nodes", int(chart.mask.size))
            add("weierstrass.masked_nodes", int((~chart.mask).sum()))

        def on_classified(cls, args, kwargs):
            add("geometry.nodes_classified", int(cls.kinds.size))
            add("geometry.marginal_nodes", sum(pc.marginal for pc in cls.points.values()))

        winding_sig = inspect.signature(flow.winding_index)

        def traced_winding(fn):
            def on_winding(res, args, kwargs):
                asked = winding_sig.bind(*args, **kwargs)
                asked.apply_defaults()
                a = asked.arguments
                first = res.radius == a["radius"] and res.samples == a["samples"]
                add("flow.winding_first_try", int(first))

            def counted(*args, **kwargs):
                add("flow.winding_calls", 1)
                return fn(*args, **kwargs)

            return self.wrap("flow.winding", counted, on_winding)

        def on_text(key):
            return lambda text, args, kwargs: add(key, len(text))

        def on_lines(lines, args, kwargs):
            add("flow.streamline_points", sum(len(line) for line in lines))

        def on_evaluate(result, args, kwargs):
            add("weierstrass.evaluate_calls", 1)

        exact_values = geometry._exact_branch_values

        def counted_exact(chart, i, j):
            values = exact_values(chart, i, j)
            add("geometry.unmasked_tested", 1)
            if values is not None and all(
                isinstance(x, (int, Fraction)) for x in values
            ):
                add("geometry.exact_nodes", 1)
            return values

        accumulate = flow._accumulate

        def counted_accumulate(field, radius, samples):
            add("flow.winding_samples", samples)
            return accumulate(field, radius, samples)

        patches = [
            (cli, "resolve", self.wrap("surfacespec.resolve", cli.resolve)),
            (cli, "classify_chart",
             self.wrap("geometry.classify_chart", cli.classify_chart, on_classified)),
            (cli, "streamlines", self.wrap("flow.streamlines", cli.streamlines, on_lines)),
            (cli, "winding_index", traced_winding(cli.winding_index)),
            (umbilic, "winding_index", traced_winding(umbilic.winding_index)),
            (cli, "analyze_point", self.wrap("umbilic.analyze_point", cli.analyze_point)),
            (cli, "eigenfields", self.wrap("umbilic.eigenfields", cli.eigenfields)),
            (umbilic, "eigenfields", self.wrap("umbilic.eigenfields", umbilic.eigenfields)),
            (cli, "measure_indices",
             self.wrap("umbilic.measure_indices", cli.measure_indices)),
            (cli, "surface_csv",
             self.wrap("outputs.surface_csv", cli.surface_csv, on_text("outputs.bytes"))),
            (cli, "classification_csv",
             self.wrap("outputs.classification_csv", cli.classification_csv,
                       on_text("outputs.bytes"))),
            (cli, "spacelike_classification_csv",
             self.wrap("outputs.classification_csv", cli.spacelike_classification_csv,
                       on_text("outputs.bytes"))),
            (cli, "render_svg",
             self.wrap("svgplot.render_svg", cli.render_svg, on_text("svgplot.bytes"))),
            (geometry, "_exact_branch_values", counted_exact),
            (flow, "_accumulate", counted_accumulate),
            (surfacespec, "_scalar",
             self.count_calls("surfacespec.input_scalars", surfacespec._scalar)),
            (ImmersionPatch, "chart",
             self.wrap("weierstrass.chart", ImmersionPatch.chart, on_chart)),
            (ImmersionPatch, "evaluate",
             self.wrap("weierstrass.evaluate", ImmersionPatch.evaluate, on_evaluate)),
            (SpacelikePatch, "chart", self.wrap("spacelike.chart", SpacelikePatch.chart)),
            (SpacelikeChart, "classify",
             self.wrap("spacelike.classify", SpacelikeChart.classify)),
            (Poly, "__call__", self.count_calls("poly.evals", Poly.__call__)),
            (Branch, "__call__", self.count_calls("parafunc.branch_evals", Branch.__call__)),
            (FlowField, "__call__", self.count_calls("flow.field_evals", FlowField.__call__)),
        ]
        for owner, attr, replacement in patches:
            self._patch(owner, attr, replacement)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Self time per span and every counter and share, since the last reset."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {f"{name}_s": 0.0 for name in SPAN_NAMES}
        for sid, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}_s"] += (end - start) - covered[sid]
        for key in COUNT_NAMES:
            out[key] = self.counts[key]
        for share, (part, base) in SHARES.items():
            n = self.counts[base]
            out[share] = self.counts[part] / n if n else 0.0
        return out

    def bases(self) -> dict:
        """The denominators of the shares, since the last reset."""
        return {share: self.counts[base] for share, (part, base) in SHARES.items()}
