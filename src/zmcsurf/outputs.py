"""Deterministic CSV/JSON serialization helpers.

All floats are written with 17 significant digits so two runs of the same
spec produce byte-identical files; JSON objects are emitted with sorted
keys and a fixed layout.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from .geometry import (
    KIND_MASKED,
    KIND_NEGATIVE,
    KIND_POSITIVE,
    KIND_QUASI,
    KIND_UMBILIC,
    ChartClassification,
    SurfaceChart,
)


def fmt(x) -> str:
    """17-significant-digit decimal form of a float; empty for None."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_line(fields: Iterable[str]) -> str:
    return ",".join(fields) + "\n"


SURFACE_COLUMNS = ("u", "v", "f0", "f1", "f2", "sigma", "L", "M", "N")


def surface_csv(chart: SurfaceChart, patch) -> str:
    """Immersion coordinates and fundamental forms per grid node.

    `patch.grid_coordinates(grid)` yields the three ambient coordinates of
    every node, row-major; masked nodes keep their coordinates but carry
    nan forms.
    """
    grid = chart.grid
    coords = patch.grid_coordinates(grid)
    u_text = [fmt(float(u)) for u in grid.u_nodes()]
    v_text = [fmt(float(v)) for v in grid.v_nodes()]
    forms = zip(
        chart.mask.flat, chart.sigma.flat, chart.L.flat, chart.M.flat, chart.N.flat
    )
    masked_tail = ["nan"] * 4
    out = [_csv_line(SURFACE_COLUMNS)]
    rows = ((u, v) for u in u_text for v in v_text)
    for (u, v), xyz, (immersed, *tail) in zip(rows, coords, forms):
        tail = [fmt(t) for t in tail] if immersed else masked_tail
        out.append(_csv_line([u, v, *(fmt(c) for c in xyz), *tail]))
    return "".join(out)


CLASSIFICATION_COLUMNS = (
    "u",
    "v",
    "kind",
    "D",
    "dir1_u",
    "dir1_v",
    "dir2_u",
    "dir2_v",
)


def classification_csv(cls: ChartClassification) -> str:
    chart = cls.chart
    out = [_csv_line(CLASSIFICATION_COLUMNS)]
    u_nodes = chart.grid.u_nodes()
    v_nodes = chart.grid.v_nodes()
    for i, u in enumerate(u_nodes):
        for j, v in enumerate(v_nodes):
            pc = cls.points[(i, j)]
            dirs = list(pc.dirs) + [None, None]
            d1, d2 = dirs[0], dirs[1]
            row = [
                fmt(float(u)),
                fmt(float(v)),
                pc.kind,
                "" if pc.kind == KIND_MASKED else fmt(pc.D),
                fmt(d1[0]) if d1 is not None else "",
                fmt(d1[1]) if d1 is not None else "",
                fmt(d2[0]) if d2 is not None else "",
                fmt(d2[1]) if d2 is not None else "",
            ]
            out.append(_csv_line(row))
    return "".join(out)


def classification_summary(cls: ChartClassification, extra: dict = None) -> dict:
    counts = cls.counts()
    umbilics = [
        [fmt(float(u)), fmt(float(v))]
        for (i, j) in cls.nodes_of_kind(KIND_UMBILIC)
        for u, v in [cls.chart.node(i, j)]
    ]
    summary = {
        "counts": {
            "positive": counts[KIND_POSITIVE],
            "negative": counts[KIND_NEGATIVE],
            "umbilic": counts[KIND_UMBILIC],
            "quasi_umbilic": counts[KIND_QUASI],
            "masked": counts[KIND_MASKED],
            "total": counts["total"],
        },
        "umbilic_nodes": umbilics,
        "zero_set_size": counts[KIND_UMBILIC] + counts[KIND_QUASI],
    }
    if extra:
        summary.update(extra)
    return summary


WINDING_COLUMNS = ("field", "kind", "radius", "samples", "index", "max_jump")


def winding_csv(rows) -> str:
    """rows: iterable of (field_name, kind, WindingResult)."""
    out = [_csv_line(WINDING_COLUMNS)]
    for name, kind, res in rows:
        out.append(
            _csv_line(
                [
                    name,
                    kind,
                    fmt(res.radius),
                    str(res.samples),
                    fmt(res.index),
                    fmt(res.max_jump),
                ]
            )
        )
    return "".join(out)

