"""Deterministic CSV/JSON serialization helpers.

All floats are written with 17 significant digits so two runs of the same
spec produce byte-identical files; JSON objects are emitted with sorted
keys and a fixed layout.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

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


def _cells(values: np.ndarray, shown: np.ndarray) -> np.ndarray:
    """`fmt` of the shown values, empty text elsewhere."""
    out = np.full(values.shape, "", dtype=object)
    out[shown] = list(map(fmt, values[shown].tolist()))
    return out


def classification_csv(cls: ChartClassification) -> str:
    grid = cls.chart.grid
    u_text = np.array([fmt(float(u)) for u in grid.u_nodes()], dtype=object)
    v_text = np.array([fmt(float(v)) for v in grid.v_nodes()], dtype=object)
    kinds = cls.kinds.ravel()
    dirs = cls.dirs.reshape(-1, 4)
    has_dir2 = kinds == KIND_POSITIVE
    has_dir1 = has_dir2 | (kinds == KIND_QUASI)
    columns = [
        np.repeat(u_text, grid.nv),
        np.tile(v_text, grid.nu),
        kinds.tolist(),
        _cells(cls.D.ravel(), kinds != KIND_MASKED),
        *(_cells(dirs[:, c], has_dir1) for c in (0, 1)),
        *(_cells(dirs[:, c], has_dir2) for c in (2, 3)),
    ]
    lines = map(_csv_line, zip(*columns))
    return _csv_line(CLASSIFICATION_COLUMNS) + "".join(lines)


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

