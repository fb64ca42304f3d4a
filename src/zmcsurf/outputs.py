"""Deterministic CSV/JSON serialization helpers.

All floats are written with 17 significant digits so two runs of the same
spec produce byte-identical files; JSON objects are emitted with sorted
keys and a fixed layout.  Every CSV file goes through one column writer,
`_table`: a writer builds its text column by column (node coordinates
formatted once per axis, masked or absent cells filled by `_cells`) and
`_table` joins the rows.
"""

from __future__ import annotations

import json
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
    """17-significant-digit decimal form of a number ("nan" for NaN)."""
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_line(fields: Iterable[str]) -> str:
    return ",".join(fields) + "\n"


def _table(header, columns) -> str:
    """CSV text: the header, then one line per row of the text columns."""
    return _csv_line(header) + "".join(map(_csv_line, zip(*columns)))


def _node_columns(grid) -> list:
    """The u and v text columns of every node, row-major; each node
    coordinate is formatted once."""
    u_text = [fmt(u) for u in grid.u_nodes()]
    v_text = [fmt(v) for v in grid.v_nodes()]
    return [[u for u in u_text for _ in v_text], v_text * grid.nu]


def _cells(values: np.ndarray, shown: np.ndarray, fill: str) -> list:
    """`fmt` of each value where `shown`, `fill` elsewhere."""
    return [fmt(x) if s else fill for x, s in zip(values.tolist(), shown.tolist())]


SURFACE_COLUMNS = ("u", "v", "f0", "f1", "f2", "sigma", "L", "M", "N")


def surface_csv(chart: SurfaceChart, patch) -> str:
    """Immersion coordinates and fundamental forms per grid node.

    `patch.grid_coordinates(grid)` yields the three ambient coordinates of
    every node, row-major; masked nodes keep their coordinates but print
    nan in all four form columns.
    """
    coords = zip(*patch.grid_coordinates(chart.grid))
    shown = chart.mask.ravel()
    forms = (chart.sigma, chart.L, chart.M, chart.N)
    return _table(
        SURFACE_COLUMNS,
        [
            *_node_columns(chart.grid),
            *([fmt(c) for c in column] for column in coords),
            *(_cells(values.ravel(), shown, "nan") for values in forms),
        ],
    )


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
    kinds = cls.kinds.ravel()
    dirs = cls.dirs.reshape(-1, 4)
    has_dir2 = kinds == KIND_POSITIVE
    has_dir1 = has_dir2 | (kinds == KIND_QUASI)
    return _table(
        CLASSIFICATION_COLUMNS,
        [
            *_node_columns(cls.chart.grid),
            kinds.tolist(),
            _cells(cls.D.ravel(), kinds != KIND_MASKED, ""),
            *(_cells(dirs[:, c], has_dir1, "") for c in (0, 1)),
            *(_cells(dirs[:, c], has_dir2, "") for c in (2, 3)),
        ],
    )


def classification_summary(cls: ChartClassification, extra: dict = None) -> dict:
    counts = cls.counts()
    umbilics = [
        [fmt(u), fmt(v)]
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
    names, kinds, results = list(zip(*rows)) or ((), (), ())
    return _table(
        WINDING_COLUMNS,
        [
            names,
            kinds,
            [fmt(r.radius) for r in results],
            [str(r.samples) for r in results],
            [fmt(r.index) for r in results],
            [fmt(r.max_jump) for r in results],
        ],
    )
