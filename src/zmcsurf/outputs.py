"""Deterministic CSV/JSON serialization helpers.

All floats are written with 17 significant digits so two runs of the same
spec produce byte-identical files; JSON objects are emitted with sorted
keys and a fixed layout.  Every CSV file goes through one row writer,
`_lines`: the header, then one text block per row, each formed by a single
`%` on a template with `%.17g` per number (the same text as `fmt`).  A grid
CSV is one block per grid row: its numbers are arrays computed before the
first block is formed, each node coordinate is formatted once per axis and
placed into the row's template, and a cell left blank or printed `nan` is
literal text of the node's template or a NaN value.
"""

from __future__ import annotations

import json

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


def _lines(header, blocks):
    """CSV text, one block at a time: the header line, then
    `template % values` for each (template, values) pair of `blocks`."""
    yield ",".join(header) + "\n"
    for template, values in blocks:
        yield template % values


def _grid_blocks(grid, cells, choice, values, shown):
    """A (template, values) block per grid row.  Node (i, j) reads
    "u_i,v_j," and then cells[choice[i, j]], whose `%.17g` fields take the
    node's `values[i, j]` where `shown[i, j]`, in order."""
    u_text = [fmt(u) + "," for u in grid.u_nodes()]
    v_text = [fmt(v) + "," for v in grid.v_nodes()]
    table = np.array([[v + c for v in v_text] for c in cells], dtype=object)
    columns = np.arange(grid.nv)
    for i, u in enumerate(u_text):
        yield u + u.join(table[choice[i], columns]), tuple(values[i][shown[i]].tolist())


SURFACE_COLUMNS = ("u", "v", "f0", "f1", "f2", "sigma", "L", "M", "N")
_SURFACE_CELLS = ",".join(["%.17g"] * 7) + "\n"


def surface_lines(chart: SurfaceChart, patch):
    """The text of surface.csv, block by block (see `surface_csv`).  Every
    number is computed before this returns, so an OverflowError of the
    coordinates is raised here, before a block is formed."""
    grid = chart.grid
    shape = (grid.nu, grid.nv)
    values = np.empty(shape + (7,))
    values[..., :3] = np.fromiter(
        patch.grid_coordinates(grid), np.dtype((float, 3)), grid.nu * grid.nv
    ).reshape(shape + (3,))
    forms = np.stack([chart.sigma, chart.L, chart.M, chart.N], axis=-1)
    values[..., 3:] = np.where(chart.mask[..., None], forms, np.nan)
    shown = np.broadcast_to(True, values.shape)
    choice = np.broadcast_to(0, shape)
    return _lines(SURFACE_COLUMNS, _grid_blocks(grid, [_SURFACE_CELLS], choice, values, shown))


def surface_csv(chart: SurfaceChart, patch) -> str:
    """Immersion coordinates and fundamental forms per grid node.

    `patch.grid_coordinates(grid)` yields the three ambient coordinates of
    every node, row-major; masked nodes keep their coordinates but print
    nan in all four form columns.
    """
    return "".join(surface_lines(chart, patch))


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
# per kind: the cells after u and v, with D, dir1 and dir2 shown or blank
_CLASSIFICATION_CELLS = {
    KIND_MASKED: ",,,,\n",
    KIND_UMBILIC: "%.17g,,,,\n",
    KIND_NEGATIVE: "%.17g,,,,\n",
    KIND_QUASI: "%.17g,%.17g,%.17g,,\n",
    KIND_POSITIVE: "%.17g,%.17g,%.17g,%.17g,%.17g\n",
}


def classification_lines(cls: ChartClassification):
    """The text of classification.csv, block by block (see
    `classification_csv`)."""
    kinds = cls.kinds
    choice = np.zeros(kinds.shape, dtype=np.intp)
    cells = []
    for n, (kind, text) in enumerate(_CLASSIFICATION_CELLS.items()):
        choice[kinds == kind] = n
        cells.append(f"{kind},{text}")
    values = np.concatenate([cls.D[..., None], cls.dirs.reshape(kinds.shape + (4,))], -1)
    has_dir2 = kinds == KIND_POSITIVE
    has_dir1 = has_dir2 | (kinds == KIND_QUASI)
    shown = np.stack([kinds != KIND_MASKED, has_dir1, has_dir1, has_dir2, has_dir2], -1)
    return _lines(CLASSIFICATION_COLUMNS, _grid_blocks(cls.chart.grid, cells, choice, values, shown))


def classification_csv(cls: ChartClassification) -> str:
    """Kind, discriminant D and principal directions per grid node; D is
    blank at masked nodes, dir1 where a node has no principal direction and
    dir2 where it has fewer than two."""
    return "".join(classification_lines(cls))


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
_WINDING_ROW = "%s,%s,%.17g,%s,%.17g,%.17g\n"


def winding_csv(rows) -> str:
    """rows: iterable of (field_name, kind, WindingResult)."""
    blocks = (
        (_WINDING_ROW, (name, kind, r.radius, r.samples, r.index, r.max_jump))
        for name, kind, r in rows
    )
    return "".join(_lines(WINDING_COLUMNS, blocks))
