"""Deterministic CSV/JSON serialization helpers.

All floats are written with 17 significant digits so two runs of the same
spec produce byte-identical files; JSON objects are emitted with sorted
keys and a fixed layout.  Every CSV file goes through one row writer,
`_lines`: the header, then one text block per row, each formed by a single
`%` on a template with `%.17g` per number (the same text as `fmt`).  A grid
CSV is one block per grid row: its numbers are arrays computed before the
first block is formed, each node coordinate is formatted once per axis and
placed into the row's template, and a cell left blank or printed `nan` is
literal text of the node's template or a NaN value.  classification.csv
picks a node's template by its int8 kind code: one template per row of
the kind table (`geometry.KIND_NAMES`), printing the kind's name, D unless
the node is masked, and as many directions as `KIND_DIRECTIONS` gives it.
It is the one place a classification value is refused (`_refuse`).
"""

from __future__ import annotations

import json
from itertools import islice

import numpy as np

from .geometry import (
    EXP_MAX,
    KIND_DIRECTIONS,
    KIND_MASKED,
    KIND_NAMES,
    KIND_QUASI,
    KIND_UMBILIC,
    ChartClassification,
    SurfaceChart,
    _refuse,
)


def fmt(x) -> str:
    """17-significant-digit decimal form of a number ("nan" for NaN)."""
    return format(float(x), ".17g")


_JSON = json.JSONEncoder(sort_keys=True, indent=2)


def json_lines(obj):
    """The text of json.dumps(obj, sort_keys=True, indent=2) + "\n", in
    blocks of 4096 encoder chunks."""
    chunks = _JSON.iterencode(obj)
    while block := "".join(islice(chunks, 4096)):
        yield block
    yield "\n"


def _lines(header, blocks):
    """CSV text, one block at a time: the header line, then
    `template % values` for each (template, values) pair of `blocks`."""
    yield ",".join(header) + "\n"
    for template, values in blocks:
        yield template % values


def _grid_blocks(grid, cells, shown, choice, values):
    """A (template, values) block per grid row.  Node (i, j) reads
    "u_i,v_j," and then cells[c], c = choice[i, j], whose `%.17g` fields
    take the node's `values[i, j]` where `shown[c]`, in order."""
    u_text = [fmt(u) + "," for u in grid.u_nodes()]
    v_text = [fmt(v) + "," for v in grid.v_nodes()]
    table = np.array([[v + c for v in v_text] for c in cells], dtype=object)
    columns = np.arange(grid.nv)
    for i, u in enumerate(u_text):
        text = u + u.join(table[choice[i], columns])
        yield text, tuple(values[i][shown[choice[i]]].tolist())


SURFACE_COLUMNS = ("u", "v", "f0", "f1", "f2", "sigma", "L", "M", "N")
_SURFACE_CELLS = ",".join(["%.17g"] * 7) + "\n"


def surface_lines(chart: SurfaceChart, patch):
    """The text of surface.csv, block by block (see `surface_csv`).  Every
    number is computed before this returns, so an OverflowError of the
    coordinates is raised here, before a block is formed."""
    grid = chart.grid
    shape = (grid.nu, grid.nv)
    values = np.empty(shape + (7,))
    values[..., :3] = patch.grid_coordinates(grid)
    for k, form in enumerate((chart.sigma, chart.L, chart.M, chart.N), 3):
        values[..., k] = np.where(chart.mask, form, np.nan)
    choice = np.broadcast_to(0, shape)
    blocks = _grid_blocks(grid, [_SURFACE_CELLS], np.ones((1, 7), bool), choice, values)
    return _lines(SURFACE_COLUMNS, blocks)


def surface_csv(chart: SurfaceChart, patch) -> str:
    """Immersion coordinates and fundamental forms per grid node.

    `patch.grid_coordinates(grid)` is the [nu, nv, 3] array of the ambient
    coordinates; masked nodes keep their coordinates but print nan in all
    four form columns.
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
# per kind code: which of D, dir1 (u, v) and dir2 (u, v) a row shows, and
# its cells after u and v, the kind's name and a %.17g field per value shown
_CLASSIFICATION_SHOWN = np.array([[code != KIND_MASKED] + [n > 0] * 2 + [n > 1] * 2
                                  for code, n in enumerate(KIND_DIRECTIONS)])
_CLASSIFICATION_CELLS = [",".join([name] + ["%.17g" if s else "" for s in shown]) + "\n"
                         for name, shown in zip(KIND_NAMES, _CLASSIFICATION_SHOWN)]


def classification_lines(cls: ChartClassification):
    """The text of classification.csv, block by block (see
    `classification_csv`).  Before any block, NumericGuardError names the
    first immersed node, row-major, where e^(4|sigma|) is not a finite
    double, else the first whose row shows a D or direction that is not."""
    chart, shown = cls.chart, _CLASSIFICATION_SHOWN[cls.kinds]
    values = np.concatenate([cls.D[..., None], cls.dirs.reshape(cls.kinds.shape + (4,))], -1)
    huge = chart.mask & ~(np.abs(chart.sigma) <= EXP_MAX / 4.0)  # 4 |sigma| > EXP_MAX
    _refuse(chart.grid, huge, "e^(4|sigma|)", "immersed node")
    _refuse(chart.grid, (shown & ~np.isfinite(values)).any(-1), "D or a direction", "node")
    blocks = _grid_blocks(chart.grid, _CLASSIFICATION_CELLS, _CLASSIFICATION_SHOWN,
                          cls.kinds, values)
    return _lines(CLASSIFICATION_COLUMNS, blocks)


def classification_csv(cls: ChartClassification) -> str:
    """Kind, discriminant D and principal directions per grid node; D is
    blank at masked nodes, dir1 where a node has no principal direction and
    dir2 where it has fewer than two."""
    return "".join(classification_lines(cls))


def classification_summary(cls: ChartClassification, extra: dict = None) -> dict:
    counts = cls.counts()
    grid = cls.chart.grid
    u_text, v_text = [fmt(u) for u in grid.u_nodes()], [fmt(v) for v in grid.v_nodes()]
    umbilics = [(u, v_text[j]) for u, row in zip(u_text, cls.kinds == KIND_UMBILIC)
                for j in np.flatnonzero(row).tolist()]
    summary = {
        "counts": counts,
        "umbilic_nodes": umbilics,
        "zero_set_size": counts[KIND_NAMES[KIND_UMBILIC]] + counts[KIND_NAMES[KIND_QUASI]],
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
