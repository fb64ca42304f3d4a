"""SVG rendering of classification rasters and flow portraits.

Fixed 800x800 viewport; u increases rightward, v upward.  The chart-to-
viewport affine map is recorded in the SVG <metadata> element.  Output is
assembled from explicitly formatted strings so it is byte-reproducible,
and `svg_lines` yields it in blocks of at most one grid column of cells.

The map is separable, so background cells are formatted per axis: a
cell's x and width once per grid column, its y and height once per grid
row.  Polyline points are mapped as arrays, `sx * u + tx` by numpy's
multiply and add, which round like the scalar expression, and each
polyline's points are one `%` of a `"%.3f,%.3f"` per point over the
interleaved pixel coordinates (`"%.3f" % x` is `"{:.3f}".format(x)` for
every double).
"""

from __future__ import annotations

import json

import numpy as np

VIEW = 800.0

# background colour per kind code (masked, umbilic, negative, quasi-umbilic,
# positive: the order of geometry.KIND_NAMES)
KIND_COLORS = ("#e8e8e8", "#1a1a1a", "#f5cfcf", "#f2dd88", "#cfe0f5")

FLOW_COLORS = ("#1a4fa0", "#a0341a")


class ChartMap:
    """Affine chart-to-viewport map: px = sx*u + tx, py = sy*v + ty (v up)."""

    def __init__(self, u_min, u_max, v_min, v_max):
        self.u_min, self.u_max = float(u_min), float(u_max)
        self.v_min, self.v_max = float(v_min), float(v_max)
        self.sx = VIEW / (self.u_max - self.u_min)
        self.tx = -self.sx * self.u_min
        self.sy = -VIEW / (self.v_max - self.v_min)
        # py at v_min is VIEW (bottom edge), at v_max it is 0 (top edge)
        self.ty = VIEW - self.sy * self.v_min

    def px(self, u, v):
        return (self.sx * float(u) + self.tx, self.sy * float(v) + self.ty)

    def to_dict(self):
        return {
            "sx": self.sx,
            "tx": self.tx,
            "sy": self.sy,
            "ty": self.ty,
            "viewport": [VIEW, VIEW],
            "u_range": [self.u_min, self.u_max],
            "v_range": [self.v_min, self.v_max],
        }


def svg_lines(
    grid,
    kinds,
    polyline_families=(),
    marks=(),
    banner: str = "",
    extra_metadata: dict = None,
):
    """The SVG document, block by block: the header, one block per grid
    column of background cells, then one per polyline, mark and banner.

    kinds: [nu, nv] array of kind codes; cell (i, j) takes the colour
    KIND_COLORS[kinds[i, j]].
    polyline_families: sequence of lists of polylines (each an array of
    (u,v) points); families get distinct colors.
    marks: (u, v) singular points.
    """
    cmap = ChartMap(grid.u_min, grid.u_max, grid.v_min, grid.v_max)
    meta = {"chart_to_viewport": cmap.to_dict()}
    if extra_metadata:
        meta.update(extra_metadata)

    yield (
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">\n'
        "<metadata>"
        + json.dumps(meta, sort_keys=True)
        + "</metadata>\n"
        '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>\n'
    )

    # a cell's x and width depend on its column alone, its y and height on
    # its row alone: cell (i, j) spans px(u_i, v_j+1) to px(u_i+1, v_j)
    xs = [cmap.sx * float(u) + cmap.tx for u in grid.u_nodes()]
    ys = [cmap.sy * float(v) + cmap.ty for v in grid.v_nodes()]
    cols = [(f"{x0:.3f}", f"{x1 - x0:.3f}") for x0, x1 in zip(xs, xs[1:])]
    rows = [(f"{y0:.3f}", f"{y1 - y0:.3f}") for y1, y0 in zip(ys, ys[1:])]
    cells = np.asarray(kinds)[: grid.nu - 1, : grid.nv - 1].tolist()
    for (x, width), column in zip(cols, cells):
        yield "".join([
            f'<rect x="{x}" y="{y}" width="{width}" '
            f'height="{height}" fill="{KIND_COLORS[kind]}"/>\n'
            for (y, height), kind in zip(rows, column)
        ])

    scale, shift = (cmap.sx, cmap.sy), (cmap.tx, cmap.ty)
    for fam, lines in enumerate(polyline_families):
        color = FLOW_COLORS[fam % len(FLOW_COLORS)]
        for line in lines:
            if len(line) < 2:
                continue
            xy = np.asarray(line, dtype=float) * scale + shift
            pts = " ".join(["%.3f,%.3f"] * len(xy)) % tuple(xy.ravel().tolist())
            yield (
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                'stroke-width="1.2"/>\n'
            )

    for u, v in marks:
        x, y = cmap.px(u, v)
        yield (
            f'<circle cx="{x:.3f}" cy="{y:.3f}" r="5" fill="#000000" '
            'stroke="#ffffff" stroke-width="1.5"/>\n'
        )

    if banner:
        yield (
            '<rect x="0" y="0" width="800" height="28" fill="#ffffff" '
            'opacity="0.85"/>\n'
            '<text x="10" y="19" font-family="monospace" font-size="14" '
            f'fill="#7a1010">{banner}</text>\n'
        )

    yield "</svg>\n"


def render_svg(*args, **kwargs) -> str:
    """The SVG document of `svg_lines(*args, **kwargs)` as one string."""
    return "".join(svg_lines(*args, **kwargs))
