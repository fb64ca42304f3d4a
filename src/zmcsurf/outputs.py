"""Deterministic CSV/JSON serialization helpers.

All floats are written with 17 significant digits so two runs of the same
spec produce byte-identical files; JSON objects are emitted with sorted
keys and a fixed layout.  A grid CSV is its header and a text block per
grid row, from arrays computed first: `_grid_blocks` forms `_BLOCK` nodes
at a time as NUL-padded byte rows.  A classification.csv row shows its
kind's name (`geometry.KIND_NAMES`), D unless the node is masked, and
`KIND_DIRECTIONS` directions; a value it cannot print is refused there.

`_g17` gives the bytes of '%.17g' (`%` prints u, v, `fmt` and winding.csv).
For |x| in [1e-280, 1e280), e = floor(log10 |x|), k = 16 - e, y = |x| 10^k
is p + q: p = fl(|x| hi) with its error by Dekker's TwoProd (no FMA, no
underflow) plus fl(|x| lo), hi = fl(10^k), lo = fl(10^k - hi).  With u =
2^-53, |10^k - hi - lo| <= u^2 hi and |q| <= 2.01 u y, so |y - p - q| <=
4.1 u^2 y < 2^-40 (y < 10^18), and N = p + rint(q) (p >= 2^53, an integer)
is y rounded where f = q - rint(q) has |f| < 1/2 - 2^-40.  Ties: for 0 <= k
<= 22, lo = 0, p + q = y and rint rounds to even, as Python (p is even);
for k < 0 a tie makes |x| = (2N + 1) 5^-k 2^(-k-1), an odd factor over 2^54,
not a double; for k > 22 it needs 5^k | 2N + 1 < 2.2 10^17 and fails the
certificate.  Where N + f is outside [10^16, 10^17) (log10 off by one, or
y just below 10^16: 1e-280 prints 9.9999999999999996e-281) e moves by one,
once; within 2^-40 of 10^16 or 10^17 either side prints the same, and N =
10^17 prints as 10^16 at e + 1.  Tables give 4 digits at a time and, per
(layout, significant digits, sign), the places of the digits, '.', '-',
"0.000" and "e+XX".  NaN, +-inf, other |x| and uncertified x take `%`.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
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


_SLOT = 24  # bytes of the longest %.17g text of a double, "-2.2250738585072014e-308"
_BLOCK = 512  # nodes per block of `_grid_blocks`, or one grid row


@functools.cache
def _tables():
    """Built on first use: (hi, lo, hi1, hi2) of 10^k at k + 300; 0000..9999
    and their trailing zeros; "e+XX.-0" at XX + 300; `_g17`'s byte places."""
    tens = [Fraction(10) ** k for k in range(-300, 300)]
    hi = np.array([float(t) for t in tens])
    lo = np.array([float(t - Fraction(h)) for t, h in zip(tens, hi.tolist())])
    hi1 = hi * (2.0**27 + 1) - (hi * (2.0**27 + 1) - hi)
    four, words = ["%04d" % i for i in range(10000)], lambda t, w: np.frombuffer(t.encode(), w)

    def place(layout, n, neg):  # bytes 3-19 the digits, 20 NUL, 24-28 "e+XX", 29-31 ".-0"
        digit = list(range(3, 20))
        if layout == 22:  # zero
            cols = [31]
        elif layout == 21:  # d.ddde+XX
            cols = [3] + [29] * (n > 1) + digit[1:n] + list(range(24, 29))
        elif layout >= 4:  # fixed, exponent layout - 4 >= 0
            cols = digit[:layout - 3] + [29] * (n > layout - 3) + digit[layout - 3:n]
        else:  # fixed, 0.000ddd
            cols = [31, 29] + [31] * (3 - layout) + digit[:n]
        return [30] * neg + cols + [20] * (_SLOT - neg - len(cols))

    return (np.array([hi, lo, hi1, hi - hi1]), words("".join(four), np.uint32),
            np.array([4 - len(t.rstrip("0")) for t in four]),
            words("".join(("e%+03d" % e).ljust(5, "\0") + ".-0" for e in range(-300, 300)),
                  np.uint64),
            np.array([place(layout, n, neg) for layout in range(23)
                      for n in range(1, 18) for neg in (0, 1)]))


def _scaled(a, e, powers):  # (N, f), N + f = p + q of the module docstring, N an int64
    hi, lo, h1, h2 = powers[:, 316 - e]  # k = 16 - e at column k + 300
    p, split = a * hi, a * (2.0**27 + 1)
    a1 = split - (split - a)
    q = ((a1 * h1 - p) + a1 * h2 + (a - a1) * h1) + (a - a1) * h2 + a * lo
    r = np.rint(q)
    return p.astype(np.int64) + r.astype(np.int64), q - r


def _percent(values) -> np.ndarray:  # Python's '%.17g' of each value, as rows of `_g17`
    return np.array([b"%.17g" % v for v in values], f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)


def _g17(x) -> np.ndarray:
    """The '%.17g' text of each double of the 1-D array x, as NUL-padded
    rows of `_SLOT` bytes (see the module docstring)."""
    powers, digits, zeros, exps, places = _tables()
    shift = lambda N, f: (((N > 10**17) | (N == 10**17) & (f >= 0)).astype(np.int64)
                          - ((N < 10**16) | (N == 10**16) & (f < 0)))  # into [10^16, 10^17)
    fast = (np.abs(x) >= 1e-280) & (np.abs(x) < 1e280)
    a = np.where(fast, np.abs(x), 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    N, f = _scaled(a, e, powers)
    redo = np.flatnonzero(shift(N, f))  # log10 was off by one, or N + f is just below 10^16
    e[redo] += shift(N[redo], f[redo])
    N[redo], f[redo] = again = _scaled(a[redo], e[redo], powers)
    fast[redo[shift(*again) != 0]] = False
    fast &= (-6 <= e) & (e <= 16) | (np.abs(f) < 0.5 - 2.0**-40)
    N, e = np.where(N == 10**17, 10**16, N), e + (N == 10**17)  # rounded up to 10^17
    b, c, d, g = *np.divmod(N // 10**8 % 10**8, 10**4), *np.divmod(N % 10**8, 10**4)
    words = np.zeros((len(x), 8), np.uint32)  # 32 bytes, see `_tables`
    words[:, :5] = digits[np.transpose([N // 10**16, b, c, d, g])]
    words.view(np.uint64)[:, 3] = exps[e + 300]
    tz = zeros[g] + (g == 0) * (zeros[d] + (d == 0) * (zeros[c] + (c == 0) * zeros[b]))
    layout = np.where(x == 0, 22, np.where((-4 <= e) & (e <= 16), e + 4, 21))
    at = places.take((layout * 17 + 16 - tz) * 2 + np.signbit(x), 0)
    at += np.arange(0, 32 * len(x), 32)[:, None]
    out, slow = words.view(np.uint8).take(at), ~fast & (x != 0)
    out[slow] = _percent(x[slow].tolist())
    return out


def _grid_blocks(header, grid, cells, shown, choice, values):
    """The header line, then the text of each grid row.  Node (i, j) reads
    "u_i,v_j,", cells[c], c = choice[i, j], and a field per value of
    values[i, j]: its '%.17g' text where shown[c], else nothing, then ","
    ("\n" after the last)."""
    yield ",".join(header) + "\n"
    nu, nv, width = values.shape
    u, v = (np.c_[_percent(map(float, t)), np.full(len(t), 44, np.uint8)]
            for t in (grid.u_nodes(), grid.v_nodes()))
    cells = np.array([c.encode() for c in cells]).view(np.uint8).reshape(len(cells), -1)
    seps = np.array([44] * (width - 1) + [10], np.uint8)
    step = max(1, _BLOCK // nv)
    for i in range(0, nu, step):
        rows, code = values[i:i + step].reshape(-1, width), choice[i:i + step].ravel()
        text, show, n = np.zeros(rows.shape + (_SLOT + 1,), np.uint8), shown[code], len(code) // nv
        text[show, :_SLOT], text[..., _SLOT] = _g17(rows[show]), seps
        block = np.concatenate([np.repeat(u[i:i + n], nv, 0), np.tile(v, (n, 1)),
                                cells[code], text.reshape(len(code), -1)], 1)
        for row in block.reshape(n, -1):
            yield row.tobytes().translate(None, b"\0").decode()


SURFACE_COLUMNS = ("u", "v", "f0", "f1", "f2", "sigma", "L", "M", "N")


def surface_lines(chart: SurfaceChart, patch):
    """The text of surface.csv, block by block (see `surface_csv`).  Every
    number is computed before this returns, so an OverflowError of the
    coordinates is raised here, before a block is formed."""
    grid, shape = chart.grid, (chart.grid.nu, chart.grid.nv)
    values = np.empty(shape + (7,))
    values[..., :3] = patch.grid_coordinates(grid)
    for k, form in enumerate((chart.sigma, chart.L, chart.M, chart.N), 3):
        values[..., k] = np.where(chart.mask, form, np.nan)
    return _grid_blocks(SURFACE_COLUMNS, grid, [""], np.ones((1, 7), bool), np.zeros(shape, int),
                        values)


def surface_csv(chart: SurfaceChart, patch) -> str:
    """Immersion coordinates and fundamental forms per grid node.

    `patch.grid_coordinates(grid)` is the [nu, nv, 3] array of the ambient
    coordinates; masked nodes keep their coordinates but print nan in all
    four form columns.
    """
    return "".join(surface_lines(chart, patch))


CLASSIFICATION_COLUMNS = ("u", "v", "kind", "D", "dir1_u", "dir1_v", "dir2_u", "dir2_v")
# per kind code: which of D, dir1 (u, v) and dir2 (u, v) a row shows, and
# its cell after u and v, the kind's name
_CLASSIFICATION_SHOWN = np.array([[code != KIND_MASKED] + [n > 0] * 2 + [n > 1] * 2
                                  for code, n in enumerate(KIND_DIRECTIONS)])
_CLASSIFICATION_CELLS = [name + "," for name in KIND_NAMES]


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
    return _grid_blocks(CLASSIFICATION_COLUMNS, chart.grid, _CLASSIFICATION_CELLS,
                        _CLASSIFICATION_SHOWN, cls.kinds, values)


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
    return ",".join(WINDING_COLUMNS) + "\n" + "".join(
        _WINDING_ROW % (name, kind, r.radius, r.samples, r.index, r.max_jump)
        for name, kind, r in rows)
