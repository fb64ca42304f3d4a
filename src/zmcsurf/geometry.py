"""Classification of a time-like isothermal chart, as arrays over the grid.

A chart carries per-node data (sigma, L, M, N) for a first fundamental form
sign * e^{2 sigma} (du^2 - dv^2).  The orientation sign is +1 when the
u-direction is space-like; generated charts may come out with sign -1 and
all classification quantities below are insensitive to it, but the shape
operator itself is not, so the sign is kept explicit.

Point types: umbilic (shape operator scalar), quasi-umbilic (principal
curvatures coincide but the operator is not scalar; the single principal
direction is null), positive (two real principal curvatures), negative
(complex pair).  The discriminant D = e^{-4 sigma} ((L+N)^2 - 4 M^2)
separates them.  Kinds, D, principal curvatures and directions are arrays
over the grid; a generated chart's kinds are exact, from the signs of its two
Hopf branches taken once per distinct null coordinate.  Time-like generated
charts are built by `chart_from_nodes`, space-like ones on node arrays by
`SpacelikePatch.chart`, raw ones by `chart_from_arrays`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

KIND_UMBILIC = "umbilic"
KIND_QUASI = "quasi_umbilic"
KIND_POSITIVE = "positive"
KIND_NEGATIVE = "negative"
KIND_MASKED = "masked"


class NumericGuardError(ArithmeticError):
    """A chart value is outside the range the classifier can evaluate."""

    def __init__(self, message: str, node: tuple):
        super().__init__(message)
        self.node = node


class NullLattice(NamedTuple):
    """The distinct null coordinates x = (u+v)/2, y = (u-v)/2 of a grid.

    Node (i, j) sits at k = i * nv + j of the flat row-major index arrays:
    its coordinates are xs[ix[k]] and ys[iy[k]], exactly.
    """

    xs: list
    ys: list
    ix: np.ndarray
    iy: np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (u,v) grid with exact rational node coordinates.

    Bounds are stored as Fractions (ints and floats convert exactly); the
    node lists are built once, with the instance.
    """

    u_min: Fraction
    u_max: Fraction
    v_min: Fraction
    v_max: Fraction
    nu: int
    nv: int

    def __post_init__(self):
        if self.nu < 2 or self.nv < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        for name in ("u_min", "u_max", "v_min", "v_max"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.u_min >= self.u_max or self.v_min >= self.v_max:
            raise ValueError("grid ranges must be non-empty")
        du = (self.u_max - self.u_min) / (self.nu - 1)
        dv = (self.v_max - self.v_min) / (self.nv - 1)
        object.__setattr__(self, "_u", [self.u_min + i * du for i in range(self.nu)])
        object.__setattr__(self, "_v", [self.v_min + j * dv for j in range(self.nv)])

    @classmethod
    def square(cls, half_width, n: int) -> "GridSpec":
        h = Fraction(half_width)
        return cls(-h, h, -h, h, n, n)

    def u_nodes(self):
        return self._u

    def v_nodes(self):
        return self._v

    def null_lattice(self) -> NullLattice:
        """Integer keys of the nodes' null coordinates.

        With du/dv = p/q in lowest terms and h = dv/(2q), node (i, j) has
        x = x0 + (p i + q j) h and y = y0 + (p i + q (nv - 1 - j)) h, where
        x0 = (u_min + v_min)/2 and y0 = (u_min - v_max)/2.  Equal keys are
        equal coordinates, so a square grid with du = dv has nu + nv - 1
        distinct values per coordinate.
        """
        nu, nv = self.nu, self.nv
        du = (self.u_max - self.u_min) / (nu - 1)
        dv = (self.v_max - self.v_min) / (nv - 1)
        ratio = du / dv
        p, q = ratio.numerator, ratio.denominator
        h = dv / (2 * q)
        rows, cols = range(nu), range(nv)
        x_keys, ix = _ranks([p * i + q * j for i in rows for j in cols])
        y_keys, iy = _ranks([p * i + q * (nv - 1 - j) for i in rows for j in cols])
        x0 = (self.u_min + self.v_min) / 2
        y0 = (self.u_min - self.v_max) / 2
        return NullLattice(
            [x0 + k * h for k in x_keys], [y0 + k * h for k in y_keys], ix, iy
        )


def _ranks(keys: list):
    """The sorted distinct integer keys, and each key's position among
    them as an int array."""
    distinct = sorted(set(keys))
    rank = {k: n for n, k in enumerate(distinct)}
    return distinct, np.fromiter(map(rank.__getitem__, keys), np.intp, len(keys))


@dataclass
class SurfaceChart:
    """Discretized chart: arrays indexed [i, j] for node (u_i, v_j)."""

    grid: GridSpec
    sigma: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    mask: np.ndarray  # True where the node is a valid immersed point
    metric_sign: np.ndarray  # sign of the du^2-coefficient of the metric
    # the grid's null lattice, and the polynomial Hopf branches evaluated
    # on it: (plus at lattice.xs, minus at lattice.ys)
    lattice: Optional[NullLattice] = None
    hopf_values: Optional[tuple] = None

    def node(self, i: int, j: int):
        return self.grid.u_nodes()[i], self.grid.v_nodes()[j]

    @np.errstate(all="ignore")
    def classify(self) -> "ChartClassification":
        """Every node at once, as arrays over the grid.

        With Hopf tables the kind is exact: the signs of the two branch
        values, read once per distinct null coordinate, decide it.  Without
        them a tolerance 1e-9 (1 + |L| + |N| + |M|) on a = L + N and b = 2M
        decides, and the umbilic and quasi-umbilic nodes it finds are marginal.
        """
        m = self.mask
        L, M, N = self.L[m], self.M[m], self.N[m]
        a, b = L + N, 2.0 * M
        disc = a * a - b * b
        D = exp_each(-4.0, self.sigma[m]) * disc
        if self.hopf_values is None:
            tau = 1e-9 * (1.0 + np.abs(L) + np.abs(N) + np.abs(M))
            umbilic = (np.abs(a) <= tau) & (np.abs(b) <= tau)
            quasi = ~umbilic & (np.abs(np.abs(a) - np.abs(b)) <= tau)
            positive = ~umbilic & ~quasi & (np.abs(a) > np.abs(b))
            # degenerate eigenvalue; unique null direction (b, -a) up to scale
            null_dir = _unit(b[quasi], -a[quasi])
        else:
            plus, minus = (np.array([_sign(t) for t in v]) for v in self.hopf_values)
            p = plus[self.lattice.ix].reshape(m.shape)[m]
            q = minus[self.lattice.iy].reshape(m.shape)[m]
            umbilic = (p == 0) & (q == 0)
            quasi = (p == 0) != (q == 0)
            positive = p * q > 0
            D[umbilic | quasi] = 0.0
            # the null direction (s, 1), s = 1 where the plus branch vanishes
            s = np.where(p[quasi] == 0, 1.0, -1.0)
            null_dir = _unit(s, np.ones_like(s))
        marginal = (umbilic | quasi) & (self.hopf_values is None)
        r = np.where(positive, np.sqrt(np.abs(disc)), 0.0)
        f = self.metric_sign[m] * exp_each(-2.0, self.sigma[m])
        eigenvalues = np.stack([f * (L - N + r) / 2.0, f * (L - N - r) / 2.0], axis=-1)
        eigenvalues[~(umbilic | quasi | positive)] = np.nan
        dirs = np.full(a.shape + (2, 2), np.nan)
        dirs[quasi, 0] = null_dir
        ap, bp, rp = a[positive], b[positive], r[positive]
        for k, lam in enumerate((rp, -rp)):
            # the longer kernel row, (b, lam - a) or (a + lam, -b); ties keep the first
            p1, q1, p2, q2 = bp, lam - ap, ap + lam, -bp
            second = p2 * p2 + q2 * q2 > p1 * p1 + q1 * q1
            dirs[positive, k] = _unit(np.where(second, p2, p1), np.where(second, q2, q1))
        kinds = np.select([umbilic, quasi, positive],
                          [KIND_UMBILIC, KIND_QUASI, KIND_POSITIVE], KIND_NEGATIVE)
        return ChartClassification.spread(self, kinds, D, dirs, eigenvalues, marginal)


@dataclass(frozen=True)
class PointClass:
    """Classification of one chart node plus principal-direction data."""

    kind: str
    D: float
    dirs: tuple  # 0, 1 or 2 unit vectors in the (u,v) chart
    eigenvalues: Optional[tuple]  # (lam1, lam2), present iff D >= 0
    marginal: bool = False


def exp_each(scale: float, sigma: np.ndarray) -> np.ndarray:
    """math.exp(scale * s) for every s: libm's exp one value at a time,
    since numpy's vectorized exp may round differently."""
    return np.array([math.exp(scale * s) for s in sigma.tolist()], dtype=float)


def _sign(value) -> float:
    """+1, -1 or 0 by exact comparison; NaN for NaN."""
    return 1.0 if value > 0 else -1.0 if value < 0 else 0.0 if value == 0 else math.nan


def _unit(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows (p, q) / sqrt(p*p + q*q), first non-zero component positive, in
    elementwise IEEE operations: no BLAS kernel or fused multiply-add."""
    n = np.sqrt(p * p + q * q)
    if (n == 0).any():
        raise ZeroDivisionError("float division by zero")
    x, y = p / n, q / n
    first = np.where(x != 0, x, y)
    flip = (first != 0) & ~(first > 0)
    return np.stack([np.where(flip, -x, x), np.where(flip, -y, y)], axis=-1)


def _exact_branch_values(chart, i, j):
    """Hopf branch values (plus(x), minus(y)) at node (i, j), looked up in
    the chart's 1-D tables; None when the chart carries none."""
    if chart.hopf_values is None:
        return None
    plus, minus = chart.hopf_values
    k = i * chart.grid.nv + j
    return plus[chart.lattice.ix[k]], minus[chart.lattice.iy[k]]


@dataclass
class ChartClassification:
    """Classification of every node of a chart, as arrays over the grid."""

    chart: SurfaceChart
    kinds: np.ndarray  # str, [i, j]
    D: np.ndarray  # NaN at masked nodes
    dirs: np.ndarray  # [i, j, 2, 2] unit directions, NaN past the node's count
    eigenvalues: np.ndarray  # [i, j, 2], NaN where the node has none
    marginal: np.ndarray  # bool: the kind was decided by a tolerance

    @classmethod
    def spread(cls, chart, *values):
        """The classification from (kinds, D, dirs, eigenvalues, marginal)
        at the immersed nodes, in row-major order; masked nodes get
        KIND_MASKED, NaN and False."""
        arrays = []
        for v, fill in zip(values, (KIND_MASKED, np.nan, np.nan, np.nan, False)):
            arrays.append(np.full(chart.mask.shape + v.shape[1:], fill, v.dtype))
            arrays[-1][chart.mask] = v
        return cls(chart, *arrays)

    def point(self, i: int, j: int) -> PointClass:
        """The per-node view of node (i, j)."""
        kind = str(self.kinds[i, j])
        eigenvalues = tuple(self.eigenvalues[i, j].tolist())
        if kind in (KIND_MASKED, KIND_NEGATIVE):
            eigenvalues = None
        count = {KIND_POSITIVE: 2, KIND_QUASI: 1}.get(kind, 0)
        dirs = tuple(self.dirs[i, j, :count].copy())
        marginal = bool(self.marginal[i, j])
        return PointClass(kind, float(self.D[i, j]), dirs, eigenvalues, marginal)

    @cached_property
    def points(self) -> dict:
        """(i, j) -> PointClass of every node, built on first access."""
        nu, nv = self.kinds.shape
        return {(i, j): self.point(i, j) for i in range(nu) for j in range(nv)}

    def nodes_of_kind(self, kind: str):
        ii, jj = np.nonzero(self.kinds == kind)
        return list(zip(ii.tolist(), jj.tolist()))

    def counts(self) -> dict:
        out = {}
        for kind in (
            KIND_POSITIVE,
            KIND_NEGATIVE,
            KIND_UMBILIC,
            KIND_QUASI,
            KIND_MASKED,
        ):
            out[kind] = int(np.count_nonzero(self.kinds == kind))
        out["total"] = int(self.kinds.size)
        return out


def _check_sigma(chart: SurfaceChart):
    """Refuse a chart whose D = e^{-4 sigma}(...) cannot be formed.

    At an immersed node e^{4|sigma|} must be a finite double (so
    |sigma| <= ~177.4); otherwise e^{-4 sigma} overflows or flushes to 0.
    """
    with np.errstate(invalid="ignore"):
        suspect = chart.mask & ~(np.abs(chart.sigma) <= 177.0)
    for i, j in zip(*np.nonzero(suspect)):
        s = float(chart.sigma[i, j])
        try:
            ok = math.isfinite(math.exp(4.0 * abs(s)))
        except OverflowError:
            ok = False
        if not ok:
            i, j = int(i), int(j)
            u, v = chart.node(i, j)
            raise NumericGuardError(
                f"sigma = {s!r} at node ({i}, {j}), (u, v) = ({u}, {v}): "
                "e^(4|sigma|) is not a finite double, so the discriminant "
                "cannot be formed",
                (i, j),
            )


def classify_chart(chart: SurfaceChart) -> ChartClassification:
    """Classify every node with the chart's own classifier.

    Raises NumericGuardError before classifying anything when an immersed
    node's sigma is out of range (see `_check_sigma`).
    """
    _check_sigma(chart)
    return chart.classify()


def quasi_umbilic_direction_check(
    chart: SurfaceChart,
    classification: ChartClassification,
    s: int,
    direction=None,
    tol: float = 1e-6,
) -> bool:
    """True iff every quasi-umbilic grid node on the null line {u + s v = 0}
    has its unique principal direction parallel to (s, 1), within tol radians.

    An explicit `direction` overrides (s, 1) (useful as a control)."""
    if s not in (1, -1):
        raise ValueError("s must be +1 or -1")
    ref = np.array(direction if direction is not None else (s, 1), dtype=float)
    ref = ref / np.linalg.norm(ref)
    u_nodes, v_nodes = chart.grid.u_nodes(), chart.grid.v_nodes()
    on_line = np.array([[u + s * v == 0 and (u, v) != (0, 0) for v in v_nodes]
                        for u in u_nodes])
    kinds = classification.kinds[on_line & (classification.kinds != KIND_MASKED)]
    d = classification.dirs[on_line & (classification.kinds == KIND_QUASI), 0]
    sine = np.abs(d[:, 0] * ref[1] - d[:, 1] * ref[0])
    found = kinds.size > 0 and bool((kinds == KIND_QUASI).all())
    return found and not (sine > tol).any()


_NODE_RECORD = np.dtype(
    [("mask", "?"), ("sigma", "f8"), ("L", "f8"), ("M", "f8"), ("N", "f8"), ("sign", "i1")]
)


def _node_record(node):
    """Chart record of a node from None (masked) or (metric factor, L, M, N)."""
    if node is None:
        return False, math.nan, 0.0, 0.0, 0.0, 1
    f, L, M, N = node
    return True, 0.5 * math.log(abs(f)), L, M, N, 1 if f > 0 else -1


def chart_from_nodes(grid: GridSpec, nodes, **extras) -> SurfaceChart:
    """The chart of a generated patch from one item per node, row-major:
    None for a masked node, or (metric factor, L, M, N).  sigma is
    log|factor|/2 and the metric sign is the factor's sign; a masked node
    gets sigma NaN, L = M = N = 0 and sign +1."""
    rec = np.fromiter(
        map(_node_record, nodes), dtype=_NODE_RECORD, count=grid.nu * grid.nv
    ).reshape(grid.nu, grid.nv)
    fields = ("sigma", "L", "M", "N", "mask", "sign")
    return SurfaceChart(grid, *(rec[k].copy() for k in fields), **extras)


def chart_from_arrays(grid: GridSpec, sigma, L, M, N, metric_sign=1) -> SurfaceChart:
    """Build a chart from plain per-node arrays (no analytic extras)."""
    sigma = np.asarray(sigma, dtype=float)
    shape = (grid.nu, grid.nv)
    if sigma.shape != shape:
        raise ValueError(f"sigma must have shape {shape}")
    arrays = []
    for name, arr in (("L", L), ("M", M), ("N", N)):
        arr = np.asarray(arr, dtype=float)
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}")
        arrays.append(arr)
    mask = np.isfinite(sigma)
    for arr in arrays:
        mask &= np.isfinite(arr)
    sign = np.full(shape, metric_sign, dtype=np.int8)
    return SurfaceChart(grid, sigma, arrays[0], arrays[1], arrays[2], mask, sign)
