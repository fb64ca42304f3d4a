"""Pointwise analysis of a time-like isothermal chart.

A chart carries per-node data (sigma, L, M, N) for a first fundamental form
sign * e^{2 sigma} (du^2 - dv^2).  The orientation sign is +1 when the
u-direction is space-like; generated charts may come out with sign -1 and
all classification quantities below are insensitive to it, but the shape
operator itself is not, so the sign is kept explicit.

Point types: umbilic (shape operator scalar), quasi-umbilic (principal
curvatures coincide but the operator is not scalar; the single principal
direction is null), positive (two real principal curvatures), negative
(complex pair).  The discriminant D = e^{-4 sigma} ((L+N)^2 - 4 M^2)
separates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .parafunc import ParaFunction

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

    Node (i, j) sits at k = i * nv + j of the flat row-major index lists:
    its coordinates are xs[ix[k]] and ys[iy[k]], exactly.
    """

    xs: list
    ys: list
    ix: list
    iy: list


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
    """The sorted distinct integer keys, and each key's position among them."""
    distinct = sorted(set(keys))
    rank = {k: n for n, k in enumerate(distinct)}
    return distinct, [rank[k] for k in keys]


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
    provenance: str = "user-supplied"
    # analytic extras for generated charts (None for raw numeric charts)
    hopf: Optional[ParaFunction] = None
    source: object = None
    # the grid's null lattice, and the polynomial Hopf branches evaluated
    # on it: (plus at lattice.xs, minus at lattice.ys)
    lattice: Optional[NullLattice] = None
    hopf_values: Optional[tuple] = None

    def node(self, i: int, j: int):
        return self.grid.u_nodes()[i], self.grid.v_nodes()[j]

    def classify(self) -> "ChartClassification":
        """Every node classified by `classify_node`."""
        return classify_nodes(self, classify_node)

    def hopf_full_at(self, i: int, j: int):
        """(L+N) + 2jM assembled from the stored forms at a node."""
        from .paracomplex import ParaComplex

        return ParaComplex(
            float(self.L[i, j] + self.N[i, j]), 2.0 * float(self.M[i, j])
        )


def weingarten(chart: SurfaceChart, i: int, j: int) -> np.ndarray:
    """Shape operator at a node, as a 2x2 matrix in the (u,v) frame.

    This is the inverse metric times the second fundamental form; the
    chart's orientation sign multiplies the textbook isothermal expression.
    """
    if not chart.mask[i, j]:
        raise ValueError(f"node ({i},{j}) is masked (not immersed)")
    s = float(chart.metric_sign[i, j])
    f = s * math.exp(-2.0 * chart.sigma[i, j])
    L, M, N = chart.L[i, j], chart.M[i, j], chart.N[i, j]
    return np.array([[f * L, f * M], [-f * M, -f * N]])


@dataclass(frozen=True)
class PointClass:
    """Classification of one chart node plus principal-direction data."""

    kind: str
    D: float
    dirs: tuple  # 0, 1 or 2 unit vectors in the (u,v) chart
    eigenvalues: Optional[tuple]  # (lam1, lam2), present iff D >= 0
    marginal: bool = False


def _sign_fix(vec: np.ndarray) -> np.ndarray:
    for c in vec:
        if c != 0:
            return vec if c > 0 else -vec
    return vec


def _unit(p, q) -> np.ndarray:
    """(p, q) / sqrt(p*p + q*q) in separate IEEE operations: no BLAS kernel
    (and no fused multiply-add) decides the last bit."""
    p, q = float(p), float(q)
    n = math.sqrt(p * p + q * q)
    return _sign_fix(np.array([p / n, q / n]))


def _eigendirections(a: float, b: float, r: float):
    """Eigenvectors of [[a, b], [-b, -a]]/2 for eigenvalues +-r/2, r=sqrt(a^2-b^2)."""
    dirs = []
    for lam in (r, -r):
        v1 = (b, lam - a)  # from the first matrix row
        v2 = (a + lam, -b)  # from the second
        v = max((v1, v2), key=lambda w: w[0] * w[0] + w[1] * w[1])
        dirs.append(_unit(*v))
    return tuple(dirs)


def classify_node(chart: SurfaceChart, i: int, j: int) -> PointClass:
    """Classify one node; exact zero tests are used when the chart carries
    a polynomial Hopf coefficient and the grid nodes are rational."""
    if not chart.mask[i, j]:
        return PointClass(KIND_MASKED, float("nan"), (), None)

    L = float(chart.L[i, j])
    M = float(chart.M[i, j])
    N = float(chart.N[i, j])
    sigma = float(chart.sigma[i, j])
    a = L + N
    b = 2.0 * M
    D = math.exp(-4.0 * sigma) * (a * a - b * b)

    exact = _exact_branch_values(chart, i, j)
    if exact is not None:
        pp, mm = exact
        if pp == 0 and mm == 0:
            return PointClass(KIND_UMBILIC, 0.0, (), _eigen_pair(chart, i, j, 0.0))
        if pp == 0 or mm == 0:
            s = 1 if pp == 0 else -1
            return PointClass(
                KIND_QUASI, 0.0, (_unit(s, 1),), _eigen_pair(chart, i, j, 0.0)
            )
        same_sign = (pp > 0 and mm > 0) or (pp < 0 and mm < 0)
        kind = KIND_POSITIVE if same_sign else KIND_NEGATIVE
        if kind == KIND_NEGATIVE:
            return PointClass(kind, D, (), None)
        r = math.sqrt(abs(a * a - b * b))
        return PointClass(
            kind, D, _eigendirections(a, b, r), _eigen_pair(chart, i, j, r)
        )

    tau = 1e-9 * (1.0 + abs(L) + abs(N) + abs(M))
    if abs(a) <= tau and abs(b) <= tau:
        return PointClass(KIND_UMBILIC, D, (), _eigen_pair(chart, i, j, 0.0), True)
    if abs(abs(a) - abs(b)) <= tau:
        # degenerate eigenvalue; unique null direction (b, -a) up to scale
        return PointClass(
            KIND_QUASI, D, (_unit(b, -a),), _eigen_pair(chart, i, j, 0.0), True
        )
    if abs(a) > abs(b):
        r = math.sqrt(a * a - b * b)
        return PointClass(
            KIND_POSITIVE, D, _eigendirections(a, b, r), _eigen_pair(chart, i, j, r)
        )
    return PointClass(KIND_NEGATIVE, D, (), None)


def _eigen_pair(chart, i, j, r):
    s = float(chart.metric_sign[i, j])
    f = s * math.exp(-2.0 * chart.sigma[i, j])
    t = float(chart.L[i, j] - chart.N[i, j])
    return (f * (t + r) / 2.0, f * (t - r) / 2.0)


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
    """Full classification map of a chart."""

    chart: SurfaceChart
    kinds: np.ndarray  # dtype <U14, [i, j]
    D: np.ndarray
    points: dict = field(default_factory=dict)  # (i, j) -> PointClass

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


def classify_nodes(chart: SurfaceChart, node) -> ChartClassification:
    """`node(chart, i, j)` -> PointClass at every node, in row-major order."""
    nu, nv = chart.grid.nu, chart.grid.nv
    kinds = np.empty((nu, nv), dtype="<U14")
    D = np.full((nu, nv), np.nan)
    points = {}
    for i in range(nu):
        for j in range(nv):
            pc = node(chart, i, j)
            kinds[i, j] = pc.kind
            D[i, j] = pc.D
            points[(i, j)] = pc
    return ChartClassification(chart, kinds, D, points)


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
    u_nodes = chart.grid.u_nodes()
    v_nodes = chart.grid.v_nodes()
    found = False
    for i, u in enumerate(u_nodes):
        for j, v in enumerate(v_nodes):
            if u + s * v != 0 or (u == 0 and v == 0):
                continue
            pc = classification.points.get((i, j))
            if pc is None or pc.kind == KIND_MASKED:
                continue
            if pc.kind != KIND_QUASI or len(pc.dirs) != 1:
                return False
            found = True
            sine = abs(pc.dirs[0][0] * ref[1] - pc.dirs[0][1] * ref[0])
            if sine > tol:
                return False
    return found


def chart_from_arrays(
    grid: GridSpec, sigma, L, M, N, metric_sign=1, provenance="user-supplied"
) -> SurfaceChart:
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
    return SurfaceChart(
        grid, sigma, arrays[0], arrays[1], arrays[2], mask, sign, provenance
    )
