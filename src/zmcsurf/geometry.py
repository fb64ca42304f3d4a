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
over the grid; a kind is an int8 code into one table (`KIND_NAMES`,
`KIND_DIRECTIONS`), and the writers look its name up there.  A time-like
generated chart with polynomial w_i and g_i' has exact kinds: the signs of
the Hopf branches -w_i g_i'/2, taken once per distinct null coordinate from
the chart's own L/M term tables and stored per node (`hopf_signs`).
Classifying never raises (exponents are clamped to EXP_MAX; a direction
whose length underflows is not finite), so every chart's kinds serve the
flow portrait; `outputs.classification_lines` alone refuses a value it
cannot print.  Generated charts of both signatures are built by
`generated_chart` from arrays of the metric factor and the second forms,
each patch type with its own mask rule; raw ones by `chart_from_arrays`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .poly import Points

# The kind table.  A node's kind is an int8 code, its position here; each
# kind has a name (what the outputs print) and a number of principal
# directions.  Writers index these tables by code.
KIND_NAMES = ("masked", "umbilic", "negative", "quasi_umbilic", "positive")
KIND_DIRECTIONS = (0, 0, 0, 1, 2)
KIND_MASKED, KIND_UMBILIC, KIND_NEGATIVE, KIND_QUASI, KIND_POSITIVE = np.arange(
    len(KIND_NAMES), dtype=np.int8)


# math.exp(t) is a finite double exactly for t <= EXP_MAX: the classifiers clamp to it
EXP_MAX = math.log(np.finfo(float).max)


class NumericGuardError(ArithmeticError):
    """A chart or classification value is not a finite double."""

    def __init__(self, message: str, node: tuple):
        super().__init__(message)
        self.node = node


def _refuse(grid, bad, what, where):
    """NumericGuardError at the first node of the [nu, nv] mask bad, row-major."""
    if bad.any():
        i, j = divmod(int(np.argmax(bad)), grid.nv)
        u, v = grid.u_nodes()[i], grid.v_nodes()[j]
        raise NumericGuardError(f"{what} is not a finite double at {where} ({i}, {j}), "
                                f"(u, v) = ({u}, {v})", (i, j))


class NullLattice(NamedTuple):
    """The distinct null coordinates x = (u+v)/2, y = (u-v)/2 of a grid.

    Node (i, j) sits at k = i * nv + j of the flat row-major index arrays:
    its coordinates are xs[ix[k]] and ys[iy[k]], exactly.  xs and ys are
    `Points`, so each forms its common denominator once per grid.
    """

    xs: Points
    ys: Points
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
        return self._lattice

    @cached_property
    def _lattice(self) -> NullLattice:
        """Integer keys of the nodes' null coordinates, built once per grid.

        With du/dv = p/q in lowest terms and h = dv/(2q), node (i, j) has
        x = x0 + (p i + q j) h and y = y0 + (p i + q (nv - 1 - j)) h, where
        x0 = (u_min + v_min)/2 and y0 = (u_min - v_max)/2.  Equal keys are
        equal coordinates, so a square grid with du = dv has nu + nv - 1
        distinct values per coordinate.  `np.unique` ranks the keys: int64
        where the largest key fits, Python ints otherwise.
        """
        nu, nv = self.nu, self.nv
        du = (self.u_max - self.u_min) / (nu - 1)
        dv = (self.v_max - self.v_min) / (nv - 1)
        ratio = du / dv
        p, q = ratio.numerator, ratio.denominator
        h = dv / (2 * q)
        dtype = np.int64 if p * (nu - 1) + q * (nv - 1) < 2**63 else object
        i, j = np.arange(nu, dtype=dtype)[:, None], np.arange(nv, dtype=dtype)
        x_keys, ix = np.unique((p * i + q * j).ravel(), return_inverse=True)
        y_keys, iy = np.unique((p * i + q * (nv - 1 - j)).ravel(), return_inverse=True)

        def line(t0, keys):  # t0 + k h, one gcd each rather than Fraction arithmetic's two
            a, b, c, d = t0.numerator, t0.denominator, h.numerator, h.denominator
            return Points(Fraction(a * d + k * c * b, b * d) for k in keys.tolist())

        return NullLattice(line((self.u_min + self.v_min) / 2, x_keys),
                           line((self.u_min - self.v_max) / 2, y_keys), ix, iy)


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
    # [2, nu, nv] int8 signs of the Hopf branches -w_i g_i'/2 at each node
    # (plus at x, minus at y), taken once per distinct null coordinate from
    # the chart's L/M term tables; None unless w_i and g_i' are polynomial
    hopf_signs: Optional[np.ndarray] = None

    def node(self, i: int, j: int):
        return self.grid.u_nodes()[i], self.grid.v_nodes()[j]

    @np.errstate(all="ignore")
    def classify(self) -> "ChartClassification":
        """Every node at once, as arrays over the grid.

        With Hopf signs the two signs at the node decide the kind exactly.
        Without them a tolerance 1e-9 (1 + |L| + |N| + |M|) on a = L + N and b = 2M
        decides, and the umbilic and quasi-umbilic nodes it finds are marginal.
        """
        m = self.mask
        L, M, N = self.L[m], self.M[m], self.N[m]
        a, b = L + N, 2.0 * M
        disc = a * a - b * b
        D = each(math.exp, np.minimum(-4.0 * self.sigma[m], EXP_MAX)) * disc
        if self.hopf_signs is None:
            tau = 1e-9 * (1.0 + np.abs(L) + np.abs(N) + np.abs(M))
            umbilic = (np.abs(a) <= tau) & (np.abs(b) <= tau)
            quasi = ~umbilic & (np.abs(np.abs(a) - np.abs(b)) <= tau)
            positive = ~umbilic & ~quasi & (np.abs(a) > np.abs(b))
            # degenerate eigenvalue; unique null direction (b, -a) up to scale
            null_dir = _unit(b[quasi], -a[quasi])
        else:
            p, q = self.hopf_signs[:, m]
            umbilic = (p == 0) & (q == 0)
            quasi = (p == 0) != (q == 0)
            positive = p * q > 0
            D[umbilic | quasi] = 0.0
            # the null direction (s, 1), s = 1 where the plus branch vanishes
            s = np.where(p[quasi] == 0, 1.0, -1.0)
            null_dir = _unit(s, np.ones_like(s))
        marginal = (umbilic | quasi) & (self.hopf_signs is None)
        r = np.where(positive, np.sqrt(np.abs(disc)), 0.0)
        f = self.metric_sign[m] * each(math.exp, np.minimum(-2.0 * self.sigma[m], EXP_MAX))
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


def each(fn, a: np.ndarray, *rest) -> np.ndarray:
    """fn at every value of the float array a and the matching values of the
    arrays (or scalars) in rest: libm's functions or `pow` one value at a
    time, since numpy's vectorized counterparts may round differently."""
    rest = [r.ravel().tolist() if isinstance(r, np.ndarray) else repeat(r) for r in rest]
    return np.fromiter(map(fn, a.ravel().tolist(), *rest), float, a.size).reshape(a.shape)


def _unit(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rows (p, q) / sqrt(p*p + q*q), not finite where that is 0, first non-zero
    component positive, in elementwise IEEE operations: no BLAS or fused multiply-add.
    A finite row whose squares overflow is first scaled by 2^-513, which is exact
    and leaves the quotients' bits; every other row keeps its bits."""
    n = np.sqrt(p * p + q * q)
    big = np.isinf(n)
    if big.any():
        big &= np.isfinite(p) & np.isfinite(q)
        p, q = (np.where(big, t * 2.0**-513, t) for t in (p, q))
        n = np.sqrt(p * p + q * q)
    x, y = p / n, q / n
    first = np.where(x != 0, x, y)
    flip = (first != 0) & ~(first > 0)
    return np.stack([np.where(flip, -x, x), np.where(flip, -y, y)], axis=-1)


def _exact_branch_values(chart, i, j):
    """The signs (plus(x), minus(y)) of the Hopf branches at node (i, j),
    as ints; None when the chart carries none."""
    return None if chart.hopf_signs is None else tuple(chart.hopf_signs[:, i, j].tolist())


@dataclass
class ChartClassification:
    """Classification of every node of a chart, as arrays over the grid."""

    chart: SurfaceChart
    kinds: np.ndarray  # int8 kind code, [i, j]: an index into the kind table
    D: np.ndarray  # NaN at masked nodes
    dirs: np.ndarray  # [i, j, 2, 2] unit directions, NaN past the node's count
    eigenvalues: np.ndarray  # [i, j, 2], NaN where the node has none
    marginal: np.ndarray  # bool: the kind was decided by a tolerance

    @classmethod
    def spread(cls, chart, *values):
        """The classification from (kinds, D, dirs, eigenvalues, marginal)
        at the immersed nodes, in row-major order; masked nodes get the code
        KIND_MASKED, NaN and False."""
        arrays = []
        for v, fill in zip(values, (KIND_MASKED, np.nan, np.nan, np.nan, False)):
            arrays.append(np.full(chart.mask.shape + v.shape[1:], fill, v.dtype))
            arrays[-1][chart.mask] = v
        return cls(chart, *arrays)

    def point(self, i: int, j: int) -> PointClass:
        """The per-node view of node (i, j)."""
        code = self.kinds[i, j]
        eigenvalues = tuple(self.eigenvalues[i, j].tolist())
        if code in (KIND_MASKED, KIND_NEGATIVE):
            eigenvalues = None
        dirs = tuple(self.dirs[i, j, :KIND_DIRECTIONS[code]].copy())
        marginal = bool(self.marginal[i, j])
        return PointClass(KIND_NAMES[code], float(self.D[i, j]), dirs, eigenvalues,
                          marginal)

    @cached_property
    def points(self) -> dict:
        """(i, j) -> PointClass of every node, built on first access."""
        nu, nv = self.kinds.shape
        return {(i, j): self.point(i, j) for i in range(nu) for j in range(nv)}

    def nodes_of_kind(self, code) -> list:
        """The (i, j) of every node whose kind code is `code`, row-major."""
        ii, jj = np.nonzero(self.kinds == code)
        return list(zip(ii.tolist(), jj.tolist()))

    def counts(self) -> dict:
        """The number of nodes of each kind, by name, and their total."""
        n = np.bincount(self.kinds.ravel(), minlength=len(KIND_NAMES))
        return {**dict(zip(KIND_NAMES, n.tolist())), "total": int(self.kinds.size)}


def classify_chart(chart: SurfaceChart) -> ChartClassification:
    """Classify every node with the chart's own classifier."""
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


def generated_chart(grid: GridSpec, factor, mask, L, M, N, chart_type=SurfaceChart,
                    **extras) -> SurfaceChart:
    """The chart of a generated patch from [nu, nv] arrays of the metric
    factor, the immersed-node mask and the second forms.  sigma is
    log|factor|/2, one math.log per immersed node (numpy's log does not
    always round like math's), and the metric sign is the factor's; a
    masked node gets sigma NaN, L = M = N = 0 and sign +1.  The first
    immersed node, row-major, whose factor, L or M is not finite raises."""
    finite = np.isfinite(factor) & np.isfinite(L) & np.isfinite(M)
    _refuse(grid, mask & ~finite, "the metric factor, L or M", "immersed node")
    sigma = np.full(mask.shape, np.nan)
    sigma[mask] = 0.5 * each(math.log, np.abs(factor[mask]))
    sign = np.where(mask & ~(factor > 0), -1, 1).astype(np.int8)
    forms = (np.where(mask, a, 0.0) for a in (L, M, N))
    return chart_type(grid, sigma, *forms, mask, sign, **extras)


def chart_from_arrays(grid: GridSpec, sigma, L, M, N, metric_sign=1) -> SurfaceChart:
    """Build a chart from plain per-node arrays (no analytic extras)."""
    shape, arrays = (grid.nu, grid.nv), []
    for name, arr in (("sigma", sigma), ("L", L), ("M", M), ("N", N)):
        arrays.append(np.asarray(arr, dtype=float))
        if arrays[-1].shape != shape:
            raise ValueError(f"{name} must have shape {shape}")
    mask = np.logical_and.reduce([np.isfinite(a) for a in arrays])
    return SurfaceChart(grid, *arrays, mask, np.full(shape, metric_sign, dtype=np.int8))
