"""Time-like zero-mean-curvature surfaces in R^3_1 from split-complex data.

Ambient space is Minkowski 3-space with inner product
<a, b> = a0*b0 + a1*b1 - a2*b2 (third coordinate time-like).

Two equivalent construction routes are provided:

* route "ko":   para-holomorphic data (g, omega_hat); the immersion is the
  real part of the antiderivative of (j (1 - g^2), 2 g, 1 + g^2) omega.
* route "null": a pair of one-variable data sets (g1, w1) in x and (g2, w2)
  in y, integrated along the null coordinates x = (u+v)/2, y = (u-v)/2.

The "ko" route reduces exactly to the "null" route through the idempotent
split, so a single engine serves both.  For polynomial data everything is
exact termwise antidifferentiation over rationals.  A smooth non-polynomial
branch is integrated by a fixed composite rule: one 20-point Gauss-Legendre
panel between consecutive knots 0, h, 2h, 4h, ... (and their negatives,
h = 1/32), so a value at t costs at most 20 (2 + ceil(log2(32 |t|)))
integrand evaluations and depends on t alone.

Derived and validated here (rather than taken on faith):

* <f_x, f_x> = <f_y, f_y> = 0 and <f_x, f_y> = -2 (1 - g1 g2)^2 w1 w2, so
  the first fundamental form in (u,v) is -(1 - g1 g2)^2 w1 w2 (du^2 - dv^2).
  Its sign is recorded on the chart; with w1 w2 > 0 the u-direction comes
  out time-like.
* second fundamental form  -2 w1 g1' dx^2 - 2 w2 g2' dy^2  against the unit
  normal (-g1+g2, 1+g1g2, g1+g2)/(-1+g1g2).
* the quadratic-differential coefficient of the trace-free second form in
  dz^2 is -(omega_hat * dg/dz); the raw chart assembly (L+N) + 2jM equals
  4 times that because du = (dz + conj dz)/2.

Separable chart engine.  Every datum is a function of one null coordinate:
g_i, w_i, the dx^2/dy^2 coefficients -2 w_i g_i', the three primitives per
coordinate and the two Hopf branches.  `GridSpec.null_lattice` gives the
distinct x and y values of a grid's nodes (nu + nv - 1 of each on a square
grid with du = dv), so `ImmersionPatch.chart` and `grid_coordinates`
evaluate each branch once per distinct value and only combine per node.
A rational polynomial branch is tabled over Python ints, one Fraction
per value (see `Poly.table`).
The combination rounds exactly as the per-point API (`metric_factor`,
`second_forms`, `evaluate`) followed by float():

* rational branch values: the node value is formed as an unreduced
  integer ratio, e.g. -(bd - ac)^2 e g / ((bd)^2 f h) for the metric
  factor with g1 = a/b, g2 = c/d, w1 = e/f, w2 = g/h.  Python's int/int
  true division is correctly rounded, like float(Fraction), so the two
  agree bit for bit; the mask test reads the integer numerator.
* float or callable branch values: the per-point expression itself is
  applied to the cached values, except that with rational g and float w1
  (exA2) the rational part -(1 - g1 g2)^2, which enters that expression
  as one correctly rounded double, is formed from integer ratios.

The nodes' (metric factor, L, M, N) go to `geometry.chart_from_nodes`,
which forms sigma = log|factor|/2 with a per-node math.log call (numpy's
log and exp do not always round like math's) and the metric sign from
the factor's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from .geometry import GridSpec, SurfaceChart, chart_from_nodes
from .parafunc import Branch, ParaFunction, _halve
from .poly import Poly


class DegenerateDataError(ValueError):
    """Data violating the base-point regularity conditions."""


def minkowski_dot(a, b) -> float:
    return float(a[0]) * float(b[0]) + float(a[1]) * float(b[1]) - float(a[2]) * float(b[2])


@dataclass(frozen=True)
class WeierstrassData:
    """Route "ko" data: g with g(o) = 0 and a 1-form coefficient omega_hat
    with N2(omega_hat(o)) != 0."""

    g: ParaFunction
    omega_hat: ParaFunction


@dataclass(frozen=True)
class NullData:
    """Route "null" data: branch functions of x (index 1) and y (index 2)."""

    g1: Branch
    g2: Branch
    w1: Branch
    w2: Branch


def _check_base_point(data: NullData, strict: bool) -> bool:
    regular = True
    if data.g1(0) != 0 or data.g2(0) != 0:
        if strict:
            raise DegenerateDataError("g must vanish at the base point")
        regular = False
    if data.w1(0) == 0 or data.w2(0) == 0:
        if strict:
            raise DegenerateDataError(
                "omega_hat is null at the base point (surface degenerate there)"
            )
        regular = False
    return regular


class _GaussPrimitive:
    """t -> integral of fn over [0, t] by the fixed rule of the module
    docstring: the integral up to each knot is cached per sign, and a value
    adds one panel from the largest knot at or below |t| to t.  Known limit:
    for |t| <= 0.025 one panel cannot resolve exp(-1/(4 t^2)), so there exA2's
    primitives have no correct relative digits; the absolute error is below
    1e-178."""

    def __init__(self, fn):
        self.fn = fn
        # integral up to knot k, per sign; -0.0 + x is x, with x's signed zero
        self._cumulative = {1.0: [-0.0], -1.0: [-0.0]}

    def __call__(self, t):
        t = float(t)
        if t == 0.0:
            return 0.0
        s = math.copysign(1.0, t)
        knot = lambda k: s * math.ldexp(1.0, k - 6) if k else 0.0  # 0, s h 2^(k-1)
        k = max(0, math.frexp(t)[1] + 5)  # the largest knot at or below |t|
        cumulative = self._cumulative[s]
        while len(cumulative) <= k:
            n = len(cumulative)
            cumulative.append(cumulative[-1] + self._panel(knot(n - 1), knot(n)))
        return cumulative[k] + self._panel(knot(k), t)

    def _panel(self, a, b):
        mid, half = 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a
        terms = (w * self.fn(mid + half * x) for x, w in _gauss_legendre())
        return half * math.fsum(terms)


@functools.cache
def _gauss_legendre(n: int = 20):
    """(node, weight) pairs of the n-point rule on [-1, 1], each the double
    nearest its exact value: numpy's nodes polished by Newton steps on P_n in
    exact arithmetic (numpy's weights are off by up to 7e-14 relative, and
    its LAPACK kernel may move bits), w = 2 / ((1 - x^2) P_n'(x)^2) there."""
    from numpy.polynomial.legendre import leggauss

    coeffs = [0] * (n + 1)  # 2^n P_n = sum_k (-1)^k C(n, k) C(2n - 2k, n) x^(n - 2k)
    for k in range(n // 2 + 1):
        coeffs[n - 2 * k] = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
    p = Poly(coeffs)
    dp = p.derivative()
    rule = []
    for x0 in leggauss(n)[0]:
        x = Fraction(float(x0))
        for _ in range(2):
            x -= p(x) / dp(x)
            x = Fraction(round(x * 2**128), 2**128)
        rule.append((float(x), float(2 * 4**n / ((1 - x * x) * dp(x) ** 2))))
    return tuple(rule)


def _primitive(branch: Branch) -> Branch:
    if branch.is_polynomial:
        return Branch(poly=branch.poly.antiderivative())
    return Branch(fn=_GaussPrimitive(lambda t: float(branch(t))))


@dataclass(frozen=True)
class ImmersionPatch:
    """A generated surface patch with analytic access to all derived data."""

    data: NullData
    comps_x: tuple  # three primitives in x
    comps_y: tuple  # three primitives in y
    g_primes: tuple  # (g1', g2'), built once for the second-order data
    base_regular: bool = True

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, data: NullData, strict: bool = True):
        regular = _check_base_point(data, strict)
        one = Branch.constant(1)
        g1, g2, w1, w2 = data.g1, data.g2, data.w1, data.w2
        ints_x = ((one - g1 * g1) * w1, (g1 * 2) * w1, (one + g1 * g1) * w1)
        ints_y = (-((one - g2 * g2) * w2), (g2 * 2) * w2, (one + g2 * g2) * w2)
        return cls(
            data=data,
            comps_x=tuple(_primitive(b) for b in ints_x),
            comps_y=tuple(_primitive(b) for b in ints_y),
            g_primes=(g1.derivative(), g2.derivative()),
            base_regular=regular,
        )

    # -- evaluation ----------------------------------------------------------

    def evaluate_null(self, x, y):
        return tuple(self.comps_x[a](x) + self.comps_y[a](y) for a in range(3))

    def evaluate(self, u, v):
        return self.evaluate_null(_halve(u + v), _halve(u - v))

    # -- first-order data ------------------------------------------------------

    def metric_factor(self, u, v):
        """<f_u, f_u> = -(1 - g1 g2)^2 w1 w2; the dv^2-coefficient is its negative."""
        x, y = _halve(u + v), _halve(u - v)
        d = self.data
        return _metric(d.g1(x), d.g2(y), d.w1(x), d.w2(y))

    def normal(self, u, v) -> np.ndarray:
        """Unit space-like normal; undefined where the patch degenerates."""
        x, y = _halve(u + v), _halve(u - v)
        d = self.data
        a, b = float(d.g1(x)), float(d.g2(y))
        den = -1.0 + a * b
        if den == 0.0:
            raise ZeroDivisionError("normal undefined at a degenerate node")
        return np.array([(-a + b) / den, (1.0 + a * b) / den, (a + b) / den])

    # -- second-order data --------------------------------------------------------

    def second_forms(self, u, v):
        """Honest (L, M, N) of the second fundamental form in the (u,v) frame."""
        x, y = _halve(u + v), _halve(u - v)
        d = self.data
        g1d, g2d = self.g_primes
        # dx^2- and dy^2-coefficients
        return _forms(-2 * d.w1(x) * g1d(x), -2 * d.w2(y) * g2d(y))

    def weingarten_null(self, u, v) -> np.ndarray:
        """Shape operator in the null frame: off-diagonal w_i g_i' / Delta."""
        x, y = _halve(u + v), _halve(u - v)
        d = self.data
        g1d, g2d = self.g_primes
        delta = float(
            ((-1 + d.g1(x) * d.g2(y)) ** 2) * d.w1(x) * d.w2(y)
        )
        if delta == 0.0:
            raise ZeroDivisionError("Weingarten matrix undefined at a degenerate node")
        return np.array(
            [
                [0.0, float(d.w2(y) * g2d(y)) / delta],
                [float(d.w1(x) * g1d(x)) / delta, 0.0],
            ]
        )

    def hopf(self) -> ParaFunction:
        """Hopf coefficient -(omega_hat dg/dz), i.e. the dz^2-normalized
        quadratic-differential coefficient; branches -w_i g_i'/2."""
        g1d, g2d = self.g_primes
        half = Fraction(1, 2)
        return ParaFunction(
            -(self.data.w1 * g1d) * half, -(self.data.w2 * g2d) * half
        )

    # -- chart extraction ------------------------------------------------------------

    def chart(self, grid: GridSpec) -> SurfaceChart:
        lattice = grid.null_lattice()
        xs, ys = lattice.xs, lattice.ys
        d = self.data
        g1d, g2d = self.g_primes
        g1, w1 = d.g1.table(xs), d.w1.table(xs)
        g2, w2 = d.g2.table(ys), d.w2.table(ys)
        lx = [-2 * w * dg for w, dg in zip(w1, g1d.table(xs))]
        ny = [-2 * w * dg for w, dg in zip(w2, g2d.table(ys))]
        node = _float_node
        if _rational(g1 + g2) and all(isinstance(v, float) for v in w1):
            node = _rational_g_node  # exA2
        nodes = _combine(lattice, (g1, w1, lx), (g2, w2, ny), _exact_node, node)
        chart = chart_from_nodes(grid, nodes, lattice=lattice)
        hopf = self.hopf()
        if hopf.plus.is_polynomial and hopf.minus.is_polynomial:
            chart.hopf_values = (hopf.plus.table(xs), hopf.minus.table(ys))
        return chart

    def grid_coordinates(self, grid: GridSpec):
        """Iterator over float(c) of `evaluate(u, v)` at every node, as
        row-major triples."""
        lattice = grid.null_lattice()
        px = [c.table(lattice.xs) for c in self.comps_x]
        qy = [c.table(lattice.ys) for c in self.comps_y]
        return _combine(lattice, px, qy, _exact_point, _float_point)


_QUARTER = Fraction(1, 4)


def _metric(g1, g2, w1, w2):
    """The metric factor from branch values at x (g1, w1) and y (g2, w2)."""
    return -((1 - g1 * g2) ** 2) * w1 * w2


def _forms(lx, ny):
    """(L, M, N) from the dx^2- and dy^2-coefficients.  A float is quartered
    by * 0.25, the double that * Fraction(1, 4) gives through Fraction's
    reverse operator; an int or Fraction stays exact, since float(t) * 0.25
    can differ from float(t / 4) at subnormals and near overflow."""
    total = lx + ny
    quarter = 0.25 if isinstance(total, float) else _QUARTER
    L = total * quarter
    return L, (lx - ny) * quarter, L


# -- separable chart engine: 1-D tables, per-node combination ---------------


def _combine(lattice, x_tables, y_tables, exact, generic):
    """Iterator, per node in row-major order: `exact` on the flat
    (numerator, denominator) pairs of the x and y table rows when every
    value is rational, else `generic` on the values themselves."""
    if _rational(v for t in (*x_tables, *y_tables) for v in t):
        rows_x, rows_y, node = _ratios(x_tables), _ratios(y_tables), exact
    else:
        rows_x, rows_y, node = list(zip(*x_tables)), list(zip(*y_tables)), generic
    return map(node, _take(rows_x, lattice.ix), _take(rows_y, lattice.iy))


def _take(rows: list, index: np.ndarray) -> np.ndarray:
    """rows[k] for every k of `index`, as an object array."""
    return np.fromiter(rows, dtype=object, count=len(rows))[index]


def _rational(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _ratios(tables) -> list:
    return [
        tuple(n for v in vals for n in (v.numerator, v.denominator))
        for vals in zip(*tables)
    ]


def _exact_node(x, y):
    """float() of the metric factor and of (L, M, N), or None where masked;
    x = (g1, w1, lx) and y = (g2, w2, ny) as numerator/denominator pairs."""
    a, b, e, f, ln, ld = x
    c, d, g, h, nn, nd = y
    bd = b * d
    t = bd - a * c
    num = -(t * t) * (e * g)
    if not num:
        return None
    factor = num / (bd * bd * (f * h))
    if abs(factor) < 1e-300:
        return None
    den = 4 * ld * nd
    L = (ln * nd + nn * ld) / den
    return factor, L, (ln * nd - nn * ld) / den, L


def _float_node(x, y):
    """As `_exact_node`, for values of any type: the per-point expressions."""
    g1, w1, lx = x
    g2, w2, ny = y
    factor = _metric(g1, g2, w1, w2)
    f = float(factor)
    if factor == 0 or abs(f) < 1e-300:
        return None
    return (f, *map(float, _forms(lx, ny)))


def _rational_g_node(x, y):
    """`_float_node` where g1, g2 are rational and w1 a float: the metric
    factor is float(-(1 - g1 g2)^2) * w1 * w2 there, and that double is
    formed from integer ratios, as `_exact_node` forms it."""
    g1, w1, lx = x
    g2, w2, ny = y
    bd = g1.denominator * g2.denominator
    t = bd - g1.numerator * g2.numerator
    factor = -(t * t) / (bd * bd) * w1 * w2
    if factor == 0 or abs(factor) < 1e-300:
        return None
    return (factor, *map(float, _forms(lx, ny)))


def _exact_point(x, y):
    """float(P_a(x) + Q_a(y)) for a = 0, 1, 2 from numerator/denominator pairs."""
    n0, d0, n1, d1, n2, d2 = x
    m0, e0, m1, e1, m2, e2 = y
    return (
        (n0 * e0 + m0 * d0) / (d0 * e0),
        (n1 * e1 + m1 * d1) / (d1 * e1),
        (n2 * e2 + m2 * d2) / (d2 * e2),
    )


def _float_point(x, y):
    return tuple(float(p + q) for p, q in zip(x, y))


def generate_null(
    g1: Branch, g2: Branch, w1: Branch, w2: Branch, strict: bool = True
) -> ImmersionPatch:
    """Surface from null-coordinate data; exact for polynomial branches."""
    return ImmersionPatch.build(NullData(g1, g2, w1, w2), strict)


def generate_ko(data: WeierstrassData, strict: bool = True) -> ImmersionPatch:
    """Surface from para-holomorphic (g, omega_hat).

    The split branches of g and omega_hat (functions of x and y) are exactly
    the null-route data, so this delegates to the same engine.
    """
    null_data = NullData(
        data.g.plus, data.g.minus, data.omega_hat.plus, data.omega_hat.minus
    )
    return ImmersionPatch.build(null_data, strict)


def hopf_differential(data: WeierstrassData) -> ParaFunction:
    """-(omega_hat * dg/dz) as a ParaFunction; e.g. g=z^2, omega=dz -> -2z."""
    return -(data.omega_hat * data.g.derivative())


def _float_point_of(patch):
    return lambda u, v: np.array([float(c) for c in patch.evaluate(u, v)])


def numeric_first_forms(patch, u: float, v: float, h: float = 1e-5):
    """Finite-difference first fundamental form (E, F, G) of any patch with
    `evaluate`; test oracle."""
    f = _float_point_of(patch)
    fu = (f(u + h, v) - f(u - h, v)) / (2 * h)
    fv = (f(u, v + h) - f(u, v - h)) / (2 * h)
    return (
        minkowski_dot(fu, fu),
        minkowski_dot(fu, fv),
        minkowski_dot(fv, fv),
    )
