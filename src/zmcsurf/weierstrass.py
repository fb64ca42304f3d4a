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
integrand samples and depends on t alone; a table of values is one pass over
the integrand's float array form (`Branch.arrays`).

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
g_i, w_i, g_i', the three primitives per coordinate and the Hopf branches
-w_i g_i'/2.  The kinds are the Hopf branches' signs, taken once per distinct
null coordinate from the chart's own L/M term tables -2 w_i g_i' and stored
per node (`SurfaceChart.hopf_signs`, where w_i and g_i' are polynomial).
`GridSpec.null_lattice` gives the distinct x and y values of a grid's nodes
(nu + nv - 1 of each on a square grid with du = dv); each branch is tabled
once per value, and the node values of `ImmersionPatch.chart` (metric
factor, L, M) and `grid_coordinates` are formed over the tables in blocks of
1024 nodes, rounded as the per-point API (`metric_factor`, `second_forms`,
`evaluate`) followed by float():

* exact tables, integer numerators over one positive denominator
  (`Poly.numerators`): certified double-doubles (below), else one correctly
  rounded int/int division per value, a zero +0.0, e.g. with g1 = a/A,
  g2 = c/C, w1 = e/E, w2 = g/G the metric factor -(AC - ac)^2 e g / ((AC)^2 E G);
* other tables: numpy object arrays, `_metric` and `_forms` element by
  element, but L and M on float arrays where the terms -2 w_i g_i' are floats,
  and -(1 - g1 g2)^2 certified as above with exact g and float w1 (exA2).

Certificate.  An exact node value V is a multiple of 1/D (known D) and a sum
of up to three terms: table entries (X + Y for a coordinate, L, M) or an
x-entry times a y-entry ((-W1) W2 + (2 G1 W1) (G2 W2) + (-G1^2 W1)(G2^2 W2)
for the factor).  Entries are tabled as hi = fl(a/b), lo = fl(a/b - hi) from
ints, NaN unless hi = 0 or 2^-450 <= |hi| <= 2^450; hi is split in 26-bit
halves.  The terms' leading doubles p (for a product fl(a_hi b_hi), whose
error Dekker's TwoProd gets exactly, as no product underflows) are summed by
TwoSum into s from +0.0; the rest (lo, or the TwoProd error plus
fl(a_hi b_lo + a_lo b_hi), and the TwoSum errors) into a float t; and
(r, rho) = TwoSum(s, t).
With u = 2^-53 an entry is off by at most 1.01 u^2 |hi|, a term by
10.1 u^2 |p| + 3 2^-1075, and t by 20.5 u^2 sum|p| (at most four roundings
of addends below 5.1 u sum|p|), so |V - r - rho| <= 30.6 u^2 sum|p| +
9 2^-1075, below beta = 2^-100 sum|p| + 2^-1071 by more than 4 u^2 sum|p| +
2^-1073, also as beta is rounded.  r is kept where r + fl(rho - beta) and
r + fl(rho + beta) both round to r: each rounding of rho -+ beta is below
1.1 u^2 sum|p| + 2^-1075, so V lies between the two, and rounding is
monotone.  r = 0 (never -0.0) is kept where beta < 2^-bitlength(D) <= 1/D:
there rho = 0 and |V| < 1/D, so V = 0.
Other nodes (NaN entries, ties, deep cancellation) take the division.

A node is masked where |metric factor| < 1e-300, and its forms are not
formed there; `geometry.generated_chart` forms sigma = log|factor|/2 and
the metric sign from the factor's.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
import numpy as np

from . import umbilic
from .flow import VECTOR_FIELD
from .geometry import GridSpec, SurfaceChart, _refuse, each, generated_chart
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
    """t -> integral over [0, t] of the function with float array form `arrays`
    by the module docstring's rule: the integral up to each knot is cached per
    sign, and a value adds one panel from the largest knot at or below |t| to
    t.  `table` forms the panels of its points and of the knots not yet cached
    in one pass, as arrays; a call is a table of one point.  Known limit: for
    |t| <= 0.025 one panel cannot resolve exp(-1/(4 t^2)), so there exA2's
    primitives have no correct relative digits; the absolute error is below
    1e-178."""

    def __init__(self, arrays):
        self.arrays, self._rule = arrays, np.array(_gauss_legendre()).T
        # integral up to knot k, per sign; -0.0 + x is x, with x's signed zero
        self._cumulative = {1.0: [-0.0], -1.0: [-0.0]}

    def __call__(self, t):
        return self.table([t])[0]

    @np.errstate(all="ignore")
    def table(self, points) -> list:
        t = np.array([float(p) for p in points])
        live = t != 0  # the value at t = 0 is 0.0
        s, k = np.copysign(1.0, t[live]), np.maximum(0, np.frexp(t[live])[1] + 5)
        missing = [(sign, n) for sign, cum in self._cumulative.items()  # knots not yet cached
                   for n in range(len(cum), k[s == sign].max(initial=0) + 1)]
        knot = lambda s, k: math.ldexp(s, k - 6) if k else 0.0  # 0, s h 2^(k-1)
        a = np.concatenate([[knot(sign, n - 1) for sign, n in missing],
                            np.where(k > 0, np.ldexp(s, k - 6), 0.0)])  # knot k of each t
        b = np.concatenate([[knot(sign, n) for sign, n in missing], t[live]])
        (x, w), mid, half = self._rule, 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a
        terms = w * self.arrays(mid[:, None] + half[:, None] * x)
        panels = iter([h * math.fsum(row) for h, row in zip(half.tolist(), terms.tolist())])
        for sign, _ in missing:
            cumulative = self._cumulative[sign]
            cumulative.append(cumulative[-1] + next(panels))
        values = np.zeros_like(t)
        values[live] = [self._cumulative[sign][kk] + next(panels)
                        for sign, kk in zip(s.tolist(), k.tolist())]
        return values.tolist()


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
    arrays = branch.arrays or (lambda t: each(lambda s: float(branch(s)), t))
    return Branch(fn=_GaussPrimitive(arrays))


@dataclass(frozen=True)
class ImmersionPatch:
    """A generated surface patch with analytic access to all derived data;
    the primitives `comps_x`, `comps_y` are built when coordinates need them."""

    data: NullData
    g_primes: tuple  # (g1', g2'), built once for the second-order data
    base_regular: bool = True
    tag = {}  # added to each command's output metadata: nothing for time-like

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, data: NullData, strict: bool = True):
        regular = _check_base_point(data, strict)
        return cls(data, (data.g1.derivative(), data.g2.derivative()), regular)

    @functools.cached_property
    def comps_x(self) -> tuple:  # the three primitives in x
        one, g, w = Branch.constant(1), self.data.g1, self.data.w1
        return tuple(map(_primitive, ((one - g * g) * w, (g * 2) * w, (one + g * g) * w)))

    @functools.cached_property
    def comps_y(self) -> tuple:  # the three primitives in y
        one, g, w = Branch.constant(1), self.data.g2, self.data.w2
        return tuple(map(_primitive, (-((one - g * g) * w), (g * 2) * w, (one + g * g) * w)))

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

    def index_report(self, analysis) -> tuple:
        """The index report at o, read off the Hopf coefficient, and the winding
        rows of X1 and X2 where it predicts indices (`umbilic.measure_indices`)."""
        q = self.hopf()
        rep = umbilic.measure_indices(umbilic.analyze_point(q, cap=analysis.jet_cap), q,
                                      radius=analysis.winding_radius, samples=analysis.samples)
        return rep.to_dict(), [(name, VECTOR_FIELD, res) for name, res in rep.windings or ()]

    def flow_fields(self, analysis) -> tuple:
        """(fields, marks, banner): X1 and X2 with o marked, or why they do not exist."""
        try:
            return umbilic.eigenfields(self.hopf(), cap=analysis.jet_cap), [(0.0, 0.0)], ""
        except umbilic.NoSmoothFlowError as exc:
            return (), [], f"classification only: {exc}"

    # -- chart extraction ------------------------------------------------------------

    @np.errstate(all="ignore")
    def chart(self, grid: GridSpec) -> SurfaceChart:
        """The chart, with its Hopf signs where w_i and g_i' are polynomial;
        NumericGuardError names the first immersed node, row-major, whose
        metric factor, L or M is not a finite double (`generated_chart`)."""
        lattice = grid.null_lattice()
        xs, ys = lattice.xs, lattice.ys
        d, (g1d, g2d) = self.data, self.g_primes
        x = [_numerators(b, xs) for b in (d.g1, d.w1, g1d)]
        y = [_numerators(b, ys) for b in (d.g2, d.w2, g2d)]
        values = _mixed_values(self, xs, ys, x, y) if None in x + y else _exact_values(x, y)
        factor, forms, (lx, ny) = values

        def node(kx, ky):
            f = factor(kx, ky).astype(float)
            L, M, keep = np.zeros_like(f), np.zeros_like(f), ~(np.abs(f) < _MASKED)
            L[keep], M[keep] = forms(kx[keep], ky[keep])
            return f, L, M

        metric, L, M = np.moveaxis(_by_blocks(grid, lattice, node), -1, 0)
        signs = None
        if all(b.is_polynomial for b in (d.w1, d.w2, g1d, g2d)):  # by comparison: no NaN is cast
            plus, minus = ((t > 0).astype(np.int8) - (t < 0) for t in (lx, ny))
            signs = np.reshape([plus[lattice.ix], minus[lattice.iy]], (2, grid.nu, grid.nv))
        return generated_chart(grid, metric, ~(np.abs(metric) < _MASKED), L, M, L,
                               hopf_signs=signs)

    @np.errstate(all="ignore")
    def grid_coordinates(self, grid: GridSpec) -> np.ndarray:
        """float(c) of `evaluate(u, v)` at every node, a [nu, nv, 3] array;
        NumericGuardError names the first node where one is not finite."""
        lattice = grid.null_lattice()
        sums = [_node_sum(p, q, lattice) for p, q in zip(self.comps_x, self.comps_y)]
        xyz = _by_blocks(grid, lattice, lambda kx, ky: [s(kx, ky) for s in sums])
        _refuse(grid, ~np.isfinite(xyz).all(axis=-1), "a coordinate", "node")
        return xyz


_QUARTER = Fraction(1, 4)
_MASKED = 1e-300  # a node is masked where |metric factor| is below this
_BLOCK = 1024  # flat nodes per block of `_by_blocks`


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


# -- separable chart engine: 1-D tables, node values in blocks ---------------

_metric_each, _forms_each = np.frompyfunc(_metric, 4, 1), np.frompyfunc(_forms, 2, 3)


def _objects(values) -> np.ndarray:
    return np.array(values, dtype=object)


def _floats(values) -> np.ndarray:  # a float array of floats, else an object array
    return np.array(values, dtype=float if all(isinstance(v, float) for v in values) else object)


def _numerators(branch: Branch, points):
    """`Poly.numerators` of a polynomial branch, numerators as an object array."""
    exact = branch.poly.numerators(points) if branch.is_polynomial else None
    return exact and (_objects(exact[0]), exact[1])


def _exact_values(x, y):
    """(factor, forms) at lattice indices (kx, ky) from the numerator tables
    of (g1, w1, g1') = (a/A, e/E, p/P) and (g2, w2, g2') = (c/C, g/G, q/Q),
    and the term tables (sx, sy), whose signs are those of -2 w_i g_i'."""
    (a, A), (e, E), (p, P) = x
    (c, C), (g, G), (q, Q) = y
    ac, den, minus_e = A * C, (A * C) ** 2 * E * G, -e
    sx, sy, den4 = -2 * e * p * (G * Q), -2 * g * q * (E * P), 4 * E * P * G * Q
    # the factor is (-W1) W2 + (2 G1 W1) (G2 W2) + (-G1^2 W1) (G2^2 W2); in the
    # exact division np.square multiplies each int by itself, which CPython
    # squares faster
    factor = _certified(den, zip(
        [_pairs(minus_e, E), _pairs(2 * a * e, A * E), _pairs(-a * a * e, A * A * E)],
        [_pairs(g, G), _pairs(c * g, C * G), _pairs(c * c * g, C * C * G)]),
        lambda kx, ky: np.square(ac - a[kx] * c[ky]) * (minus_e[kx] * g[ky]) / den)
    lx, ly, lcm = _pairs(sx, den4), _pairs(sy, den4), math.lcm(2 * E * P, 2 * G * Q)
    L = _certified(lcm, [(lx, None), (None, ly)], lambda kx, ky: (sx[kx] + sy[ky]) / den4)
    M = _certified(lcm, [(lx, None), (None, -ly)], lambda kx, ky: (sx[kx] - sy[ky]) / den4)
    return factor, lambda kx, ky: (L(kx, ky), M(kx, ky)), (sx, sy)


def _mixed_values(patch, xs, ys, x, y):
    """`_exact_values` for other tables, the terms -2 w g' formed per value;
    with exact g and float w1 (exA2) the factor rounds as `Fraction * float * w2`."""
    d, (g1d, g2d) = patch.data, patch.g_primes
    w1, w2 = _floats(d.w1.table(xs)), _floats(d.w2.table(ys))
    lx = _floats([-2 * w * dg for w, dg in zip(w1.tolist(), g1d.table(xs))])
    ny = _floats([-2 * w * dg for w, dg in zip(w2.tolist(), g2d.table(ys))])
    forms = lambda kx, ky: ((lx[kx] + ny[ky]) * 0.25, (lx[kx] - ny[ky]) * 0.25)
    if object in (lx.dtype, ny.dtype):
        forms = lambda kx, ky: [v.astype(float) for v in _forms_each(lx[kx], ny[ky])[:2]]
    if x[0] and y[0] and w1.dtype == float:
        (a, A), (c, C) = x[0], y[0]
        ratio = _certified((A * C) ** 2, zip(  # (-1) 1 + (2 G1) G2 + (-G1^2) G2^2
            [_pairs(np.full_like(a, -1), 1), _pairs(2 * a, A), _pairs(-a * a, A * A)],
            [_pairs(np.full_like(c, 1), 1), _pairs(c, C), _pairs(c * c, C * C)]),
            lambda kx, ky: -np.square(A * C - a[kx] * c[ky]) / (A * C) ** 2)
        return lambda kx, ky: ratio(kx, ky) * w1[kx] * w2[ky], forms, (lx, ny)
    g1, g2 = _objects(d.g1.table(xs)), _objects(d.g2.table(ys))
    return lambda kx, ky: _metric_each(g1[kx], g2[ky], w1[kx], w2[ky]), forms, (lx, ny)


def _node_sum(p: Branch, q: Branch, lattice):
    """(kx, ky) -> float(p(x) + q(y)) at lattice indices: over numerator
    tables m/P and n/Q, certified, else (m Q + n P) / (P Q)."""
    exact_p, exact_q = _numerators(p, lattice.xs), _numerators(q, lattice.ys)
    if not (exact_p and exact_q):
        px, qy = _objects(p.table(lattice.xs)), _objects(q.table(lattice.ys))
        return lambda kx, ky: (px[kx] + qy[ky]).astype(float)
    (m, P), (n, Q) = exact_p, exact_q
    mx, ny, den = m * Q, n * P, P * Q
    return _certified(math.lcm(P, Q), [(_pairs(m, P), None), (None, _pairs(n, Q))],
                      lambda kx, ky: (mx[kx] + ny[ky]) / den)


def _pairs(nums, den) -> np.ndarray:
    """Rows (hi, lo, hi1, hi2) of nums[k] / den as in the module docstring,
    hi = hi1 + hi2 in 26-bit halves."""
    his, los = [], []
    for n in nums.tolist():
        hi = n / den if abs(n) >> 450 < den else 0.0  # |hi| <= 2^450, no overflow
        m, scale = hi.as_integer_ratio()
        his.append(hi if not n or 2.0**-450 <= abs(hi) else math.nan)
        los.append((n * scale - m * den) / (den * scale) if hi else 0.0)
    hi, lo = np.array(his), np.array(los)
    hi1 = hi * (2.0**27 + 1) - (hi * (2.0**27 + 1) - hi)
    return np.array([hi, lo, hi1, hi - hi1])


def _two_sum(a, b):  # (fl(a + b), its exact error): Knuth's TwoSum
    s = a + b
    return s, (a - (s - (s - a))) + (b - (s - a))


def _certified(den, terms, exact):
    """(kx, ky) -> float array: the sum of `terms` (an x- and a y-table of
    `_pairs`, multiplied, or one of them and None), a multiple of 1/den,
    certified as in the module docstring; exact(kx, ky) where that fails."""
    terms, unit = list(terms), 2.0 ** -den.bit_length()  # unit <= 1/den

    def value(kx, ky):
        s = t = size = 0.0  # s starts at +0.0, so r is never -0.0
        for tx, ty in terms:
            if tx is None or ty is None:
                p, q = tx[:2].take(kx, 1) if ty is None else ty[:2].take(ky, 1)
            else:
                (ah, al, a1, a2), (bh, bl, b1, b2) = tx.take(kx, 1), ty.take(ky, 1)
                p = ah * bh
                q = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + (ah * bl + al * bh)
            s, e = _two_sum(s, p)
            t, size = t + e + q, size + abs(p)
        r, rho = _two_sum(s, t)
        beta = size * 2.0**-100 + 2.0**-1071
        ok = (r + (rho - beta) == r) & (r + (rho + beta) == r) | (r == 0) & (beta < unit)
        if not ok.all():
            r[~ok] = exact(kx[~ok], ky[~ok])
        return r
    return value


def _by_blocks(grid, lattice, node) -> np.ndarray:
    """The [nu, nv, 3] array of node(kx, ky), three float arrays at lattice
    indices, on row-major blocks of `_BLOCK` nodes.  A block's pass raises its
    own OverflowError: the first value of the first operation that overflows,
    which need not be at the block's first failing node."""
    n = grid.nu * grid.nv
    out = np.empty((n, 3))
    for start in range(0, n, _BLOCK):
        block = slice(start, min(n, start + _BLOCK))
        out[block] = np.transpose(node(lattice.ix[block], lattice.iy[block]))
    return out.reshape(grid.nu, grid.nv, 3)


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
