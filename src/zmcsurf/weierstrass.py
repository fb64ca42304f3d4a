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
(nu + nv - 1 of each on a square grid with du = dv).  Each branch is tabled
once per value: integer numerators over one positive denominator
(`Poly.numerators`) for an exact polynomial, else its floats.  The node
values of `ImmersionPatch.chart` (metric factor, L, M) and `grid_coordinates`
are formed over the tables in blocks of 1024 nodes, rounded as the per-point
API (`metric_factor`, `second_forms`, `evaluate`) followed by float().  As
`Fraction op float` is `float(Fraction) op float`, a value is exact up to its
first float operand: a certified double-double (below), else one correctly
rounded int/int division, a zero +0.0 (the factor -(AC - ac)^2 e g /
((AC)^2 E G) with g1 = a/A, g2 = c/C, w1 = e/E, w2 = g/G).  The per-point
expression's float steps follow on arrays: with exact g the factor is
-(1 - g1 g2)^2 times each leading exact w, times the other w's, and with a
float g -(1.0 - g1 g2)^2 w1 w2, the square by `pow` per value (libm's pow
can round unlike x * x); L and M are (lx +- ny) / 4 where both terms
-2 w_i g_i' are exact, else (float(lx) +- float(ny)) * 0.25; a coordinate is
P + Q, else float(P) + float(Q).

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
        return rep.to_dict(), rep.windings or ()

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
        d, (g1d, g2d) = self.data, self.g_primes
        g1, w1, p1 = (_table(b, lattice.xs) for b in (d.g1, d.w1, g1d))
        g2, w2, p2 = (_table(b, lattice.ys) for b in (d.g2, d.w2, g2d))
        terms = _term(w1, p1), _term(w2, p2)
        factor, forms = _factor(g1, w1, g2, w2), _sums(*terms, (np.add, np.subtract), 4)

        def node(kx, ky):
            f = factor(kx, ky)
            L, M, keep = np.zeros_like(f), np.zeros_like(f), ~(np.abs(f) < _MASKED)
            L[keep], M[keep] = (form(kx[keep], ky[keep]) for form in forms)
            return f, L, M

        metric, L, M = np.moveaxis(_by_blocks(grid, lattice, node), -1, 0)
        signs = None
        if all(b.is_polynomial for b in (d.w1, d.w2, g1d, g2d)):  # by comparison: no NaN is cast
            plus, minus = ((t > 0).astype(np.int8) - (t < 0) for t, _ in terms)
            signs = np.reshape([plus[lattice.ix], minus[lattice.iy]], (2, grid.nu, grid.nv))
        return generated_chart(grid, metric, ~(np.abs(metric) < _MASKED), L, M, L,
                               hopf_signs=signs)

    @np.errstate(all="ignore")
    def grid_coordinates(self, grid: GridSpec) -> np.ndarray:
        """float(c) of `evaluate(u, v)` at every node, a [nu, nv, 3] array;
        NumericGuardError names the first node where one is not finite."""
        lattice = grid.null_lattice()
        sums = [s for p, q in zip(self.comps_x, self.comps_y)
                for s in _sums(_table(p, lattice.xs), _table(q, lattice.ys))]
        xyz = _by_blocks(grid, lattice, lambda kx, ky: [s(kx, ky) for s in sums])
        _refuse(grid, ~np.isfinite(xyz).all(axis=-1), "a coordinate", "node")
        return xyz


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
    quarter = 0.25 if isinstance(total, float) else Fraction(1, 4)
    L = total * quarter
    return L, (lx - ny) * quarter, L


# -- separable chart engine: 1-D tables, node values in blocks ---------------


def _table(branch: Branch, points):
    """(ints, den), branch(t) == ints[k] / den at the k-th point, den > 0, for
    an exact polynomial (`Poly.numerators`); else (floats, None)."""
    exact = branch.poly.numerators(points) if branch.is_polynomial else None
    if exact:
        return np.array(exact[0], dtype=object), exact[1]
    return np.array(branch.table(points), dtype=float), None


def _float(table):
    """k -> float(value) at the entries k, each converted once as
    float(Fraction) divides; its OverflowError where k needs a value that
    rounds past the largest double, as |n / den| >= 2^1024 - 2^970 does."""
    values, den = table
    if den is None:
        return values.__getitem__
    limit = den * (2**1024 - 2**970)
    floats = np.array([n / den if abs(n) < limit else math.nan for n in values.tolist()])

    def at(k):
        if np.isnan(floats[k]).any():
            raise OverflowError("integer division result too large for a float")
        return floats[k]
    return at


def _term(w, dg):
    """The table of -2 w g', rounded as (-2 w) g' where it is not exact."""
    (e, E), (p, P) = w, dg
    if E is not None and P is not None:
        return -2 * e * p, E * P
    return _float((-2 * e, E))(slice(None)) * _float(dg)(slice(None)), None


def _factor(g1, w1, g2, w2):
    """(kx, ky) -> the metric factor at lattice indices (module docstring); a
    w is 1/1 in the exact part where it is not in it, else 1.0 after it."""
    if g1[1] is None or g2[1] is None:
        G1, W1, G2, W2 = map(_float, (g1, w1, g2, w2))
        return lambda kx, ky: -each(pow, 1.0 - G1(kx) * G2(ky), 2) * W1(kx) * W2(ky)
    (a, A), (c, C) = g1, g2
    lead = w1[1] is not None, w1[1] is not None and w2[1] is not None
    (e, E), (g, G) = (w if ok else (np.ones(len(w[0]), dtype=object), 1)
                      for w, ok in zip((w1, w2), lead))
    W1, W2 = ((lambda k: 1.0) if ok else _float(w) for w, ok in zip((w1, w2), lead))
    ac, den, minus_e = A * C, (A * C) ** 2 * E * G, -e
    # in the exact division np.square multiplies each int by itself, which
    # CPython squares faster
    exact = _certified(den, zip(
        [_pairs(minus_e, E), _pairs(2 * a * e, A * E), _pairs(-a * a * e, A * A * E)],
        [_pairs(g, G), _pairs(c * g, C * G), _pairs(c * c * g, C * C * G)]),
        lambda kx, ky: np.square(ac - a[kx] * c[ky]) * (minus_e[kx] * g[ky]) / den)
    return lambda kx, ky: exact(kx, ky) * W1(kx) * W2(ky)


def _sums(x, y, ops=(np.add,), divisor=1):
    """[(kx, ky) -> op(x-entry, y-entry) / divisor at lattice indices for op
    in ops], np.add or np.subtract (module docstring), with the exact division
    op(m Q, n P) / (divisor P Q) over m/P and n/Q where the certificate fails."""
    (m, P), (n, Q) = x, y
    if P is None or Q is None:
        fx, fy = _float(x), _float(y)
        return [lambda kx, ky, op=op: op(fx(kx), fy(ky)) * (1 / divisor) for op in ops]
    mx, ny, den, lcm = m * Q, n * P, divisor * P * Q, math.lcm(divisor * P, divisor * Q)
    px, py = _pairs(m, divisor * P), _pairs(n, divisor * Q)
    return [_certified(lcm, [(px, None), (None, py if op is np.add else -py)],
                       lambda kx, ky, op=op: op(mx[kx], ny[ky]) / den) for op in ops]


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
