"""Space-like zero-mean-curvature surfaces in R^3_1 (comparison layer).

Here the data are genuinely complex-holomorphic: polynomial g and 1-form
coefficient omega_hat in z = u + i v.  The immersion is the real part of
the antiderivative of ((1 + g^2), i (1 - g^2), 2 g) omega; the induced
metric is (1 - |g|^2)^2 |omega_hat|^2 (du^2 + dv^2), positive definite off
|g| = 1, with time-like unit normal (2 Re g, 2 Im g, 1 + |g|^2)/(1 - |g|^2).

The trace-free second fundamental form packs into the holomorphic function
(L - N) - 2iM = -4 omega_hat g'; principal directions are the eigen-lines
of the symmetric matrix [[(L-N)/2, M], [M, -(L-N)/2]], an unoriented line
field whose index at an isolated umbilic is -m/2 when the Hopf coefficient
vanishes to order m.  Quasi-umbilics cannot occur: the shape operator is
symmetric, hence diagonalizable, and its eigenvalue discriminant
((L-N)^2 + 4 M^2) e^{-4 sigma} is non-negative.

Charts are evaluated on node arrays: `Poly.at_complex` runs Horner's
rule over the whole grid, one numpy operation per step of CPython's
complex arithmetic, so every value is bit for bit the one a complex
evaluation per node gives (abs as hypot; squares stay Python's `** 2`,
C pow, and sigma a math.log per node).  `grid_coordinates` stacks the
real parts of the three primitives into a [nu, nv, 3] array, as the
time-like patch does.  `SpacelikeChart` is a `SurfaceChart` built by
`geometry.generated_chart` (metric sign +1, masked where the conformal
factor is at most 1e-300), and its `classify` yields the usual
`ChartClassification`, so `classify_chart`, `classification_csv` and
`classification_summary` serve both signatures.
Its nodes are umbilic (a tolerance test on L - N and M, hence marginal) or
positive, with D = ((L-N)^2 + 4 M^2) e^{-4 sigma}, principal directions
(cos t, sin t) and (-sin t, cos t) at t = atan2(M, (L-N)/2)/2, and
principal curvatures +-e^{-2 sigma} hypot((L-N)/2, M).  Only the index
differs: the line-field law -m/2 (`spacelike_index`) replaces the
time-like mod-4 law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import LINE_FIELD, FlowField, WindingResult, winding_index
from .geometry import (
    EXP_MAX,
    KIND_POSITIVE,
    KIND_UMBILIC,
    ChartClassification,
    GridSpec,
    SurfaceChart,
    each,
    generated_chart,
)
from .poly import Poly
from .umbilic import wind_halving


@dataclass(frozen=True)
class ComplexWeierstrassData:
    """Holomorphic data (g, omega_hat) as complex-coefficient polynomials."""

    g: Poly
    omega_hat: Poly


@dataclass(frozen=True)
class SpacelikePatch:
    data: ComplexWeierstrassData
    primitives: tuple  # three complex polynomials P_a with f^a = Re P_a(z)
    g_prime: Poly  # dg/dz, built once for the Hopf coefficient
    tag = {"tagged": "spacelike"}  # added to each command's output metadata

    @classmethod
    def build(cls, data: ComplexWeierstrassData) -> "SpacelikePatch":
        g, w = data.g, data.omega_hat
        one = Poly([1])
        phi = (
            (one + g * g) * w,
            (one - g * g) * w * 1j,
            (g * 2) * w,
        )
        return cls(data, tuple(p.antiderivative() for p in phi), g.derivative())

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, u, v) -> np.ndarray:
        z = complex(u) + 1j * complex(v)
        return np.array([complex(p(z)).real for p in self.primitives])

    @np.errstate(all="ignore")
    def grid_coordinates(self, grid: GridSpec) -> np.ndarray:
        """`evaluate(u, v)` at every node, as a [nu, nv, 3] array."""
        x, y = _grid_z(grid)
        return np.stack([p.at_complex(x, y)[0] for p in self.primitives], axis=-1)

    @np.errstate(all="ignore")
    def chart(self, grid: GridSpec) -> "SpacelikeChart":
        """The chart; a node is masked where the conformal factor
        (1 - |g|^2)^2 |omega_hat|^2 is at most 1e-300 (on |g| = 1 or at a
        zero of omega_hat), and (L - N) - 2iM is 4.0 times the Hopf
        coefficient -(omega_hat g').  Where abs or `** 2` overflows, the
        factor is not finite, and `generated_chart` refuses the node."""
        x, y = _grid_z(grid)
        gr, gi = self.data.g.at_complex(x, y)
        wr, wi = self.data.omega_hat.at_complex(x, y)
        abs_g, abs_w = np.hypot(gr, gi), np.hypot(wr, wi)
        factor = each(_square, 1.0 - each(_square, abs_g)) * each(_square, abs_w)
        a, b = _four_hopf(wr, wi, *self.g_prime.at_complex(x, y))
        L = a / 2.0
        return generated_chart(grid, factor, ~(factor <= 1e-300), L, -b / 2.0, -L,
                               chart_type=SpacelikeChart)

    def hopf_order(self):
        """Order m at o of the Hopf coefficient -(omega_hat g'); None for 0."""
        return (self.data.omega_hat * self.g_prime).trailing_order()

    def index_report(self, analysis) -> tuple:
        """The index report at o and its winding row: the law -m/2 against the
        principal line field's winding where o is an isolated umbilic (m >= 1)."""
        m = self.hopf_order()
        report = {"hopf_zero_order": m, "predicted_index": None if m is None else -m / 2.0}
        if not m:
            return {**report, "measured_index": None, "note": _NO_UMBILIC[m], "match": None}, []
        ((name, res),), stable, match = wind_halving(
            [self.principal_line_field()], {-m / 2.0}, analysis.winding_radius, analysis.samples)
        report.update(measured_index=res.index, radius_halving_stable=stable, match=match)
        return report, [(name, LINE_FIELD, res)]

    def flow_fields(self, analysis) -> tuple:
        """(fields, marks, banner): the principal line field, with o marked where
        m >= 1, or none where the Hopf coefficient is identically zero."""
        m = self.hopf_order()
        if m is None:
            return [], [], "classification only: " + _NO_UMBILIC[m]
        return [self.principal_line_field()], [(0.0, 0.0)] if m else [], ""

    def principal_line_field(self) -> FlowField:
        """The (unoriented) principal direction line field.

        The eigen-line of [[a, M], [M, -a]] with a = (L-N)/2 sits at angle
        theta = atan2(M, a)/2; the returned representative is
        (cos theta, sin theta), defined up to sign as a line field.  The
        field evaluates the Hopf coefficient -(omega_hat g') inline: Horner's
        rule over the coefficients of omega_hat and g', as `Poly.__call__`
        runs it at a complex point.  Its array form gives the same bits:
        z as `_z` forms it, Horner by `Poly.at_complex`, the products
        `-a * b` and `4.0 * w` as `_four_hopf`, libm per sample (`each`).
        """
        omega = tuple(reversed(self.data.omega_hat.coeffs))
        g_prime = tuple(reversed(self.g_prime.coeffs))

        def ev(u, v):
            z = complex(u) + 1j * complex(v)
            a = b = 0
            for c in omega:
                a = a * z + c
            for c in g_prime:
                b = b * z + c
            # the Hopf coefficient alone: 4 hopf = (L - N) - 2iM, N = -L
            w = 4.0 * (-complex(a) * complex(b))
            a, M = w.real / 2.0, -w.imag / 2.0
            if a == 0.0 and M == 0.0:
                return (0.0, 0.0)  # umbilic: winding guard will reject
            theta = 0.5 * math.atan2(M, a)
            return (math.cos(theta), math.sin(theta))

        def arrays(u, v):
            x, y = _z(u, v)
            w = _four_hopf(*self.data.omega_hat.at_complex(x, y), *self.g_prime.at_complex(x, y))
            a, M = w[0] / 2.0, -w[1] / 2.0
            theta, zero = 0.5 * each(math.atan2, M, a), (a == 0.0) & (M == 0.0)
            return tuple(np.where(zero, 0.0, each(f, theta)) for f in (math.cos, math.sin))

        return FlowField(ev, kind=LINE_FIELD, name="principal_lines", arrays=arrays)


_NO_UMBILIC = {None: "no isolated umbilic (Hopf coefficient is identically zero)",
               0: "no isolated umbilic (Hopf coefficient has no zero at o)"}


def _four_hopf(wr, wi, pr, pi):
    """(real, imaginary) parts of 4.0 * (-w * g') from those of w and g', as
    CPython's complex products form them (4.0 is 4.0 + 0.0j)."""
    nr, ni = -wr, -wi
    hr, hi = nr * pr - ni * pi, nr * pi + ni * pr
    return 4.0 * hr - 0.0 * hi, 4.0 * hi + 0.0 * hr


def _grid_z(grid: GridSpec):
    """`_z` at the nodes, the imaginary part as one row."""
    return _z(np.array(grid.u_nodes(), float)[:, None], np.array(grid.v_nodes(), float))


def _z(u, v):
    """(Re z, Im z) of z = complex(u) + 1j * complex(v) at float arrays u, v,
    where 1j * complex(v) = (0 v - 0) + (0 + v) j.  The zero terms decide
    the sign of a zero: a negative u nearer 0 than half the smallest
    subnormal is -0.0, and there Re z is +0.0 where v > 0."""
    return u + (0.0 * v - 0.0), 0.0 + (0.0 + v)


def _square(t: float) -> float:
    """Python's t ** 2, inf where it raises OverflowError."""
    try:
        return t**2
    except OverflowError:
        return math.inf


class SpacelikeChart(SurfaceChart):
    """A space-like isothermal chart: metric e^{2 sigma}(du^2 + dv^2), so
    `metric_sign` is +1 at every node."""

    @np.errstate(all="ignore")
    def classify(self) -> ChartClassification:
        """Every unmasked node is umbilic or positive; quasi-umbilic and
        negative kinds are impossible here.  The umbilic test is a
        tolerance, so umbilics are marginal."""
        m = self.mask
        L, M, N, sigma = self.L[m], self.M[m], self.N[m], self.sigma[m]
        # Python's float power is C pow, which can differ from t * t
        D = (each(pow, L - N, 2) + 4 * M * M) * each(math.exp, np.minimum(-4.0 * sigma, EXP_MAX))
        tau = 1e-9 * (1.0 + np.abs(L) + np.abs(N) + np.abs(M))
        umbilic = (np.abs(L - N) <= tau) & (np.abs(2.0 * M) <= tau)
        off = ~umbilic
        a, b = ((L - N) / 2.0)[off], M[off]
        theta = 0.5 * each(math.atan2, b, a)
        c, s = each(math.cos, theta), each(math.sin, theta)
        dirs = np.full(L.shape + (2, 2), np.nan)
        dirs[off] = np.stack([c, s, -s, c], -1).reshape(-1, 2, 2)
        r = each(math.exp, np.minimum(-2.0 * sigma[off], EXP_MAX)) * each(math.hypot, a, b)
        eigenvalues = np.zeros(L.shape + (2,))
        eigenvalues[off] = np.stack([r, -r], -1)
        kinds = np.where(umbilic, KIND_UMBILIC, KIND_POSITIVE)
        return ChartClassification.spread(self, kinds, D, dirs, eigenvalues, umbilic)


def generate_kobayashi(data: ComplexWeierstrassData) -> SpacelikePatch:
    """Space-like ZMC surface from holomorphic (g, omega_hat); polynomial
    data are integrated termwise."""
    return SpacelikePatch.build(data)


def monomial_hopf_data(m: int) -> ComplexWeierstrassData:
    """Data g = -z^(m+1)/(m+1), omega = dz, whose Hopf coefficient is z^m."""
    if m < 1:
        raise ValueError("order m must be >= 1")
    coeffs = [0] * (m + 1) + [-1.0 / (m + 1)]
    return ComplexWeierstrassData(Poly(coeffs), Poly([1]))


def spacelike_index(
    m: int, radius: float = 0.1, samples: int = 2048
) -> WindingResult:
    """Measured line-field index at the order-m umbilic of the monomial
    example; the classical law says -m/2."""
    patch = generate_kobayashi(monomial_hopf_data(m))
    field = patch.principal_line_field()
    return winding_index(field, radius=radius, samples=samples)
