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

Charts go through the same pipeline as time-like ones: `SpacelikeChart`
is a `SurfaceChart` (metric sign +1), built by the same constructor,
`geometry.chart_from_nodes`, from the conformal factor and (L, M, N) at
each node (masked where the factor is at most 1e-300), and its `classify`
yields the usual `ChartClassification`, so `classify_chart`,
`classification_csv` and `classification_summary` serve both signatures.
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
    KIND_POSITIVE,
    KIND_UMBILIC,
    ChartClassification,
    GridSpec,
    SurfaceChart,
    chart_from_nodes,
    exp_each,
)
from .poly import Poly


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

    def grid_coordinates(self, grid: GridSpec):
        """Iterator over `evaluate(u, v)` at every node, row-major."""
        return _at_nodes(grid, self.evaluate)

    # -- analytic first/second-order data ----------------------------------------

    def _factor_and_hopf(self, u, v):
        """(conformal factor, Hopf coefficient -(omega_hat g')) at (u, v),
        evaluating g, omega_hat and g' once each.  The Hopf coefficient is
        dz^2-normalized: the chart's (L - N) - 2iM is 4 times it."""
        z = complex(u) + 1j * complex(v)
        g = complex(self.data.g(z))
        w = complex(self.data.omega_hat(z))
        return (1.0 - abs(g) ** 2) ** 2 * abs(w) ** 2, -w * complex(self.g_prime(z))

    def chart(self, grid: GridSpec) -> "SpacelikeChart":
        """The chart; a node is masked where the conformal factor is at
        most 1e-300 (on |g| = 1 or at a zero of omega_hat)."""
        nodes = (
            None if factor <= 1e-300 else _node(factor, hopf)
            for factor, hopf in _at_nodes(grid, self._factor_and_hopf)
        )
        return chart_from_nodes(grid, nodes, SpacelikeChart)

    def principal_line_field(self) -> FlowField:
        """The (unoriented) principal direction line field.

        The eigen-line of [[a, M], [M, -a]] with a = (L-N)/2 sits at angle
        theta = atan2(M, a)/2; the returned representative is
        (cos theta, sin theta), defined up to sign as a line field.  The
        field evaluates the Hopf coefficient -(omega_hat g') inline: Horner's
        rule over the coefficients of omega_hat and g', as `Poly.__call__`
        runs it at a complex point.
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

        return FlowField(ev, kind=LINE_FIELD, name="principal_lines")


def _node(factor: float, hopf: complex):
    """(factor, L, M, N) from the conformal factor and the Hopf coefficient."""
    w = 4.0 * hopf  # (L - N) - 2iM
    L = w.real / 2.0
    return factor, L, -w.imag / 2.0, -L


def _at_nodes(grid: GridSpec, fn):
    """Iterator over fn(u, v) at every node, row-major."""
    v_nodes = grid.v_nodes()
    return (fn(u, v) for u in grid.u_nodes() for v in v_nodes)


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
        square = np.array([t**2 for t in (L - N).tolist()], dtype=float)
        D = (square + 4 * M * M) * exp_each(-4.0, sigma)
        tau = 1e-9 * (1.0 + np.abs(L) + np.abs(N) + np.abs(M))
        umbilic = (np.abs(L - N) <= tau) & (np.abs(2.0 * M) <= tau)
        off = ~umbilic
        a, b = ((L - N) / 2.0)[off].tolist(), M[off].tolist()
        theta = [0.5 * math.atan2(y, x) for y, x in zip(b, a)]
        c, s = (np.array(list(map(f, theta)), dtype=float)
                for f in (math.cos, math.sin))
        dirs = np.full(L.shape + (2, 2), np.nan)
        dirs[off] = np.stack([c, s, -s, c], -1).reshape(-1, 2, 2)
        hypot = np.array(list(map(math.hypot, a, b)), dtype=float)
        r = exp_each(-2.0, sigma[off]) * hypot
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
