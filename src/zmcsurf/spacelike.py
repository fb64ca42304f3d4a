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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import LINE_FIELD, FlowField, WindingResult, winding_index
from .geometry import GridSpec
from .poly import Poly
from .weierstrass import minkowski_dot


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
        v_nodes = grid.v_nodes()
        return (self.evaluate(u, v) for u in grid.u_nodes() for v in v_nodes)

    # -- analytic first/second-order data ----------------------------------------

    def conformal_factor(self, u, v) -> float:
        z = complex(u) + 1j * complex(v)
        g = complex(self.data.g(z))
        w = complex(self.data.omega_hat(z))
        return (1.0 - abs(g) ** 2) ** 2 * abs(w) ** 2

    def normal(self, u, v) -> np.ndarray:
        z = complex(u) + 1j * complex(v)
        g = complex(self.data.g(z))
        den = 1.0 - abs(g) ** 2
        if den == 0.0:
            raise ZeroDivisionError("normal undefined where |g| = 1")
        return np.array([2 * g.real / den, 2 * g.imag / den, (1 + abs(g) ** 2) / den])

    def hopf(self, u, v) -> complex:
        """dz^2-normalized Hopf coefficient -(omega_hat g'); the raw chart
        assembly (L - N) - 2iM equals 4 times this."""
        z = complex(u) + 1j * complex(v)
        return -complex(self.data.omega_hat(z)) * complex(self.g_prime(z))

    def forms(self, u, v):
        """(sigma, L, M, N) of the chart at (u, v)."""
        factor = self.conformal_factor(u, v)
        if factor <= 0.0:
            raise ZeroDivisionError("chart degenerate here")
        w = 4.0 * self.hopf(u, v)  # (L - N) - 2iM
        L = w.real / 2.0
        M = -w.imag / 2.0
        return 0.5 * math.log(factor), L, M, -L

    def chart(self, grid: GridSpec) -> "SpacelikeChart":
        nu, nv = grid.nu, grid.nv
        sigma = np.full((nu, nv), np.nan)
        L = np.zeros((nu, nv))
        M = np.zeros((nu, nv))
        N = np.zeros((nu, nv))
        mask = np.zeros((nu, nv), dtype=bool)
        for i, u in enumerate(grid.u_nodes()):
            for j, v in enumerate(grid.v_nodes()):
                factor = self.conformal_factor(u, v)
                if factor <= 1e-300:
                    continue
                mask[i, j] = True
                s, l, m, n = self.forms(u, v)
                sigma[i, j], L[i, j], M[i, j], N[i, j] = s, l, m, n
        return SpacelikeChart(grid, sigma, L, M, N, mask, self)

    def principal_line_field(self) -> FlowField:
        """The (unoriented) principal direction line field.

        The eigen-line of [[a, M], [M, -a]] with a = (L-N)/2 sits at angle
        theta = atan2(M, a)/2; the returned representative is
        (cos theta, sin theta), defined up to sign as a line field.
        """

        def ev(u, v):
            _sigma, L, M, N = self.forms(u, v)
            a = (L - N) / 2.0
            if a == 0.0 and M == 0.0:
                return (0.0, 0.0)  # umbilic: winding guard will reject
            theta = 0.5 * math.atan2(M, a)
            return (math.cos(theta), math.sin(theta))

        return FlowField(ev, kind=LINE_FIELD, name="principal_lines")


@dataclass
class SpacelikeChart:
    """Per-node (sigma, L, M, N) for a space-like isothermal chart."""

    grid: GridSpec
    sigma: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    mask: np.ndarray
    source: Optional[SpacelikePatch] = None

    def classify(self) -> np.ndarray:
        """Node kinds: every unmasked node is "umbilic" or "positive";
        quasi-umbilic and negative kinds are impossible here."""
        kinds = np.full((self.grid.nu, self.grid.nv), "masked", dtype="<U14")
        for i in range(self.grid.nu):
            for j in range(self.grid.nv):
                if not self.mask[i, j]:
                    continue
                a = self.L[i, j] - self.N[i, j]
                b = 2.0 * self.M[i, j]
                tau = 1e-9 * (
                    1.0 + abs(self.L[i, j]) + abs(self.N[i, j]) + abs(self.M[i, j])
                )
                umb = abs(a) <= tau and abs(b) <= tau
                kinds[i, j] = "umbilic" if umb else "positive"
        return kinds


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


def numeric_first_forms(patch: SpacelikePatch, u, v, h: float = 1e-5):
    """Finite-difference (E, F, G); independent oracle for the metric."""
    f = patch.evaluate
    fu = (f(u + h, v) - f(u - h, v)) / (2 * h)
    fv = (f(u, v + h) - f(u, v - h)) / (2 * h)
    return (
        minkowski_dot(fu, fu),
        minkowski_dot(fu, fv),
        minkowski_dot(fv, fv),
    )


def numeric_second_forms(patch: SpacelikePatch, u, v, h: float = 1e-4):
    """Finite-difference (L, M, N) against the analytic normal; oracle."""
    f = patch.evaluate
    n = patch.normal(u, v)
    f0 = f(u, v)
    fuu = (f(u + h, v) - 2 * f0 + f(u - h, v)) / h**2
    fvv = (f(u, v + h) - 2 * f0 + f(u, v - h)) / h**2
    fuv = (
        f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)
    ) / (4 * h**2)
    return (
        minkowski_dot(fuu, n),
        minkowski_dot(fuv, n),
        minkowski_dot(fvv, n),
    )
