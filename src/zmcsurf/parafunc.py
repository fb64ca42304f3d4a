"""Para-holomorphic functions in idempotent-split form.

A smooth function h(z) = A(u,v) + j B(u,v) satisfying the para-Cauchy-
Riemann equations A_u = B_v, A_v = B_u is equivalent to a pair of
one-variable functions: h = EPS1*phi_plus(x) + EPSM1*phi_minus(y), where

    x = (u + v)/2,   y = (u - v)/2.

This module fixes that half-sum argument convention once and for all; the
full-sum projections u+v, u-v of the raw idempotent split differ from the
branch arguments by the factor 2, and every conversion is explicit.

A branch is a polynomial or a smooth callable carrying its exact Taylor
polynomial at 0, so branch orders at the base point are decided exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import each
from .paracomplex import IdempotentPair, ParaComplex, recompose
from .poly import Poly


class UnsupportedBranch(ValueError):
    """Operation needs analytic data the branch does not carry."""


def _halve(t):
    # exact halving for ints/Fractions, plain division otherwise
    if isinstance(t, int):
        return Fraction(t, 2)
    return t / 2


@dataclass(frozen=True)
class Branch:
    """One real branch of a para-holomorphic function.

    Either a polynomial (exact arithmetic) or a smooth callable carrying an
    optional derivative evaluator and its exact Taylor polynomial at 0,
    `taylor`: the callable minus `taylor` is flat at 0, so every order of
    vanishing is read off a polynomial exactly.  None means the Taylor
    polynomial is unknown (a Gauss-Legendre primitive, say).  `arrays` is fn
    at every entry of a float64 array, bit for bit float(fn(t)) at each float
    t, raising where fn raises (any one error where points raise several):
    exp_flat has one, and so has what `+`, `*` and `compose_scale` build from
    branches that have one; derivatives and primitives have none.
    """

    poly: Optional[Poly] = None
    fn: Optional[Callable] = None
    dfn: Optional[Callable] = None
    taylor: Optional[Poly] = None
    arrays: Optional[Callable] = None

    def __post_init__(self):
        if (self.poly is None) == (self.fn is None):
            raise ValueError("exactly one of poly/fn must be given")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_poly(cls, coeffs) -> "Branch":
        p = coeffs if isinstance(coeffs, Poly) else Poly(coeffs)
        return cls(poly=p)

    @classmethod
    def constant(cls, c) -> "Branch":
        return cls(poly=Poly([c]))

    @classmethod
    def exp_flat(cls) -> "Branch":
        """exp(-1/t**2), extended by 0 at t = 0; flat at 0, so its Taylor
        polynomial there is zero."""

        def f(t):
            t = float(t)
            if t == 0.0:
                return 0.0
            return math.exp(-1.0 / (t * t))

        def df(t):
            t = float(t)
            if t == 0.0:
                return 0.0
            return 2.0 * math.exp(-1.0 / (t * t)) / t**3

        @np.errstate(all="ignore")
        def arrays(t):  # f divides by t * t = 0 at t != 0; exp(-1 / 0.0) = 0.0
            if ((t * t == 0) & (t != 0)).any():
                raise ZeroDivisionError("float division by zero")
            return each(math.exp, -1.0 / (t * t))

        return cls(fn=f, dfn=df, taylor=Poly(), arrays=arrays)

    # -- evaluation ----------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.poly is not None

    def __call__(self, t):
        if self.poly is not None:
            return self.poly(t)
        return self.fn(t)

    def table(self, points) -> list:
        """[self(t) for t in points].  A polynomial, and a callable with a
        `table` of its own (a Gauss-Legendre primitive), table themselves."""
        table = getattr(self.fn, "table", None) or getattr(self.poly, "table", None)
        return table(points) if table else [self(t) for t in points]

    # -- algebra -------------------------------------------------------------

    def __add__(self, other: "Branch") -> "Branch":
        if self.is_polynomial and other.is_polynomial:
            return Branch(poly=self.poly + other.poly)
        f, g = self._as_callable(), other._as_callable()
        return Branch(
            fn=lambda t: f.fn(t) + g.fn(t),
            dfn=_maybe(lambda t: f.dfn(t) + g.dfn(t), f.dfn and g.dfn),
            taylor=_known(Poly.__add__, f.taylor, g.taylor),
            arrays=_maybe(lambda t: f.arrays(t) + g.arrays(t), f.arrays and g.arrays),
        )

    def __mul__(self, other) -> "Branch":
        if not isinstance(other, Branch):
            if self.is_polynomial:
                return Branch(poly=self.poly * other)
            f = self
            return Branch(
                fn=lambda t: f.fn(t) * other,
                dfn=_maybe(lambda t: f.dfn(t) * other, f.dfn),
                taylor=_known(lambda p: p * other, f.taylor),
                # float * Fraction, like float * int, is float(a) * float(b)
                arrays=_maybe(lambda t: f.arrays(t) * float(other), f.arrays),
            )
        if self.is_polynomial and other.is_polynomial:
            return Branch(poly=self.poly * other.poly)
        f, g = self._as_callable(), other._as_callable()
        return Branch(
            fn=lambda t: f.fn(t) * g.fn(t),
            dfn=_maybe(
                lambda t: f.dfn(t) * g.fn(t) + f.fn(t) * g.dfn(t),
                f.dfn and g.dfn,
            ),
            taylor=_known(Poly.__mul__, f.taylor, g.taylor),
            arrays=_maybe(lambda t: f.arrays(t) * g.arrays(t), f.arrays and g.arrays),
        )

    __rmul__ = __mul__

    def __neg__(self) -> "Branch":
        return self * -1

    def __sub__(self, other: "Branch") -> "Branch":
        return self + (-other)

    def _as_callable(self) -> "Branch":
        if not self.is_polynomial:
            return self
        p = self.poly
        # `Poly.__call__` at a float: Horner from 0 over float_coeffs()
        horner = lambda t: functools.reduce(lambda acc, c: acc * t + c, p.float_coeffs(),
                                            np.zeros_like(t))
        return Branch(fn=p, dfn=p.derivative(), taylor=p, arrays=horner)

    def _taylor(self) -> Poly:
        """The polynomial whose orders at 0 are the branch's."""
        if self.is_polynomial:
            return self.poly
        if self.taylor is None:
            raise UnsupportedBranch("callable branch has no Taylor polynomial")
        return self.taylor

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "Branch":
        if self.is_polynomial:
            return Branch(poly=self.poly.derivative())
        if self.dfn is None:
            raise UnsupportedBranch("callable branch has no derivative evaluator")
        return Branch(fn=self.dfn, taylor=_known(Poly.derivative, self.taylor))

    def compose_scale(self, a) -> "Branch":
        """The branch t -> f(a*t)."""
        if self.is_polynomial:
            return Branch(poly=self.poly.scale_arg(a))
        f = self
        return Branch(
            fn=lambda t: f.fn(a * t),
            dfn=_maybe(lambda t: a * f.dfn(a * t), f.dfn),
            taylor=_known(lambda p: p.scale_arg(a), f.taylor),
            arrays=_maybe(lambda t: f.arrays(float(a) * t), f.arrays),
        )

    # -- jets and order of vanishing ------------------------------------------

    def jets(self, cap: int) -> list:
        """Derivatives d^k f(0)/dt^k for k = 0..cap, exact."""
        p = self._taylor()
        return [p.coefficient(k) * math.factorial(k) for k in range(cap + 1)]

    def order_at_zero(self, cap: int) -> "BranchOrder":
        """First non-vanishing Taylor order at 0, bounded by cap, decided
        exactly on the Taylor polynomial.  Only the zero polynomial branch
        has exact infinite order: a callable whose Taylor polynomial is zero
        may still be a non-zero flat function."""
        p = self._taylor()
        m = p.trailing_order()
        if m is None or m > cap:
            return BranchOrder(None, 0, m is None and self.is_polynomial, cap)
        return BranchOrder(m, p.coefficient(m), False, cap)


def _maybe(fn, condition):
    return fn if condition else None


def _known(op, *taylors):
    """op(*taylors), or None when a Taylor polynomial is unknown."""
    return None if any(p is None for p in taylors) else op(*taylors)


@dataclass(frozen=True)
class BranchOrder:
    """Order of vanishing of one branch at 0."""

    order: Optional[int]
    coeff: object
    exact_infinite: bool
    cap: int

    @property
    def finite(self) -> bool:
        return self.order is not None

    @property
    def label(self) -> str:
        if self.order is not None:
            return str(self.order)
        return "inf" if self.exact_infinite else f">={self.cap}"


@dataclass(frozen=True)
class SplitOrders:
    plus: BranchOrder
    minus: BranchOrder
    cap: int


@dataclass(frozen=True)
class NormalForm:
    """Factorization data phi_s(t) = t**m_s * psi_s(t) at the origin."""

    orders: SplitOrders
    psi_plus_0: object
    psi_minus_0: object
    psi_plus: Optional[Branch]
    psi_minus: Optional[Branch]

    @property
    def finite(self) -> bool:
        return self.orders.plus.finite and self.orders.minus.finite


@dataclass(frozen=True)
class ParaFunction:
    """h(z) = EPS1*plus(x) + EPSM1*minus(y) with x=(u+v)/2, y=(u-v)/2."""

    plus: Branch
    minus: Branch

    #: branch arguments are the half-sums; full-sum data must be rescaled
    convention = "half-sum"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_branches(cls, plus, minus) -> "ParaFunction":
        as_branch = lambda b: b if isinstance(b, Branch) else Branch.from_poly(b)
        return cls(as_branch(plus), as_branch(minus))

    @classmethod
    def from_z_poly(cls, coeffs: Sequence) -> "ParaFunction":
        """From a polynomial in z with paracomplex (or real) coefficients.

        z**k projects to (u+v)**k = (2x)**k, so the branch picks up 2**k.
        """
        plus, minus = [], []
        for k, c in enumerate(coeffs):
            if not isinstance(c, ParaComplex):
                c = ParaComplex(c, 0)
            plus.append(c.proj(1) * 2**k)
            minus.append(c.proj(-1) * 2**k)
        return cls(Branch.from_poly(plus), Branch.from_poly(minus))

    @classmethod
    def constant(cls, c) -> "ParaFunction":
        return cls.from_z_poly([c])

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "ParaFunction":
        return cls.from_z_poly([0] * k + [coeff])

    @classmethod
    def wedge(cls, phi1: Branch, phi2: Branch) -> "ParaFunction":
        """Para-holomorphic glue of two one-variable functions.

        The glued function has value parts (phi1(u+v) +- phi2(u-v))/2; its
        split branches in the half-sum convention are phi_i(2*arg).
        """
        return cls(phi1.compose_scale(2), phi2.compose_scale(2))

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, z: ParaComplex) -> ParaComplex:
        x = _halve(z.re + z.im)
        y = _halve(z.re - z.im)
        return recompose(IdempotentPair(self.plus(x), self.minus(y)))

    def evaluate_uv(self, u, v) -> ParaComplex:
        return self.evaluate(ParaComplex(u, v))

    def n2_at(self, u, v):
        """N2(h(z)) = plus(x) * minus(y); exact on polynomial branches."""
        return self.plus(_halve(u + v)) * self.minus(_halve(u - v))

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "ParaFunction") -> "ParaFunction":
        return ParaFunction(self.plus + other.plus, self.minus + other.minus)

    def __mul__(self, other) -> "ParaFunction":
        if isinstance(other, ParaFunction):
            return ParaFunction(self.plus * other.plus, self.minus * other.minus)
        return ParaFunction(self.plus * other, self.minus * other)

    __rmul__ = __mul__

    def __neg__(self) -> "ParaFunction":
        return ParaFunction(-self.plus, -self.minus)

    def __sub__(self, other: "ParaFunction") -> "ParaFunction":
        return self + (-other)

    # -- calculus ---------------------------------------------------------------

    def derivative(self) -> "ParaFunction":
        """dh/dz; branchwise this is phi_s'(arg)/2 by the half-sum chain rule."""
        half = Fraction(1, 2)
        return ParaFunction(
            self.plus.derivative() * half, self.minus.derivative() * half
        )

    def split_orders(self, cap: int = 16) -> SplitOrders:
        return SplitOrders(
            self.plus.order_at_zero(cap), self.minus.order_at_zero(cap), cap
        )

    def normal_form(self, cap: int = 16) -> NormalForm:
        orders = self.split_orders(cap)
        psi_p = psi_m = None
        if orders.plus.finite and self.plus.is_polynomial:
            psi_p = Branch(poly=self.plus.poly.deflate(orders.plus.order))
        if orders.minus.finite and self.minus.is_polynomial:
            psi_m = Branch(poly=self.minus.poly.deflate(orders.minus.order))
        return NormalForm(
            orders=orders,
            psi_plus_0=orders.plus.coeff,
            psi_minus_0=orders.minus.coeff,
            psi_plus=psi_p,
            psi_minus=psi_m,
        )
