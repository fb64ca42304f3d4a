"""Split-complex (paracomplex) numbers z = u + j v with j**2 = +1.

The ring has zero divisors: z is non-invertible exactly when u**2 = v**2,
i.e. on the two null lines v = u and v = -u.  Every element splits over the
idempotents e1 = (1+j)/2 and e_m1 = (1-j)/2 into a pair of independent real
coordinates (the null coordinates), which is what makes the whole calculus
in this package work.

Components may be any exact or floating scalar type supporting +, -, *
(``fractions.Fraction`` keeps everything exact; ``float`` does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

Scalar = Union[int, float, Fraction]


@dataclass(frozen=True)
class ParaComplex:
    """A number u + j*v with j**2 = +1. Immutable."""

    re: Scalar
    im: Scalar

    # -- ring structure -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return ParaComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return ParaComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return ParaComplex(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        # (a + jb)(c + jd) = (ac + bd) + j(ad + bc)   since j**2 = 1
        return ParaComplex(
            self.re * other.re + self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.n2()
        if n == 0:
            raise ZeroDivisionError("division by a null (non-invertible) element")
        c = other.conj()
        num = self * c
        return ParaComplex(num.re / n, num.im / n)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers are defined")
        out = ParaComplex(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- split structure ----------------------------------------------------

    def conj(self) -> "ParaComplex":
        return ParaComplex(self.re, -self.im)

    def n2(self) -> Scalar:
        """Squared-norm analogue u**2 - v**2; multiplicative, but indefinite."""
        return self.re * self.re - self.im * self.im

    def proj(self, s: int) -> Scalar:
        """Null-coordinate projection u + s*v for s in {+1, -1}."""
        if s not in (1, -1):
            raise ValueError("projection index must be +1 or -1")
        return self.re + s * self.im

    def on_line(self, s: int) -> bool:
        """True iff z lies on the null line {u - s*v = 0}."""
        if s not in (1, -1):
            raise ValueError("line index must be +1 or -1")
        return self.re - s * self.im == 0

    def __repr__(self):
        return f"ParaComplex({self.re!r}, {self.im!r})"


def _coerce(value) -> ParaComplex:
    if isinstance(value, ParaComplex):
        return value
    if isinstance(value, (int, float, Fraction)):
        return ParaComplex(value, 0)
    raise TypeError(f"cannot interpret {type(value).__name__} as ParaComplex")


#: The para-imaginary unit and the two idempotents.
J = ParaComplex(0, 1)
EPS1 = ParaComplex(Fraction(1, 2), Fraction(1, 2))
EPSM1 = ParaComplex(Fraction(1, 2), Fraction(-1, 2))


class IdempotentPair(NamedTuple):
    """Null coordinates of a paracomplex number: (u+v, u-v)."""

    pi1: Scalar
    pim1: Scalar


def n2(z: ParaComplex) -> Scalar:
    return z.n2()


def decompose(z: ParaComplex) -> IdempotentPair:
    """Split z over the idempotents: z = pi1*EPS1 + pim1*EPSM1."""
    return IdempotentPair(z.proj(1), z.proj(-1))


def recompose(pair: IdempotentPair) -> ParaComplex:
    """Inverse of :func:`decompose`; exact in the representation."""
    p, q = pair
    half = Fraction(1, 2)
    if isinstance(p, float) or isinstance(q, float):
        half = 0.5
    return ParaComplex((p + q) * half, (p - q) * half)


def from_projections(pi1: Scalar, pim1: Scalar) -> ParaComplex:
    return recompose(IdempotentPair(pi1, pim1))
