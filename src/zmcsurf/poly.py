"""Dense univariate polynomials with coefficient-type-agnostic arithmetic.

Coefficients are stored ascending by degree.  With ``fractions.Fraction``
coefficients every operation here (including antidifferentiation) is exact,
which the closed-form surface generation relies on; ``float`` and ``complex``
coefficients work with the same code paths.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class Poly:
    """Immutable dense polynomial ``c[0] + c[1] t + ... + c[n] t**n``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basics ---------------------------------------------------------

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for k, b in enumerate(other.coeffs):
                out[i + k] = out[i + k] + a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly([1])
        for _ in range(k):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "Poly":
        """Primitive with value 0 at t = 0; exact for Fraction coefficients."""
        out = [0]
        for k, c in enumerate(self.coeffs):
            out.append(_divide(c, k + 1))
        return Poly(out)

    def scale_arg(self, a) -> "Poly":
        """The polynomial t -> p(a*t)."""
        out, power = [], 1
        for c in self.coeffs:
            out.append(c * power)
            power = power * a
        return Poly(out)

    # -- structure at the origin -------------------------------------------

    def trailing_order(self):
        """Order of vanishing at 0, or None for the zero polynomial."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return None

    def deflate(self, m: int) -> "Poly":
        """Divide by t**m; requires the first m coefficients to vanish."""
        if any(c != 0 for c in self.coeffs[:m]):
            raise ValueError("polynomial is not divisible by t**%d" % m)
        return Poly(self.coeffs[m:])


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly([value])


def _divide(c, k: int):
    if isinstance(c, int):
        return Fraction(c, k)
    return c / k

