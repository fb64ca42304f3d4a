"""Dense univariate polynomials with coefficient-type-agnostic arithmetic.

Coefficients are stored ascending by degree.  With ``fractions.Fraction``
coefficients every operation here (including antidifferentiation) is exact,
which the closed-form surface generation relies on; ``float`` and ``complex``
coefficients work with the same code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class Poly:
    """Immutable dense polynomial ``c[0] + c[1] t + ... + c[n] t**n``."""

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs: Sequence = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "_floats", None)  # see float_coeffs

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- basics ---------------------------------------------------------

    def __call__(self, t):
        """Horner's rule from acc = 0.  At a float t with real coefficients
        it runs over `float_coeffs()`, and the value is bit for bit the one
        over the exact coefficients: there every step `acc * t + c` has a
        float `acc * t`, and `float + Fraction` (like `float + int`) is
        computed as `float(a) + float(c)`, so each coefficient was already
        rounded to a double at every step.  A coefficient outside the
        double range raises OverflowError at every float t either way."""
        coeffs = reversed(self.coeffs)
        if isinstance(t, float):
            try:
                coeffs = self.float_coeffs()
            except TypeError:  # complex coefficients
                pass
        acc = 0
        for c in coeffs:
            acc = acc * t + c
        return acc

    def float_coeffs(self) -> tuple:
        """float(c) of every coefficient, highest degree first (the order
        Horner's rule consumes them), converted on the first call.  Raises
        OverflowError (on every call) when a coefficient lies outside the
        double range, and TypeError when one is complex."""
        if self._floats is None:
            floats = tuple(float(c) for c in reversed(self.coeffs))
            object.__setattr__(self, "_floats", floats)
        return self._floats

    def table(self, points) -> list:
        """[self(t) for t in points], each value equal (==, same type) to self(t).

        With int/Fraction coefficients a_i at Fraction points, B the common
        denominator of the coefficients and D that of the points, t = n/D and

            p(t) = (sum_i a_i B D^(deg-i) n^i) / (B D^deg),

        whose numerator is a Horner loop over ints: a value costs one gcd (in
        Fraction) instead of about two per Horner step.  Other coefficients
        or points, and the zero polynomial, go through `self(t)`."""
        if not (
            self.coeffs and _exact(self.coeffs) and all(isinstance(t, Fraction) for t in points)
        ):
            return [self(t) for t in points]
        B = math.lcm(*(c.denominator for c in self.coeffs))
        D = math.lcm(*(t.denominator for t in points))
        # a_i B D^(deg-i), highest degree first
        lead, *rest = [
            c.numerator * (B // c.denominator) * D**k
            for k, c in enumerate(reversed(self.coeffs))
        ]
        den = B * D**self.degree
        out = []
        for t in points:
            n = t.numerator * (D // t.denominator)
            acc = lead
            for a in rest:
                acc = acc * n + a
            out.append(Fraction(acc, den))
        return out

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
        if _exact(self.coeffs) and _exact(other.coeffs):
            return _exact_product(self.coeffs, other.coeffs)
        # float and complex coefficients: the bits depend on this order
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for k, b in enumerate(other.coeffs):
                out[i + k] = out[i + k] + a * b
        return Poly(out)

    __rmul__ = __mul__

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


def _exact(coeffs) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in coeffs)


def _exact_product(a: Sequence, b: Sequence) -> Poly:
    """The schoolbook product of two int/Fraction coefficient lists, value
    and type: each factor is scaled to its common denominator and the
    integer lists are convolved, so a coefficient costs one Fraction (one
    gcd) instead of one per term.  As in the schoolbook sum, a coefficient
    is a Fraction when a Fraction enters one of its terms, else an int."""
    A = math.lcm(*(c.denominator for c in a))
    B = math.lcm(*(c.denominator for c in b))
    out = [0] * (len(a) + len(b) - 1)
    frac = [False] * len(out)
    for factor, other in ((a, b), (b, a)):
        for i, c in enumerate(factor):
            if isinstance(c, Fraction):
                frac[i : i + len(other)] = [True] * len(other)
    ints_b = [c.numerator * (B // c.denominator) for c in b]
    for i, c in enumerate(a):
        x = c.numerator * (A // c.denominator)
        if x:
            for k, y in enumerate(ints_b, i):
                out[k] += x * y
    den = A * B
    return Poly([Fraction(c, den) if f else c // den for c, f in zip(out, frac)])


def _divide(c, k: int):
    if isinstance(c, int):
        return Fraction(c, k)
    return c / k
