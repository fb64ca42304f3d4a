"""Dense univariate polynomials with coefficient-type-agnostic arithmetic.

Coefficients are stored ascending by degree.  With ``fractions.Fraction``
coefficients every operation here (including antidifferentiation) is exact,
which the closed-form surface generation relies on; ``float`` and ``complex``
coefficients work with the same code paths.
`horner` is the one Horner loop of every value (`Poly.__call__`,
`numerators`, `table`), and `_over_lcm` the one common-denominator scaling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np


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
        double range raises OverflowError at every float t either way.  A
        float ndarray takes the same steps from +0.0, bit for bit each entry's
        call, with numpy's IEEE `*` and `+`."""
        coeffs = reversed(self.coeffs)
        if isinstance(t, (float, np.ndarray)):
            try:
                coeffs = self.float_coeffs()
            except TypeError:  # complex coefficients
                pass
        return horner(coeffs, t, np.zeros(t.shape) if isinstance(t, np.ndarray) else 0)

    def float_coeffs(self) -> tuple:
        """float(c) of every coefficient, highest degree first (the order
        Horner's rule consumes them), converted on the first call.  Raises
        OverflowError (on every call) when a coefficient lies outside the
        double range, and TypeError when one is complex."""
        if self._floats is None:
            floats = tuple(float(c) for c in reversed(self.coeffs))
            object.__setattr__(self, "_floats", floats)
        return self._floats

    def at_complex(self, x, y) -> tuple:
        """(real, imaginary) arrays of complex(self(complex(a, b))), bit for
        bit, at the pairs (a, b) of float arrays x, y: CPython's complex
        Horner steps, where the int 0 it starts from is 0j and a real c
        is added as complex(c), adding 0.0 to the imaginary part."""
        re = im = np.zeros(np.broadcast(x, y).shape)
        for c in map(complex, reversed(self.coeffs)):
            re, im = re * x - im * y + c.real, re * y + im * x + c.imag
        return re, im

    def numerators(self, points):
        """(ints, den) with self(t) == ints[k] / den at the k-th point and
        den > 0, or None unless the coefficients a_i are ints or Fractions
        and the points Fractions.  With B the common denominator of the a_i
        and t = n/D (`Points.scaled`), p(t) is
        (sum_i a_i B D^(deg-i) n^i) / (B D^deg), `horner` over ints at each
        n (zeros over 1 for the zero polynomial)."""
        points = points if isinstance(points, Points) else Points(points)
        if not (_exact(self.coeffs) and (scaled := points.scaled)):
            return None
        (nums, D), (ints, B) = scaled, _over_lcm(self.coeffs)
        # a_i B D^(deg-i), highest degree first
        ints = [a * D**k for k, a in enumerate(reversed(ints))]
        return [horner(ints, n) for n in nums], B * D ** max(self.degree, 0)

    @np.errstate(all="ignore")
    def table(self, points):
        """[self(t) for t in points], bit for bit; at Fraction points with a float
        coefficient and no complex one, Horner's rule is exact (`numerators`) up
        to the first float c, where `Fraction + float` rounds acc t once, and
        each later step (`horner`) is acc * float(t) + float(c) on the whole
        table.  The first point is also called, so that an OverflowError is the call's."""
        coeffs, points = self.coeffs[::-1], points if isinstance(points, Points) else Points(points)
        k = next((i for i, c in enumerate(coeffs) if isinstance(c, float)), None)
        real = all(isinstance(c, (int, Fraction, float)) for c in coeffs)
        if k is None or not real or not points or not points.scaled:
            return [self(t) for t in points]
        self(points[0])
        (nums, D), (ints, den) = points.scaled, Poly(coeffs[:k][::-1]).numerators(points)
        acc = np.array([a * n / (den * D) for a, n in zip(ints, nums)]) + coeffs[k]
        t = np.array([n / D for n in nums]) if coeffs[k + 1:] else None
        return horner(map(float, coeffs[k + 1:]), t, acc)

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


class Points(list):
    """Points whose `scaled` form is formed once: (nums, D), t_k = nums[k] / D
    over the lcm D of the denominators, or None unless all are Fractions."""

    @cached_property
    def scaled(self):
        if all(isinstance(t, Fraction) for t in self):
            return _over_lcm(self)


def horner(coeffs, t, acc=0):
    """Horner's rule from acc over coeffs, highest degree first: the steps
    acc = acc * t + c in this order, so the bits are those of their types."""
    for c in coeffs:
        acc = acc * t + c
    return acc


def _over_lcm(values) -> tuple:
    """(ints, D), values[k] == ints[k] / D, D the lcm of their denominators."""
    D = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (D // v.denominator) for v in values], D


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
    (ints_a, A), (ints_b, B) = _over_lcm(a), _over_lcm(b)
    out = [0] * (len(a) + len(b) - 1)
    frac = [False] * len(out)
    for factor, other in ((a, b), (b, a)):
        for i, c in enumerate(factor):
            if isinstance(c, Fraction):
                frac[i : i + len(other)] = [True] * len(other)
    for i, x in enumerate(ints_a):
        if x:
            for k, y in enumerate(ints_b, i):
                out[k] += x * y
    den = A * B
    return Poly([Fraction(c, den) if f else c // den for c, f in zip(out, frac)])


def _divide(c, k: int):
    if isinstance(c, int):
        return Fraction(c, k)
    return c / k
