"""Curvature-line flows: winding indices, perpendicular flows, streamlines.

The index of an isolated singular point of a plane vector field is computed
as the winding number of the field along a small circle, with sampling
adequacy guards.  Unoriented line fields (needed for space-like principal
directions) are handled by angle doubling and yield half-integer indices.

Fields given in null-coordinate components a d/dx + b d/dy are converted to
(u,v) components (a+b, a-b) evaluated at x=(u+v)/2, y=(u-v)/2.  This acts on
both the argument and the components (a conjugation), and a conjugation by
any invertible linear map preserves the winding number even when the map is
orientation-reversing (the two orientation signs cancel), so no extra sign
convention is needed.

The umbilic eigenfields (`umbilic.eigenfields`) run Horner's rule over
`Poly.float_coeffs()`, bit for bit `Poly.__call__` (see its docstring), and
the loops here keep the bits of the scalar loops they replaced
(`tests/oracles.py`): each float operation is the same IEEE operation on the
same operands in the same order.  `math.hypot`, `atan2`, `cos`, `sin`,
`remainder` and Python's `**` are never swapped for numpy's, which round
differently: with numpy 2.4 on x86-64, `np.hypot` differs from `math.hypot`
in about 0.6% of random pairs in [-1, 1]^2, and `np.power(x, 3)` from
`x**3` in about 3% of samples.  `streamlines`, where each step needs the
last, runs one flat loop for both field kinds: the four RK4 stages are
written out, one `FlowField.evaluator` call each, and a sample is divided
by its norm times the sign (exact: `p / -n == -(p / n)`).  A
winding circle is evaluated as arrays through `FlowField.arrays`, which
the built-in fields have: numpy does `+ - * /` and `sqrt`, `geometry.each`
maps the other calls over the samples, and `np.add.accumulate` sums the
turning in loop order (`np.sum` sums pairwise).  An array pass's
OverflowError ends the winding.  A field without an array form goes through
the per-sample loop, where the first sample that raises decides the error.

Fields given one `Circles` (`Circles.share`) share their circles: the cos
and sin of the sample angles are formed once per sample count, and an array
form's (p, q) once per circle.  A `Swapped` form reads, and then drops, its
base's pass, as X2 of `umbilic.eigenfields` reads X1's (X1 = (p + q, -p + q)
and X2 = (-p + q, p + q), bit for bit).  `atan2` runs once per field and
circle, and each field keeps its own retries.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .geometry import each

VECTOR_FIELD = "vector_field"
LINE_FIELD = "line_field"
_CHUNK = 4096  # samples per array call of `Circles`


class WindingError(RuntimeError):
    """Winding computation failed its numerical guards."""


@dataclass(frozen=True)
class FlowField:
    """A plane field with one marked singular point.

    kind "vector_field": oriented, integer index.
    kind "line_field": defined only up to sign, half-integer index.
    The evaluator returns (p, q), each a Python float, int or np.float64;
    `streamlines` takes them as they are, with no `float()`.
    """

    evaluator: Callable[[float, float], tuple]
    kind: str = VECTOR_FIELD
    singular_point: tuple = (0.0, 0.0)
    name: str = ""
    # optional: (p, q) at float arrays (u, v), bit for bit the evaluator's,
    # NaN where it raises ValueError; OverflowError may come from any sample
    arrays: Optional[Callable] = None
    circles: Optional["Circles"] = None  # shared with other fields (`Circles.share`)

    def __call__(self, u: float, v: float):
        return self.evaluator(u, v)


def perpendicular(field: FlowField) -> FlowField:
    """Swap the two components; in an isothermal chart this sends a principal
    field to the perpendicular principal field and negates the index."""
    return FlowField(
        Swapped(field.evaluator), kind=field.kind, singular_point=field.singular_point,
        name=field.name + "_perp" if field.name else "",
        arrays=field.arrays and Swapped(field.arrays),
    )


@dataclass(frozen=True)
class Swapped:
    """A field's evaluator or array form with its two components exchanged."""

    base: Callable

    def __call__(self, u, v):
        return tuple(self.base(u, v))[::-1]


class Circles:
    """The sampling circles that the fields given to `share` share (see the
    module docstring); made per measurement, so none outlives a command."""

    def __init__(self):
        self.units, self.passes = {}, {}

    def unit(self, n: int) -> list:
        """(cos t, sin t) at t = 2 pi k / n, k < n, _CHUNK values a pair."""
        if n not in self.units:
            t = np.split(2.0 * math.pi * np.arange(n) / n, range(_CHUNK, n, _CHUNK))
            self.units[n] = [(each(math.cos, c), each(math.sin, c)) for c in t]
        return self.units[n]

    @np.errstate(all="ignore")
    def angles(self, field: FlowField, radius: float, samples: int) -> np.ndarray:
        """The field's angles on the circle, _CHUNK samples an array call; a
        `Swapped` form reads its base's pass and drops it."""
        swap = isinstance(field.arrays, Swapped)
        arrays, (u0, v0) = field.arrays.base if swap else field.arrays, field.singular_point
        key = (arrays, u0, v0, radius, samples)
        if key not in self.passes:
            values = []
            for c, s in self.unit(samples):
                p, q = arrays(u0 + radius * c, v0 + radius * s)
                if not (np.isfinite(p) & np.isfinite(q) & ((p != 0.0) | (q != 0.0))).all():
                    raise _ZeroOnCircle
                values.append((p, q))
            self.passes[key] = values
        values = self.passes.pop(key) if swap else self.passes[key]
        return np.concatenate([each(math.atan2, *(pq if swap else pq[::-1])) for pq in values])

    def share(self, *fields: FlowField) -> tuple:
        """The fields, each given these circles."""
        return tuple(replace(f, circles=self) for f in fields)


@dataclass(frozen=True)
class WindingResult:
    index: float  # integer for vector fields, half-integer for line fields
    radius: float
    samples: int
    max_jump: float

    def __post_init__(self):
        if self.max_jump >= math.pi / 2:
            raise WindingError("sampling adequacy guard violated")


class _ZeroOnCircle(Exception):
    pass


def _accumulate(field: FlowField, radius: float, samples: int):
    """(total turning / doubling, largest jump) of the field's angle over
    `samples` points of the circle (see the module docstring)."""
    two_pi = 2.0 * math.pi
    doubling = 2.0 if field.kind == LINE_FIELD else 1.0
    circles = field.circles or Circles()
    angles = doubling * (circles.angles(field, radius, samples) if field.arrays
                         else _sample_angles(field, radius, circles.unit(samples)))
    jumps = np.roll(angles, -1) - angles
    # remainder(d, 2 pi) is exact, so it is d itself where |d| <= pi
    wrap = np.abs(jumps) > math.pi
    jumps[wrap] = each(math.remainder, jumps[wrap], two_pi)
    total = np.add.accumulate(np.append(0.0, jumps))[-1]  # in loop order
    return float(total) / doubling, float(np.max(np.abs(jumps), initial=0.0))


def _sample_angles(field: FlowField, radius: float, unit: list) -> np.ndarray:
    u0, v0 = field.singular_point
    ev = field.evaluator
    atan2, isfinite = math.atan2, math.isfinite
    angles = []
    for c, s in (cs for cos, sin in unit for cs in zip(cos.tolist(), sin.tolist())):
        try:
            p, q = ev(u0 + radius * c, v0 + radius * s)
        except (ValueError, ZeroDivisionError, FloatingPointError):
            raise _ZeroOnCircle  # undefined counts as inadequate, like a zero
        p, q = float(p), float(q)
        if not (isfinite(p) and isfinite(q)) or (p == 0.0 and q == 0.0):
            raise _ZeroOnCircle
        angles.append(atan2(q, p))
    return np.array(angles)


def winding_index(
    field: FlowField, radius: float = 0.1, samples: int = 2048
) -> WindingResult:
    """Index of the singular point as a winding number.

    Retries with a perturbed radius if the field vanishes on the sampling
    circle (3 times), and with 4x the samples if consecutive angle jumps are
    too large (twice).  Refuses to round when the accumulated angle is not
    within 0.05 of an admissible index value.
    """
    if samples < 720:
        raise ValueError("need at least 720 samples on the circle")
    for r in (radius, radius * 1.0037, radius * 0.9961, radius * 1.0081):
        for n in (samples, 4 * samples, 16 * samples):
            try:
                total, max_jump = _accumulate(field, r, n)
            except _ZeroOnCircle:
                break
            if max_jump < math.pi / 2:
                return _rounded(field, total, r, n, max_jump)
        else:
            raise WindingError("angle jumps stayed too large after resampling")
    raise WindingError("field vanished or was undefined on every sampled circle")


def _rounded(field: FlowField, total, radius, samples, max_jump) -> WindingResult:
    """The result of an adequate pass: total / 2 pi rounded to the nearest
    admissible index, or a WindingError if that is more than 0.05 away."""
    raw = total / (2.0 * math.pi)
    line = field.kind == LINE_FIELD
    nearest = round(2.0 * raw) / 2.0 if line else float(round(raw))
    if abs(raw - nearest) > 0.05:
        raise WindingError(
            f"accumulated winding {raw:.6f} too far from admissible value {nearest}"
        )
    return WindingResult(nearest if line else int(nearest), radius, samples, max_jump)


def streamlines(
    field: FlowField,
    seeds: Sequence[tuple],
    step: float = 1e-3,
    max_len: float = 2.0,
    bounds: Optional[tuple] = None,
) -> list:
    """Fixed-step 4th-order streamline integration of the normalized field.

    Each seed is integrated in both directions; for line fields the sample
    orientation is aligned with the previous step.  Integration stops at the
    chart boundary, at max_len arclength, where the field magnitude drops
    below 1e-10 or is not finite, or where the evaluator raises ValueError,
    ZeroDivisionError or FloatingPointError; OverflowError propagates.
    Returns one polyline (ndarray of points) per seed.

    Both field kinds run one flat loop, told the kind once per march, with
    the four RK4 stages written out and one `suppress` per march.  The
    arithmetic is that of the scalar loop this replaced, in the same order:
    the stage points are `u + (0.5 * step) * k`, the step is
    `(k1 + 2*k2 + 2*k3 + k4) / 6.0`, and norms stay `math.hypot` (see the
    module docstring), so every point keeps its bits.  A sample is divided
    by its norm times the sign, which is exact: `p / -n` is `-(p / n)` in
    IEEE arithmetic.  Missing bounds are infinite, so the march from a NaN
    seed ends after one step.
    """
    line, n_steps, inf = field.kind == LINE_FIELD, int(max_len / step), math.inf
    box = (-inf, inf, -inf, inf) if bounds is None else bounds
    out = []
    for seed in seeds:
        u, v = float(seed[0]), float(seed[1])
        forward = _march(field.evaluator, line, u, v, 1.0, step, n_steps, box)
        backward = _march(field.evaluator, line, u, v, -1.0, step, n_steps, box)
        out.append(np.array(backward[::-1] + [(u, v)] + forward))
    return out


def _march(ev, line, u, v, sign, step, n_steps, bounds) -> list:
    """One march's points after (u, v) (see `streamlines`).  Each sample is
    divided by its norm times the sign; a line sample is then turned to face
    the one before it, and after the first step its sign is 1."""
    (u_min, u_max, v_min, v_max), hypot, inf, half = bounds, math.hypot, math.inf, 0.5 * step
    pts, pu, pv = [], 0.0, 0.0  # a zero dot product: the first sample is not turned
    with suppress(ValueError, ZeroDivisionError, FloatingPointError):
        for _ in range(n_steps):
            p, q = ev(u, v)
            if not 1e-10 <= (n := hypot(p, q)) < inf:
                break
            n *= sign
            a1, b1 = p / n, q / n
            if line and a1 * pu + b1 * pv < 0.0:
                a1, b1 = -a1, -b1
            p, q = ev(u + half * a1, v + half * b1)
            if not 1e-10 <= (n := hypot(p, q)) < inf:
                break
            n *= sign
            a2, b2 = p / n, q / n
            if line and a2 * a1 + b2 * b1 < 0.0:
                a2, b2 = -a2, -b2
            p, q = ev(u + half * a2, v + half * b2)
            if not 1e-10 <= (n := hypot(p, q)) < inf:
                break
            n *= sign
            a3, b3 = p / n, q / n
            if line and a3 * a2 + b3 * b2 < 0.0:
                a3, b3 = -a3, -b3
            p, q = ev(u + step * a3, v + step * b3)
            if not 1e-10 <= (n := hypot(p, q)) < inf:
                break
            n *= sign
            a4, b4 = p / n, q / n
            if line and a4 * a3 + b4 * b3 < 0.0:
                a4, b4 = -a4, -b4
            du = (a1 + 2 * a2 + 2 * a3 + a4) / 6.0
            dv = (b1 + 2 * b2 + 2 * b3 + b4) / 6.0
            u, v = u + step * du, v + step * dv
            if not (u_min <= u <= u_max and v_min <= v <= v_max):
                break
            pts.append((u, v))
            if du == 0.0 and dv == 0.0:
                break
            if line:
                n = hypot(du, dv)
                pu, pv, sign = du / n, dv / n, 1.0
    return pts
