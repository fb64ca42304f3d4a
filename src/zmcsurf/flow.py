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
`Poly.float_coeffs()`, bit for bit `Poly.__call__` (see its docstring), so
the winding and streamline loops here do float arithmetic only.  They call
`FlowField.evaluator` directly, with no helper per sample, and keep the
bits of the scalar loops they replaced (`tests/oracles.py`): every float
operation is the same IEEE operation on the same operands in the same
order, and hoisting `0.5 * step` or `2.0 * math.pi` out of a loop computes
the value the loop computed first anyway.  `math.hypot`, `math.atan2`,
`math.cos`, `math.sin` and Python's `**` stay scalar calls, because their
numpy counterparts round differently: with numpy 2.4 on x86-64,
`np.hypot` differs from `math.hypot` in about 0.6% of random pairs in
[-1, 1]^2, and `np.power(x, 3)` from `x**3` in about 3% of samples, so a
vectorized march would move the bits of every flow.svg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

VECTOR_FIELD = "vector_field"
LINE_FIELD = "line_field"


class WindingError(RuntimeError):
    """Winding computation failed its numerical guards."""


@dataclass(frozen=True)
class FlowField:
    """A plane field with one marked singular point.

    kind "vector_field": oriented, integer index.
    kind "line_field": defined only up to sign, half-integer index.
    """

    evaluator: Callable[[float, float], tuple]
    kind: str = VECTOR_FIELD
    singular_point: tuple = (0.0, 0.0)
    name: str = ""

    def __call__(self, u: float, v: float):
        return self.evaluator(u, v)


def perpendicular(field: FlowField) -> FlowField:
    """Swap the two components; in an isothermal chart this sends a principal
    field to the perpendicular principal field and negates the index."""

    def ev(u, v, _base=field.evaluator):
        p, q = _base(u, v)
        return (q, p)

    return FlowField(
        ev, kind=field.kind, singular_point=field.singular_point,
        name=field.name + "_perp" if field.name else "",
    )


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
    u0, v0 = field.singular_point
    doubling = 2.0 if field.kind == LINE_FIELD else 1.0
    ev = field.evaluator
    cos, sin, atan2, isfinite = math.cos, math.sin, math.atan2, math.isfinite
    two_pi = 2.0 * math.pi
    angles = []
    for k in range(samples):
        t = two_pi * k / samples
        try:
            p, q = ev(u0 + radius * cos(t), v0 + radius * sin(t))
        except (ValueError, ZeroDivisionError, FloatingPointError):
            raise _ZeroOnCircle  # undefined counts as inadequate, like a zero
        p, q = float(p), float(q)
        if not (isfinite(p) and isfinite(q)) or (p == 0.0 and q == 0.0):
            raise _ZeroOnCircle
        angles.append(doubling * atan2(q, p))
    remainder = math.remainder
    total = 0.0
    max_jump = 0.0
    for a, b in zip(angles, angles[1:] + angles[:1]):
        d = remainder(b - a, two_pi)
        if abs(d) > max_jump:
            max_jump = abs(d)
        total += d
    return total / doubling, max_jump


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
    radii = [radius, radius * 1.0037, radius * 0.9961, radius * 1.0081]
    total = max_jump = None
    for r in radii:
        n = samples
        for _ in range(3):
            try:
                total, max_jump = _accumulate(field, r, n)
            except _ZeroOnCircle:
                total = None
                break
            if max_jump < math.pi / 2:
                break
            n *= 4
        else:
            raise WindingError("angle jumps stayed too large after resampling")
        if total is not None:
            radius, samples = r, n
            break
    if total is None:
        raise WindingError("field vanished or was undefined on every sampled circle")

    raw = total / (2.0 * math.pi)
    if field.kind == LINE_FIELD:
        nearest = round(2.0 * raw) / 2.0
    else:
        nearest = float(round(raw))
    if abs(raw - nearest) > 0.05:
        raise WindingError(
            f"accumulated winding {raw:.6f} too far from admissible value {nearest}"
        )
    index = nearest if field.kind == LINE_FIELD else int(nearest)
    return WindingResult(index, radius, samples, max_jump)


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
    chart boundary, at max_len arclength, or where the field magnitude drops
    below 1e-10.  Returns one polyline (ndarray of points) per seed.

    One loop serves both field kinds; a vector field skips only the
    orientation bookkeeping, which never changes its samples (its zero-step
    stop, `hypot(du, dv) == 0.0`, is `du == dv == 0.0`).  The arithmetic is
    that of the scalar loop this replaced, in the same order: the stage
    points are `u + (0.5 * step) * k`, the step is
    `(k1 + 2*k2 + 2*k3 + k4) / 6.0`, and a sample is divided by its norm
    before the sign is applied.  Norms stay `math.hypot` (see the module
    docstring), so every point keeps its bits.
    """
    ev = field.evaluator
    line_field = field.kind == LINE_FIELD
    hypot, isfinite = math.hypot, math.isfinite
    half = 0.5 * step
    n_steps = int(max_len / step)
    bounded = bounds is not None
    if bounded:
        u_min, u_max, v_min, v_max = bounds

    def march(u, v, sign):
        def unit(x, y, ru, rv):
            # the normalized field at (x, y), or None where the march stops
            try:
                p, q = ev(x, y)
            except (ValueError, ZeroDivisionError, FloatingPointError):
                return None
            p, q = float(p), float(q)
            norm = hypot(p, q)
            if not isfinite(norm) or norm < 1e-10:
                return None
            p, q = p / norm, q / norm
            if ru is None:
                return sign * p, sign * q
            # line field: keep the orientation continuous along the path
            return (p, q) if p * ru + q * rv >= 0.0 else (-p, -q)

        pts = []
        pu = pv = None
        for _ in range(n_steps):
            k1 = unit(u, v, pu, pv)
            if k1 is None:
                break
            a1, b1 = k1
            k2 = unit(u + half * a1, v + half * b1, a1 if line_field else None, b1)
            if k2 is None:
                break
            a2, b2 = k2
            k3 = unit(u + half * a2, v + half * b2, a2 if line_field else None, b2)
            if k3 is None:
                break
            a3, b3 = k3
            k4 = unit(u + step * a3, v + step * b3, a3 if line_field else None, b3)
            if k4 is None:
                break
            a4, b4 = k4
            du = (a1 + 2 * a2 + 2 * a3 + a4) / 6.0
            dv = (b1 + 2 * b2 + 2 * b3 + b4) / 6.0
            u, v = u + step * du, v + step * dv
            if bounded and not (u_min <= u <= u_max and v_min <= v <= v_max):
                break
            pts.append((u, v))
            if line_field:
                n = hypot(du, dv)
                if n == 0.0:
                    break
                pu, pv = du / n, dv / n
            elif du == 0.0 and dv == 0.0:
                break
        return pts

    out = []
    for seed in seeds:
        u, v = float(seed[0]), float(seed[1])
        forward = march(u, v, +1.0)
        backward = march(u, v, -1.0)
        out.append(np.array(backward[::-1] + [(u, v)] + forward))
    return out
