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
the winding and streamline loops here do float arithmetic only.
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


def from_null_components(a_fn, b_fn, kind=VECTOR_FIELD, name="") -> FlowField:
    """Field a(x,y) d/dx + b(x,y) d/dy re-expressed in the (u,v) chart."""

    def ev(u, v):
        x, y = (u + v) / 2.0, (u - v) / 2.0
        a, b = a_fn(x, y), b_fn(x, y)
        return (a + b, a - b)

    return FlowField(ev, kind=kind, name=name)


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
    angles = []
    for k in range(samples):
        t = 2.0 * math.pi * k / samples
        try:
            p, q = field(u0 + radius * math.cos(t), v0 + radius * math.sin(t))
        except (ValueError, ZeroDivisionError, FloatingPointError):
            raise _ZeroOnCircle  # undefined counts as inadequate, like a zero
        p, q = float(p), float(q)
        if not (math.isfinite(p) and math.isfinite(q)) or (p == 0.0 and q == 0.0):
            raise _ZeroOnCircle
        angles.append(doubling * math.atan2(q, p))
    total = 0.0
    max_jump = 0.0
    for k in range(samples):
        d = angles[(k + 1) % samples] - angles[k]
        d = math.remainder(d, 2.0 * math.pi)
        max_jump = max(max_jump, abs(d))
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
    """

    if bounds is None:
        inside = lambda u, v: True
    else:
        u_min, u_max, v_min, v_max = bounds

        def inside(u, v):
            return u_min <= u <= u_max and v_min <= v <= v_max

    oriented = field.kind == VECTOR_FIELD

    def march(start, sign):
        def sample(u, v, pu, pv):
            try:
                p, q = field(u, v)
            except (ValueError, ZeroDivisionError, FloatingPointError):
                return None
            p, q = float(p), float(q)
            norm = math.hypot(p, q)
            if not math.isfinite(norm) or norm < 1e-10:
                return None
            p, q = p / norm, q / norm
            if oriented:
                return sign * p, sign * q
            # line field: keep the orientation continuous along the path
            if pu is None:
                return sign * p, sign * q
            return (p, q) if p * pu + q * pv >= 0.0 else (-p, -q)

        pts = []
        u, v = float(start[0]), float(start[1])
        pu = pv = None
        for _ in range(int(max_len / step)):
            k1 = sample(u, v, pu, pv)
            if k1 is None:
                break
            k2 = sample(u + 0.5 * step * k1[0], v + 0.5 * step * k1[1], *k1)
            k3 = sample(u + 0.5 * step * k2[0], v + 0.5 * step * k2[1], *k2) if k2 else None
            k4 = sample(u + step * k3[0], v + step * k3[1], *k3) if k3 else None
            if k4 is None:
                break
            du = (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
            dv = (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
            u, v = u + step * du, v + step * dv
            if not inside(u, v):
                break
            pts.append((u, v))
            n = math.hypot(du, dv)
            if n == 0.0:
                break
            pu, pv = du / n, dv / n
        return pts

    out = []
    for seed in seeds:
        forward = march(seed, +1.0)
        backward = march(seed, -1.0)
        line = list(reversed(backward)) + [(float(seed[0]), float(seed[1]))] + forward
        out.append(np.array(line))
    return out
