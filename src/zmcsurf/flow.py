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
last, runs one march, generated from an RK4 stage template per field shape
with a `Kernel` evaluator's statements inline: every built-in field is one
(the umbilic eigenfields and the space-like principal line field), and the
evaluator of any other field, a library's or a test's, is called.  The
text is made from the shape alone and every value is an argument, so no
spec value reaches it.  `Circles` winds every field, _CHUNK samples a pass:
by `FlowField.arrays`, which the built-in fields have (numpy does `+ - * /`
and `sqrt`, `geometry.each` maps the other calls over the samples), else
by one evaluator call per sample, in sample order.  `np.add.accumulate`
sums the turning in loop order (`np.sum` sums pairwise).  An OverflowError of
a pass ends any winding, even after a zero sample of its chunk; a ValueError,
ZeroDivisionError or FloatingPointError of an evaluator counts as a zero.

Fields given one `Circles` (`Circles.share`) share their circles: the cos
and sin of the sample angles are formed once per sample count, and a
field's (p, q) once per circle.  A `Swapped` form reads, and then drops, its
base's pass, as X2 of `umbilic.eigenfields` reads X1's (X1 = (p + q, -p + q)
and X2 = (-p + q, p + q), bit for bit).  `atan2` runs once per field and
circle, and each field keeps its own retries.
"""

from __future__ import annotations

import functools
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
    # optional: (p, q) at float arrays (u, v), bit for bit the evaluator's, NaN where it raises
    # ValueError; may raise OverflowError at any sample.  Without it, one evaluator call a sample
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
        """The field's angles on the circle, _CHUNK samples an array call (or
        `_each_sample`); a `Swapped` form reads its base's pass and drops it."""
        form = field.arrays or field.evaluator
        swap = isinstance(form, Swapped)
        form, (u0, v0) = form.base if swap else form, field.singular_point
        key = (form, u0, v0, radius, samples)
        if key not in self.passes:
            values = []
            for c, s in self.unit(samples):
                u, v = u0 + radius * c, v0 + radius * s
                p, q = form(u, v) if field.arrays else _each_sample(form, u, v)
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


def _each_sample(ev, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(p, q) as float arrays, one evaluator call per sample in sample order."""
    try:
        return np.array(list(map(ev, u.tolist(), v.tolist())), float).T
    except (ValueError, ZeroDivisionError, FloatingPointError):
        raise _ZeroOnCircle  # undefined counts as inadequate, like a zero


def _accumulate(field: FlowField, radius: float, samples: int):
    """(total turning / doubling, largest jump) of the field's angle over
    `samples` points of the circle (see the module docstring)."""
    two_pi = 2.0 * math.pi
    doubling = 2.0 if field.kind == LINE_FIELD else 1.0
    circles = field.circles or Circles()
    angles = doubling * circles.angles(field, radius, samples)
    jumps = np.roll(angles, -1) - angles
    # remainder(d, 2 pi) is exact, so it is d itself where |d| <= pi
    wrap = np.abs(jumps) > math.pi
    jumps[wrap] = each(math.remainder, jumps[wrap], two_pi)
    total = np.add.accumulate(np.append(0.0, jumps))[-1]  # in loop order
    return float(total) / doubling, float(np.max(np.abs(jumps), initial=0.0))


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

    Both field kinds run one march (`_compiled`): each of the four RK4
    stages runs the statements of a `Kernel` evaluator, as every built-in
    field's is, or `p, q = ev(su, sv)` for any other evaluator, and the
    march has one `suppress`.  The arithmetic is that of the scalar loop
    this replaced, in the same order: the stage points are
    `u + (0.5 * step) * k`, the step is `(k1 + 2*k2 + 2*k3 + k4) / 6.0`,
    and norms stay `math.hypot` (see the module docstring), so every
    point keeps its bits.  A sample is divided by its norm times the sign,
    which is exact (`p / -n` is `-(p / n)`); a line sample is then turned to
    face the one before it, and after the first step its sign is 1.  Missing
    bounds are infinite, so the march from a NaN seed ends after one step.
    """
    line, n_steps, inf = field.kind == LINE_FIELD, int(max_len / step), math.inf
    box = (-inf, inf, -inf, inf) if bounds is None else bounds
    kernel = ev if isinstance(ev := field.evaluator, Kernel) else Kernel("p, q = ev(su, sv)", ev=ev)
    march, args = _compiled(kernel.source, *kernel.args)[0], kernel.args.values()
    out = []
    for seed in seeds:
        u, v = float(seed[0]), float(seed[1])
        forward = march(u, v, 1.0, step, n_steps, box, line, *args)
        backward = march(u, v, -1.0, step, n_steps, box, line, *args)
        out.append(np.array(backward[::-1] + [(u, v)] + forward))
    return out


class Kernel:
    """An evaluator as statements: `source` sets p, q at (su, sv) from the
    names of `args`, bound as arguments, so that no value enters the text;
    `streamlines` runs them inline in its march, and a call as a function."""

    def __init__(self, source: str, **args):
        self.source, self.args = source, args

    def __call__(self, u, v):
        return _compiled(self.source, *self.args)[1](u, v, *self.args.values())


# RK4 stage k: the sample at (su, sv), turned to face sample k - 1 on a line field
_STAGE = """
{source}
            if not 1e-10 <= (n := hypot(p, q)) < inf:
                break
            n *= sign
            a{k}, b{k} = p / n, q / n
            if line and a{k} * a{j} + b{k} * b{j} < 0.0:
                a{k}, b{k} = -a{k}, -b{k}"""
_MARCH = """
def march(u, v, sign, step, n_steps, bounds, line, {names}):
    (u_min, u_max, v_min, v_max), half = bounds, 0.5 * step
    hypot, inf, sqrt = math.hypot, math.inf, math.sqrt
    pts, a0, b0 = [], 0.0, 0.0  # a zero dot product: the first sample is not turned
    with suppress(ValueError, ZeroDivisionError, FloatingPointError):
        for _ in range(n_steps):{stages}
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
                a0, b0, sign = du / n, dv / n, 1.0
    return pts
def evaluate(su, sv, {names}):
{source}
    return p, q
"""


@functools.lru_cache(maxsize=64)
def _compiled(source: str, *names) -> tuple:
    """(march of `streamlines`, evaluator (su, sv, *names) -> (p, q)) of the
    statements `source` over the arguments `names`, compiled on first use:
    one cache entry per source text, that is per field shape, at most 64."""
    at = ("u, v", "u + half * a1, v + half * b1", "u + half * a2, v + half * b2",
          "u + step * a3, v + step * b3")
    indent = lambda pad, text: pad + text.replace("\n", "\n" + pad)
    stages = "".join(_STAGE.format(k=k, j=k - 1, source=indent(" " * 12, f"su, sv = {p}\n{source}"))
                     for k, p in enumerate(at, 1))
    text = _MARCH.format(names=", ".join(names), stages=stages, source=indent("    ", source))
    scope = {"math": math, "suppress": suppress, "sqrt": math.sqrt}
    exec(compile(text, "<zmcsurf.flow>", "exec"), scope)
    return scope["march"], scope["evaluate"]
