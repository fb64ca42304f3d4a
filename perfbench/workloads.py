"""Seeded inputs and op lists for the three benchmark workloads.

An op is one `zmcsurf` CLI invocation: a command, a preset name or a spec
file written by this module, and a grid override.  The program sees only
those arguments and files; the seed never reaches it.

Generated `null`-route specs follow one family:

    g_i'(t) = c_i t^{m_i} (1 + a_i t + b_i t^2),   m_i in {2, 4},  c_1 c_2 > 0
    w_i(t)  = 1 + p_i t + q_i t^2

with |a_i| + |b_i| < 1 and |p_i| + |q_i| < 1, so every factor stays positive
on the chart [-1, 1]^2.  The Hopf branches are -w_i g_i' / 2, so the base
point is an umbilic of orders (m_1, m_2) with a positive leading product:
admissible, with indices {+1, -1} when both half-orders are odd and {0}
otherwise.  Generated specs use the mixed pairs (2,4) and (4,2), which
cost the same, so the cost of a pass does not depend on which pair the
seed picks; the equal pairs come from the z3 and z5 presets.

Generated `chart`-route specs carry raw float arrays (sigma, L, M, N).
A seeded share of nodes is planted umbilic (L = -N, M = 0) or
quasi-umbilic (|L + N| = |2M|), so the float tolerance branch of the
classifier is exercised, and the checks know what those nodes must be.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

# mixed order pairs cost the same, so a pass costs the same for every seed
MIXED_ORDERS = ((2, 4), (4, 2))
LEADING = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2))
SMALL = (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8))

CHART_GRID = 65
PLANTED_UMBILIC = 0.04
PLANTED_QUASI = 0.04


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the checks need to know about it."""

    command: str
    grid: int
    preset: Optional[str] = None
    spec: Optional[str] = None  # path of a generated spec file
    label: str = ""
    # exA2 at grid >= 33 is a known defect: exit 0 with checked outputs or
    # exit 3 with a JSON diagnostic are accepted, anything else fails.
    known_defect: bool = False
    info: dict = field(default_factory=dict, compare=False, hash=False)

    def argv(self, out_dir: str) -> list:
        src = ["--preset", self.preset] if self.preset else ["--spec", self.spec]
        return [self.command, *src, "--grid", str(self.grid), "--out", out_dir]

    @property
    def name(self) -> str:
        return f"{self.command}:{self.label or self.preset}@{self.grid}"


def _poly(coeffs, as_float: bool = False) -> dict:
    conv = float if as_float else (lambda c: str(Fraction(c)))
    return {"kind": "poly", "coeffs": [conv(c) for c in coeffs]}


def _small(rng: random.Random) -> Fraction:
    return rng.choice((-1, 1)) * rng.choice(SMALL)


def null_spec(rng: random.Random, orders: tuple, as_float: bool = False) -> dict:
    """One admissible even-order umbilic spec of the family above.

    With `as_float` the coefficients are written as JSON floats, which the
    program keeps as floats, so every branch evaluation is inexact."""
    sign = rng.choice((-1, 1))
    data = {}
    for k, m in zip((1, 2), orders):
        c = sign * rng.choice(LEADING)
        a, b = _small(rng), _small(rng)
        # g = c (t^{m+1}/(m+1) + a t^{m+2}/(m+2) + b t^{m+3}/(m+3))
        g = [0] * (m + 1) + [c / (m + 1), c * a / (m + 2), c * b / (m + 3)]
        w = [1, _small(rng), _small(rng)]
        data[f"g{k}"] = _poly(g, as_float)
        data[f"w{k}"] = _poly(w, as_float)
    return {
        "route": "null",
        "data": data,
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 33, "nv": 33},
    }


def chart_spec(rng: random.Random, n: int = CHART_GRID):
    """A raw float chart with planted umbilic and quasi-umbilic nodes.

    Returns the spec and the planted node sets {(i, j)}.
    """
    sigma, L, M, N = ([[0.0] * n for _ in range(n)] for _ in range(4))
    umbilic, quasi = set(), set()
    for i in range(n):
        for j in range(n):
            sigma[i][j] = rng.uniform(-0.5, 0.5)
            l, m, nn = (rng.uniform(-1.0, 1.0) for _ in range(3))
            r = rng.random()
            if r < PLANTED_UMBILIC:
                nn, m = -l, 0.0
                umbilic.add((i, j))
            elif r < PLANTED_UMBILIC + PLANTED_QUASI:
                m = rng.choice((-1.0, 1.0)) * (l + nn) / 2.0
                quasi.add((i, j))
            L[i][j], M[i][j], N[i][j] = l, m, nn
    spec = {
        "route": "chart",
        "data": {"sigma": sigma, "L": L, "M": M, "N": N, "metric_sign": 1},
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": n, "nv": n},
    }
    return spec, umbilic, quasi


def _write_spec(work: Path, name: str, spec: dict) -> str:
    path = work / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


def _interleave(heavy: list, light: list, every: int) -> list:
    """The light ops first and again after every `every` heavy ops.

    A workload's minor commands are short, so a run needs many calls of
    them, made at many moments, to time them steadily."""
    ops = []
    for k in range(0, len(heavy), every):
        ops += light + heavy[k:k + every]
    return ops


def grid_exact(rng: random.Random, work: Path) -> list:
    """Exact time-like chart assembly, classification and serialization."""
    # all at 65x65; f2 generates only and the costlier specs classify
    # only: a run is whole passes, and this keeps a pass short enough to
    # repeat each op three times in a run.  A 129x129 op would take 4 s,
    # and its time on a shared host swings by 2x from one execution to
    # the next.
    ops = [
        Op("generate", 65, preset="z5"),
        Op("classify", 65, preset="z5"),
        Op("generate", 65, preset="f2"),
        Op("classify", 65, preset="deg26"),
    ]
    orders = rng.choice(MIXED_ORDERS)
    label = f"null_m{orders[0]}{orders[1]}"
    ops.append(Op("classify", 65, spec=_write_spec(work, label, null_spec(rng, orders)), label=label))
    # index and flow stay a small share: base-point analysis and one
    # space-like portrait on a coarse grid
    return _interleave(ops, [Op("index", 33, preset="z3"), Op("flow", 17, preset="spacelike_m1")], 3)


def umbilic_flow(rng: random.Random, work: Path) -> list:
    """Umbilic analysis, winding and streamlines on admissible umbilics."""
    ops = []
    for preset in ("z3", "z5", "deg26"):
        for cmd in ("index", "flow"):
            ops.append(Op(cmd, 33, preset=preset))
    # one seeded spec: its flow costs about three preset flows, and a
    # second one would leave too few executions of each op in a run
    orders = rng.choice(MIXED_ORDERS)
    label = f"null_m{orders[0]}{orders[1]}"
    path = _write_spec(work, label, null_spec(rng, orders))
    for cmd in ("index", "flow"):
        ops.append(Op(cmd, 33, spec=path, label=label))
    # generate and classify stay a small share: a coarse time-like grid
    # and a coarse space-like one
    light = [
        Op("generate", 17, preset="z3"),
        Op("classify", 17, preset="z3"),
        Op("classify", 17, preset="spacelike_m1"),
    ]
    return _interleave(ops, light, 2)


def float_path(rng: random.Random, work: Path) -> list:
    """The same layers on their non-exact branches."""
    ops = [
        Op("generate", 65, preset="exA2"),
        Op("classify", 33, preset="exA2", known_defect=True),
        Op("flow", 33, preset="exA2", known_defect=True),
        Op("index", 33, preset="exA2"),
    ]
    for m in (1, 2, 3):
        preset = f"spacelike_m{m}"
        for cmd in ("generate", "classify", "flow", "index"):
            ops.append(Op(cmd, 65, preset=preset, info={"m": m}))
    # both mixed pairs: one seeded spec's flow cost varies with its
    # coefficients, and two of them halve that
    for orders in MIXED_ORDERS:
        label = f"float_m{orders[0]}{orders[1]}"
        path = _write_spec(work, label, null_spec(rng, orders, as_float=True))
        for cmd in ("index", "flow"):
            ops.append(Op(cmd, 33, spec=path, label=label))
    spec, umbilic, quasi = chart_spec(rng)
    path = _write_spec(work, "chart", spec)
    ops.append(
        Op("classify", CHART_GRID, spec=path, label="chart",
           info={"umbilic": umbilic, "quasi": quasi})
    )
    return ops


WORKLOADS = {
    "grid-exact": grid_exact,
    "umbilic-flow": umbilic_flow,
    "float-path": float_path,
}
