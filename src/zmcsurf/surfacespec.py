"""JSON surface-spec ingestion.

A spec document selects a construction route and its data payload:

    route "ko":        {"g": <parafn>, "omega_hat": <parafn>}
    route "null":      {"g1": <branch>, "g2": <branch>,
                        "w1": <branch>, "w2": <branch>}
    route "kobayashi": {"g": <cpoly>, "omega_hat": <cpoly>}
    route "chart":     {"sigma": [[...]], "L": [[...]], "M": [[...]],
                        "N": [[...]], "metric_sign": +-1}

    <branch>  = {"kind": "poly", "coeffs": [c, ...]} | {"kind": "exp_flat"}
    <parafn>  = {"z_poly": [c | [re, im], ...]}
              | {"branches": {"plus": <branch>, "minus": <branch>}}
              | {"wedge": [<branch>, <branch>]}
    <cpoly>   = [c | [re, im], ...]   (complex coefficients)

Coefficients written as integers or "p/q" strings are parsed as exact
rationals, which keeps the polynomial pipeline exact; floats stay floats,
and a non-finite float (NaN, Infinity, 1e400) is refused.  Time-like
data (routes "ko" and "null") must be regular at the base point: g
vanishes there and omega_hat is not null; other data are refused at
/data unless the spec sets "allow_degenerate_base": true (the key takes
only true or false).
Validation failures raise SpecError carrying a JSON pointer to the
offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .geometry import GridSpec, SurfaceChart, chart_from_arrays
from .parafunc import Branch, ParaFunction
from .poly import Poly
from .spacelike import ComplexWeierstrassData, SpacelikePatch, generate_kobayashi
from .weierstrass import (
    DegenerateDataError,
    ImmersionPatch,
    WeierstrassData,
    generate_ko,
    generate_null,
)

ROUTES = ("ko", "null", "kobayashi", "chart")

# Input limits: a larger value is refused as a spec error, so that no spec
# can ask for an unbounded run.  Winding retries may raise the sample count
# to 16 * MAX_SAMPLES.
MAX_GRID_NODES = 1025  # nu and nv, and hence --grid
MAX_SAMPLES = 65536
MAX_JET_CAP = 64
MAX_DEGREE = 64  # of every polynomial: at most 65 coefficients
MAX_SEEDS = 64  # explicit analysis.seeds, each in the closed grid rectangle


class SpecError(ValueError):
    """Invalid surface spec; carries a JSON pointer to the bad field."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{message} (at {pointer or '/'})")
        self.pointer = pointer or "/"
        self.message = message


def _fail(pointer, message):
    raise SpecError(pointer, message)


def _echo(value, limit: int = 40) -> str:
    """repr(value) for a diagnostic, cut to `limit` characters plus an ellipsis."""
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "\u2026"


def _expect_mapping(value, pointer):
    if not isinstance(value, dict):
        _fail(pointer, "expected an object")
    return value


def _expect_list(value, pointer):
    if not isinstance(value, list):
        _fail(pointer, "expected an array")
    return value


def _coefficients(value, pointer) -> list:
    """A polynomial's coefficient array, of degree at most MAX_DEGREE."""
    if len(_expect_list(value, pointer)) > MAX_DEGREE + 1:
        _fail(pointer, f"polynomial degree is limited to {MAX_DEGREE}")
    return value


def _int_in(value, lo, hi) -> bool:
    """True for an int (not a bool) in [lo, hi]."""
    return isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi


def _scalar(value, pointer):
    """int | 'p/q' -> Fraction (exact); finite float -> float.

    Python's json reads NaN, Infinity and 1e400 (as inf); none is a number
    a spec can use."""
    if isinstance(value, bool):
        _fail(pointer, "expected a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            _fail(pointer, f"not a finite number: {value!r}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            _fail(pointer, f"not a rational literal: {_echo(value)}")
    _fail(pointer, "expected a number or 'p/q' string")


def _branch(value, pointer) -> Branch:
    value = _expect_mapping(value, pointer)
    kind = value.get("kind")
    if kind == "poly":
        coeffs = _coefficients(value.get("coeffs"), pointer + "/coeffs")
        return Branch.from_poly(
            [_scalar(c, f"{pointer}/coeffs/{k}") for k, c in enumerate(coeffs)]
        )
    if kind == "exp_flat":
        return Branch.exp_flat()
    _fail(pointer + "/kind", f"unknown branch kind: {_echo(kind)}")


def _parafunction(value, pointer) -> ParaFunction:
    value = _expect_mapping(value, pointer)
    keys = set(value) & {"z_poly", "branches", "wedge"}
    if len(keys) != 1:
        _fail(pointer, "expected exactly one of z_poly / branches / wedge")
    if "z_poly" in keys:
        from .paracomplex import ParaComplex

        coeffs = []
        for k, c in enumerate(_coefficients(value["z_poly"], pointer + "/z_poly")):
            cp = f"{pointer}/z_poly/{k}"
            if isinstance(c, list):
                if len(c) != 2:
                    _fail(cp, "paracomplex coefficient needs [re, im]")
                coeffs.append(
                    ParaComplex(_scalar(c[0], cp + "/0"), _scalar(c[1], cp + "/1"))
                )
            else:
                coeffs.append(ParaComplex(_scalar(c, cp), Fraction(0)))
        return ParaFunction.from_z_poly(coeffs)
    if "branches" in keys:
        b = _expect_mapping(value["branches"], pointer + "/branches")
        return ParaFunction(
            _branch(b.get("plus"), pointer + "/branches/plus"),
            _branch(b.get("minus"), pointer + "/branches/minus"),
        )
    pair = _expect_list(value["wedge"], pointer + "/wedge")
    if len(pair) != 2:
        _fail(pointer + "/wedge", "wedge needs exactly two branches")
    return ParaFunction.wedge(
        _branch(pair[0], pointer + "/wedge/0"), _branch(pair[1], pointer + "/wedge/1")
    )


def _cpoly(value, pointer) -> Poly:
    coeffs = []
    for k, c in enumerate(_coefficients(value, pointer)):
        cp = f"{pointer}/{k}"
        if isinstance(c, list):
            if len(c) != 2:
                _fail(cp, "complex coefficient needs [re, im]")
            coeffs.append(
                float(_scalar(c[0], cp + "/0")) + 1j * float(_scalar(c[1], cp + "/1"))
            )
        else:
            coeffs.append(float(_scalar(c, cp)))
    return Poly(coeffs)


def _grid(value, pointer, minimum_nodes=16) -> GridSpec:
    value = _expect_mapping(value, pointer)
    vals = {}
    for key in ("u_min", "u_max", "v_min", "v_max"):
        if key not in value:
            _fail(f"{pointer}/{key}", "missing grid bound")
        s = _scalar(value[key], f"{pointer}/{key}")
        vals[key] = s if isinstance(s, Fraction) else Fraction(s).limit_denominator(10**9)
    for key in ("nu", "nv"):
        n = value.get(key)
        if not _int_in(n, minimum_nodes, MAX_GRID_NODES):
            _fail(
                f"{pointer}/{key}",
                f"grid resolution must be an int in [{minimum_nodes}, {MAX_GRID_NODES}]",
            )
        vals[key] = n
    try:
        return GridSpec(**vals)
    except ValueError as exc:
        _fail(pointer, str(exc))


DEFAULT_SEEDS = (
    (0.6, 0.0),
    (0.45, 0.45),
    (0.0, 0.6),
    (-0.45, 0.45),
    (-0.6, 0.0),
    (-0.45, -0.45),
    (0.0, -0.6),
    (0.45, -0.45),
)


@dataclass(frozen=True)
class AnalysisParams:
    winding_radius: float = 0.1
    samples: int = 2048
    jet_cap: int = 16
    seeds: tuple = DEFAULT_SEEDS


def _analysis(value, pointer, grid: GridSpec) -> AnalysisParams:
    if value is None:
        return AnalysisParams()
    value = _expect_mapping(value, pointer)
    kwargs = {}
    if "winding_radius" in value:
        r = _scalar(value["winding_radius"], pointer + "/winding_radius")
        if float(r) <= 0:
            _fail(pointer + "/winding_radius", "radius must be positive")
        kwargs["winding_radius"] = float(r)
    for key, lo, hi in (("samples", 720, MAX_SAMPLES), ("jet_cap", 1, MAX_JET_CAP)):
        if key in value:
            if not _int_in(value[key], lo, hi):
                _fail(f"{pointer}/{key}", f"{key} must be an int in [{lo}, {hi}]")
            kwargs[key] = value[key]
    if "seeds" in value:
        entries = _expect_list(value["seeds"], pointer + "/seeds")
        if len(entries) > MAX_SEEDS:
            _fail(pointer + "/seeds", f"at most {MAX_SEEDS} seeds are allowed")
        seeds = []
        for k, s in enumerate(entries):
            sp = f"{pointer}/seeds/{k}"
            if not isinstance(s, list) or len(s) != 2:
                _fail(sp, "seed needs [u, v]")
            u, v = float(_scalar(s[0], sp + "/0")), float(_scalar(s[1], sp + "/1"))
            if not (grid.u_min <= u <= grid.u_max and grid.v_min <= v <= grid.v_max):
                _fail(sp, "seed lies outside the grid rectangle")
            seeds.append((u, v))
        kwargs["seeds"] = tuple(seeds)
    return AnalysisParams(**kwargs)


def _generated(make, *data, **kwargs) -> ImmersionPatch:
    """make(*data, **kwargs), with data that are degenerate at the base
    point refused as a spec error."""
    try:
        return make(*data, **kwargs)
    except DegenerateDataError as exc:
        _fail("/data", f"{exc}; \"allow_degenerate_base\": true accepts such data")


@dataclass(frozen=True)
class ResolvedSpec:
    """A validated spec with its constructed surface object."""

    route: str
    grid: GridSpec
    analysis: AnalysisParams
    patch: Optional[ImmersionPatch] = None
    spacelike_patch: Optional[SpacelikePatch] = None
    chart: Optional[SurfaceChart] = None
    echo: dict = field(default_factory=dict)

    @property
    def is_timelike(self) -> bool:
        return self.patch is not None

    @property
    def is_spacelike(self) -> bool:
        return self.spacelike_patch is not None


def resolve(spec: dict, minimum_nodes: int = 16) -> ResolvedSpec:
    """Validate a spec document and construct its surface object."""
    spec = _expect_mapping(spec, "")
    route = spec.get("route")
    if route not in ROUTES:
        _fail("/route", f"route must be one of {ROUTES}, got {_echo(route)}")
    grid = _grid(spec.get("grid"), "/grid", minimum_nodes)
    analysis = _analysis(spec.get("analysis"), "/analysis", grid)
    data = _expect_mapping(spec.get("data"), "/data")
    allow = spec.get("allow_degenerate_base", False)
    if not isinstance(allow, bool):
        _fail("/allow_degenerate_base", f"expected true or false, got {_echo(allow)}")
    strict = not allow

    patch = spatch = chart = None
    if route == "ko":
        for key in ("g", "omega_hat"):
            if key not in data:
                _fail(f"/data/{key}", "missing para-holomorphic datum")
        wdata = WeierstrassData(
            _parafunction(data["g"], "/data/g"),
            _parafunction(data["omega_hat"], "/data/omega_hat"),
        )
        patch = _generated(generate_ko, wdata, strict=strict)
    elif route == "null":
        branches = {}
        for key in ("g1", "g2", "w1", "w2"):
            if key not in data:
                _fail(f"/data/{key}", "missing branch datum")
            branches[key] = _branch(data[key], f"/data/{key}")
        patch = _generated(generate_null, **branches, strict=strict)
    elif route == "kobayashi":
        for key in ("g", "omega_hat"):
            if key not in data:
                _fail(f"/data/{key}", "missing holomorphic datum")
        spatch = generate_kobayashi(
            ComplexWeierstrassData(
                _cpoly(data["g"], "/data/g"),
                _cpoly(data["omega_hat"], "/data/omega_hat"),
            )
        )
    else:  # chart
        arrays = {}
        for key in ("sigma", "L", "M", "N"):
            if key not in data:
                _fail(f"/data/{key}", "missing chart array")
            rows = _expect_list(data[key], f"/data/{key}")
            if len(rows) != grid.nu:
                _fail(f"/data/{key}", f"need {grid.nu} rows")
            parsed = []
            for i, row in enumerate(rows):
                row = _expect_list(row, f"/data/{key}/{i}")
                if len(row) != grid.nv:
                    _fail(f"/data/{key}/{i}", f"need {grid.nv} entries")
                parsed.append(
                    [float(_scalar(x, f"/data/{key}/{i}/{j}")) for j, x in enumerate(row)]
                )
            arrays[key] = parsed
        sign = spec.get("data", {}).get("metric_sign", 1)
        if sign not in (1, -1):
            _fail("/data/metric_sign", "metric_sign must be +1 or -1")
        chart = chart_from_arrays(grid, metric_sign=sign, **arrays)

    return ResolvedSpec(
        route=route,
        grid=grid,
        analysis=analysis,
        patch=patch,
        spacelike_patch=spatch,
        chart=chart,
        echo=spec,
    )
