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
only true or false).  An unknown key is refused at its own pointer at
every level: the top level, grid, analysis (AnalysisParams), data (per
route; metric_sign on route "chart" only), <branch>, <parafn> and the
branches map.  A float grid bound reads as its double's exact value
unless a fraction over at most 10^9 rounds to it (0.1 is 1/10).
Validation failures raise SpecError carrying a JSON pointer to the
offending field.  A ResolvedSpec holds one surface whatever the route:
ImmersionPatch (ko, null), SpacelikePatch (kobayashi) or RawChart (chart).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Union

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


def expect_mapping(value, pointer):
    if not isinstance(value, dict):
        _fail(pointer, "expected an object")
    return value


def _expect_list(value, pointer):
    if not isinstance(value, list):
        _fail(pointer, "expected an array")
    return value


def _known_keys(value: dict, pointer, keys):
    """Refuse a key of the object `value` that is not one of `keys`."""
    for key in value:
        if key not in keys:
            escaped = str(key).replace("~", "~0").replace("/", "~1")
            _fail(f"{pointer}/{escaped}", f"unknown key {_echo(key)}")


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


def _double(value, pointer) -> float:
    """_scalar rounded to a double; a number outside the double range is refused."""
    number = _scalar(value, pointer)
    try:
        return float(number)
    except OverflowError:
        _fail(pointer, f"{_echo(value)} is outside the double range")


def _branch(value, pointer) -> Branch:
    value = expect_mapping(value, pointer)
    kind = value.get("kind")
    if kind == "poly":
        _known_keys(value, pointer, ("kind", "coeffs"))
        coeffs = _coefficients(value.get("coeffs"), pointer + "/coeffs")
        return Branch.from_poly(
            [_scalar(c, f"{pointer}/coeffs/{k}") for k, c in enumerate(coeffs)]
        )
    if kind == "exp_flat":
        _known_keys(value, pointer, ("kind",))
        return Branch.exp_flat()
    _fail(pointer + "/kind", f"unknown branch kind: {_echo(kind)}")


def _parafunction(value, pointer) -> ParaFunction:
    value = expect_mapping(value, pointer)
    _known_keys(value, pointer, ("z_poly", "branches", "wedge"))
    if len(value) != 1:
        _fail(pointer, "expected exactly one of z_poly / branches / wedge")
    if "z_poly" in value:
        from .paracomplex import ParaComplex

        pairs = _pairs(value["z_poly"], pointer + "/z_poly", "paracomplex")
        return ParaFunction.from_z_poly(
            [ParaComplex(re, Fraction(0) if im is None else im) for re, im in pairs]
        )
    if "branches" in value:
        b = expect_mapping(value["branches"], pointer + "/branches")
        _known_keys(b, pointer + "/branches", ("plus", "minus"))
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


def _pairs(value, pointer, what, read=_scalar) -> list:
    """(re, im) per coefficient of a polynomial array, each part read by
    `read`; a bare number c is (read(c), None)."""
    pairs = []
    for k, c in enumerate(_coefficients(value, pointer)):
        cp = f"{pointer}/{k}"
        if not isinstance(c, list):
            pairs.append((read(c, cp), None))
        elif len(c) != 2:
            _fail(cp, f"{what} coefficient needs [re, im]")
        else:
            pairs.append(tuple(read(x, f"{cp}/{n}") for n, x in enumerate(c)))
    return pairs


def _cpoly(value, pointer) -> Poly:
    """Complex float coefficients; a bare number stays a float."""
    pairs = _pairs(value, pointer, "complex", _double)
    return Poly([re if im is None else re + 1j * im for re, im in pairs])


def _matrix(value, pointer, grid) -> list:
    """A raw chart array: grid.nu rows of grid.nv numbers, as floats; a row
    that is not all finite JSON floats is read value by value."""
    rows = _expect_list(value, pointer)
    if len(rows) != grid.nu:
        _fail(pointer, f"need {grid.nu} rows")
    parsed = []
    for i, row in enumerate(rows):
        row = _expect_list(row, f"{pointer}/{i}")
        if len(row) != grid.nv:
            _fail(f"{pointer}/{i}", f"need {grid.nv} entries")
        if set(map(type, row)) == {float} and math.isfinite(sum(row)):
            parsed.append(row)  # JSON floats; an inf or NaN would make the sum one
        else:
            parsed.append([_double(x, f"{pointer}/{i}/{j}") for j, x in enumerate(row)])
    return parsed


def _grid(value, pointer, minimum_nodes=16) -> GridSpec:
    value = expect_mapping(value, pointer)
    _known_keys(value, pointer, ("u_min", "u_max", "v_min", "v_max", "nu", "nv"))
    vals = {}
    for key in ("u_min", "u_max", "v_min", "v_max"):
        if key not in value:
            _fail(f"{pointer}/{key}", "missing grid bound")
        s = _scalar(value[key], f"{pointer}/{key}")
        if isinstance(s, float):  # 0.1 reads 1/10, 1e-10 exactly
            short = Fraction(s).limit_denominator(10**9)
            s = short if float(short) == s else Fraction(s)
        vals[key] = s
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
    value = expect_mapping(value, pointer)
    _known_keys(value, pointer, [f.name for f in fields(AnalysisParams)])
    kwargs = {}
    if "winding_radius" in value:
        rp, x = pointer + "/winding_radius", value["winding_radius"]
        kwargs["winding_radius"] = r = _double(x, rp)
        if r <= 0:
            _fail(rp, "radius rounds to 0.0" if _scalar(x, rp) > 0 else "radius must be positive")
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
            u, v = _scalar(s[0], sp + "/0"), _scalar(s[1], sp + "/1")
            if not (grid.u_min <= u <= grid.u_max and grid.v_min <= v <= grid.v_max):
                _fail(sp, "seed lies outside the grid rectangle")  # tested before rounding
            seeds.append((float(u), float(v)))
        kwargs["seeds"] = tuple(seeds)
    return AnalysisParams(**kwargs)


@dataclass(frozen=True)
class RawChart:
    """Route "chart": the given per-node arrays, with no immersion and no
    Hopf data, so `generate` and `index` are refused at /route."""

    arrays: SurfaceChart
    tag = {}  # added to each command's output metadata: nothing for a raw chart

    @classmethod
    def build(cls, arrays: dict, grid: GridSpec, data: dict, strict: bool) -> "RawChart":
        sign = data.get("metric_sign", 1)
        if not (_int_in(sign, -1, 1) and sign != 0):
            _fail("/data/metric_sign", "metric_sign must be +1 or -1")
        return cls(chart_from_arrays(grid, metric_sign=sign, **arrays))

    def chart(self, grid: GridSpec) -> SurfaceChart:
        return self.arrays

    def grid_coordinates(self, grid: GridSpec):
        _fail("/route", "generate needs a generated route (ko/null/kobayashi)")

    def index_report(self, analysis):
        _fail("/route", "index needs a generated route (ko/null/kobayashi)")

    def flow_fields(self, analysis) -> tuple:
        return (), [], "classification only: no analytic flow data for this chart"


@dataclass(frozen=True)
class ResolvedSpec:
    """A validated spec with its one surface object, whatever the route."""

    route: str
    grid: GridSpec
    analysis: AnalysisParams
    patch: Union[ImmersionPatch, SpacelikePatch, RawChart]
    echo: dict = field(default_factory=dict)


# per route: data keys, reader of each value, word for a missing key, surface maker
_ROUTE_DATA = {
    "ko": (("g", "omega_hat"), _parafunction, "para-holomorphic datum",
           lambda p, grid, data, strict: generate_ko(WeierstrassData(**p), strict=strict)),
    "null": (("g1", "g2", "w1", "w2"), _branch, "branch datum",
             lambda p, grid, data, strict: generate_null(**p, strict=strict)),
    "kobayashi": (("g", "omega_hat"), _cpoly, "holomorphic datum",
                  lambda p, grid, data, strict: generate_kobayashi(ComplexWeierstrassData(**p))),
    "chart": (("sigma", "L", "M", "N"), _matrix, "chart array", RawChart.build),
}
ROUTES = tuple(_ROUTE_DATA)


def resolve(spec: dict, minimum_nodes: int = 16) -> ResolvedSpec:
    """Validate a spec document and construct its surface object."""
    spec = expect_mapping(spec, "")
    _known_keys(spec, "", ("route", "grid", "analysis", "data", "allow_degenerate_base"))
    route = spec.get("route")
    if route not in ROUTES:
        _fail("/route", f"route must be one of {ROUTES}, got {_echo(route)}")
    grid = _grid(spec.get("grid"), "/grid", minimum_nodes)
    analysis = _analysis(spec.get("analysis"), "/analysis", grid)
    data = expect_mapping(spec.get("data"), "/data")
    allow = spec.get("allow_degenerate_base", False)
    if not isinstance(allow, bool):
        _fail("/allow_degenerate_base", f"expected true or false, got {_echo(allow)}")

    keys, read, word, make = _ROUTE_DATA[route]
    _known_keys(data, "/data", keys + (("metric_sign",) if route == "chart" else ()))
    if read is _matrix:
        read = functools.partial(_matrix, grid=grid)
    parsed = {}
    for key in keys:
        if key not in data:
            _fail(f"/data/{key}", f"missing {word}")
        parsed[key] = read(data[key], f"/data/{key}")
    try:
        patch = make(parsed, grid, data, not allow)
    except DegenerateDataError as exc:
        _fail("/data", f"{exc}; \"allow_degenerate_base\": true accepts such data")
    return ResolvedSpec(route, grid, analysis, patch, echo=spec)
