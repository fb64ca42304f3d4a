"""Two exact invariants of the chart that no output digest states.

* Refinement: a node's surface.csv and classification.csv rows depend on
  the node alone.  Every node of the 33 x 33 grid is a node of the 65 x 65
  grid over the same rectangle, (i, j) -> (2i, 2j), and its rows there are
  the same text.  exA2's classify refuses at both grids, so only its
  surface.csv is compared.
* Branch swap: swapping (g1, w1) with (g2, w2) of a null spec trades x and
  y, so it reflects v.  The kinds, mask, sigma, L, N and D are those of the
  original with v reversed, and M is negated, bit for bit; the text of
  surface.csv and classification.csv follows, column by column (the
  derivation is at `SWAP_COLUMNS`).  On ko data the swap is the
  split-complex conjugate of g and omega_hat, checked on drawn specs.

A node value that depended on the node's place in an evaluation block, or
on a neighbour's null coordinate, would move a row between the two grids.
A derandomized sweep checks refinement, n x n -> (2n - 1) x (2n - 1), on
drawn Fraction null and ko specs, drawn complex-coefficient kobayashi specs
and every `spec_cases` entry with a generated chart, and also against a
sub-rectangle of the finer grid with its spacing, whose rows are the finer
grid's rows there.
"""

import copy
import tempfile
from fractions import Fraction

import numpy as np
import pytest

from zmcsurf.geometry import KIND_POSITIVE, KIND_QUASI, NumericGuardError, classify_chart
from zmcsurf.outputs import classification_lines, surface_lines
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import SpecError, resolve

from spec_cases import GRID, SPEC_CASES, null_spec, poly
from test_route_properties import _ko_and_null, g_pairs, w_pairs

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# keep hypothesis's storage out of the working directory (see test_spec_fuzz)
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

SWEEP = settings(derandomize=True, database=None, deadline=None, max_examples=25)

COARSE, FINE = 33, 65


def _chart(spec, n):
    """(chart, patch) of `spec` on its rectangle at n x n nodes."""
    spec = copy.deepcopy(spec)
    spec["grid"].update(nu=n, nv=n)
    resolved = resolve(spec)
    return resolved.patch.chart(resolved.grid), resolved.patch


def _rows(name, n):
    """(surface.csv, classification.csv or None) lines of preset `name` at n x n."""
    chart, patch = _chart(preset_spec(name), n)
    surface = "".join(surface_lines(chart, patch)).splitlines()
    if name == "exA2":
        return surface, None
    return surface, "".join(classification_lines(classify_chart(chart))).splitlines()


@pytest.mark.parametrize("name", ["z3", "z5", "f1", "f2", "deg26", "plane", "exA1",
                                  "spacelike_m2", "exA2"])
def test_rows_at_common_nodes_do_not_depend_on_the_grid(name):
    coarse, fine = _rows(name, COARSE), _rows(name, FINE)
    for coarse_lines, fine_lines in zip(coarse, fine):
        if coarse_lines is None:
            continue
        assert coarse_lines[0] == fine_lines[0]
        for i in range(COARSE):
            for j in range(COARSE):
                assert coarse_lines[1 + i * COARSE + j] == fine_lines[1 + 2 * i * FINE + 2 * j], \
                    (i, j)


def _swapped(spec):
    data = spec["data"]
    data["g1"], data["g2"], data["w1"], data["w2"] = data["g2"], data["g1"], data["w2"], data["w1"]
    return spec


def _same(text, left):
    return text


def _negated(text, left=None):
    """The text of the negated value.  Every zero the chart and the
    coordinates print here is +0.0, and stays "0"; nan and blanks stay."""
    if text in ("0", "nan", ""):
        return text
    return text[1:] if text.startswith("-") else "-" + text


def _reflected_dv(text, du):
    """dv of a reflected direction: negated, except that a direction with
    du = 0 is (0, 1) both ways, its first non-zero component positive, and
    a zero dv keeps its text: it comes with M = 0, which both charts hold
    as +0.0 (a node on v = 0 of a self-conjugate ko spec prints (1, -0)
    on both)."""
    return text if du in ("0", "-0") or text in ("0", "-0") else _negated(text)


# How each column of a node's row moves under the swap, given the text of
# the column to its left.  Node (u, v) of the swapped spec has x' = (u + v)/2
# = y and y' = x, the null coordinates of the original node (u, -v), whose
# row is the one compared (v reversed, on the presets' rectangle [-1, 1]^2):
# * u is the same node coordinate; v is -v.
# * f = (A1(x) - A2(y), B1(x) + B2(y), C1(x) + C2(y)), where (A, B, C) are
#   the primitives of ((1 - g^2) w, 2 g w, (1 + g^2) w) and the y-branch
#   enters A with a minus; swapped, f0 = A2(y) - A1(x) is negated and f1, f2
#   are the same sums.  Each is the rounding of an exact value, and rounding
#   to nearest is odd, so the text is negated.
# * sigma = log|(1 - g1 g2)^2 w1 w2| / 2 is symmetric in the two branches,
#   and so are L = N = (lx + ny)/4; M = (lx - ny)/4 is negated.
# * kind: the Hopf signs trade places, and the kinds read them symmetrically
#   (both zero, one zero, the sign of their product); D = e^(-4 sigma)
#   ((L + N)^2 - 4 M^2) is even in M.
# * directions: with M negated the shape operator is the original's
#   conjugated by the reflection (du, dv) -> (du, -dv), so each direction
#   keeps du and negates dv (`_reflected_dv`); the quasi-umbilic direction
#   (s, 1) goes to (-s, 1), the same line as (s, -1).
SWAP_COLUMNS = {
    "surface": (_same, _negated, _negated, _same, _same, _same, _same, _negated, _same),
    "classification": (_same, _negated, _same, _same, _same, _reflected_dv, _same,
                       _reflected_dv),
}


def _assert_swapped(spec, swapped_spec, n):
    """The charts, kinds, D and CSV text of `swapped_spec` at n x n are those
    of `spec` moved as above; returns the original's classification."""
    original, patch = _chart(spec, n)
    swapped, swapped_patch = _chart(swapped_spec, n)
    assert np.array_equal(swapped.mask, original.mask[:, ::-1])
    for form in ("sigma", "L", "N"):
        assert np.array_equal(getattr(swapped, form), getattr(original, form)[:, ::-1],
                              equal_nan=True), form
    assert np.array_equal(swapped.M, -original.M[:, ::-1], equal_nan=True)
    cls, swapped_cls = classify_chart(original), classify_chart(swapped)
    assert np.array_equal(swapped_cls.kinds, cls.kinds[:, ::-1])
    assert np.array_equal(swapped_cls.D, cls.D[:, ::-1], equal_nan=True)
    files = {"surface": (surface_lines(original, patch), surface_lines(swapped, swapped_patch)),
             "classification": (classification_lines(cls), classification_lines(swapped_cls))}
    for key, (lines, swapped_lines) in files.items():
        want, got = "".join(lines).splitlines(), "".join(swapped_lines).splitlines()
        assert got[0] == want[0]
        for row, line in enumerate(got[1:]):
            i, j = divmod(row, n)
            fields = want[1 + i * n + n - 1 - j].split(",")
            moved = [move(text, left) for move, text, left
                     in zip(SWAP_COLUMNS[key], fields, [""] + fields)]
            assert line.split(",") == moved, (key, i, j)
    return cls


@pytest.mark.parametrize("name", ["f1", "f2", "deg26"])
def test_swapping_the_branches_reverses_v_and_negates_m(name):
    cls = _assert_swapped(preset_spec(name), _swapped(preset_spec(name)), COARSE)
    assert {KIND_POSITIVE, KIND_QUASI} <= set(np.unique(cls.kinds).tolist())


@SWEEP
@given(g_pairs, w_pairs)
def test_conjugating_ko_data_swaps_the_branches(g, w):
    """The split-complex conjugate a - b j of each coefficient a + b j of g
    and omega_hat trades the null projections a + b and a - b, that is, the
    branches (g1, w1) and (g2, w2): the swap above, on ko data."""
    ko, _ = _ko_and_null([(Fraction(0), Fraction(0))] + g, [w[0]] + w[1])
    conjugate = copy.deepcopy(ko)
    for key in ("g", "omega_hat"):
        for coefficient in conjugate["data"][key]["z_poly"]:
            coefficient[1] = str(-Fraction(coefficient[1]))
    _assert_swapped(ko, conjugate, 17)


def _spec_rows(spec, grid=None):
    """(surface.csv lines, classification.csv lines) of `spec` on its grid
    updated by `grid`; a file that refuses a value is None.  Analysis
    settings play no part, and a seed could lie outside the grid."""
    spec = copy.deepcopy(spec)
    spec["grid"].update(grid or {})
    spec.pop("analysis", None)
    resolved = resolve(spec, minimum_nodes=2)
    rows = []
    for lines in (lambda c: surface_lines(c, resolved.patch),
                  lambda c: classification_lines(classify_chart(c))):
        try:
            rows.append("".join(lines(resolved.patch.chart(resolved.grid))).splitlines())
        except (NumericGuardError, OverflowError):
            rows.append(None)
    return rows


def _refines(spec, n, sub):
    """Rows of the n x n grid at its nodes in the (2n - 1) x (2n - 1) grid
    over the same rectangle, and rows of the sub-rectangle of the finer grid
    from node sub[:2] with sub[2:] steps, equal text node for node."""
    fine_n = 2 * n - 1
    fine = _spec_rows(spec, {"nu": fine_n, "nv": fine_n})
    resolved = resolve({**spec, "grid": {**spec["grid"], "nu": fine_n, "nv": fine_n}})
    us, vs = resolved.grid.u_nodes(), resolved.grid.v_nodes()
    a, b = min(sub[0], fine_n - 2), min(sub[1], fine_n - 2)
    k, m = min(sub[2], fine_n - 1 - a), min(sub[3], fine_n - 1 - b)
    rectangle = {"u_min": str(us[a]), "u_max": str(us[a + k]), "nu": k + 1,
                 "v_min": str(vs[b]), "v_max": str(vs[b + m]), "nv": m + 1}
    checks = [(_spec_rows(spec, {"nu": n, "nv": n}), n, lambda i, j: (2 * i, 2 * j)),
              (_spec_rows(spec, rectangle), m + 1, lambda i, j: (a + i, b + j))]
    for rows, nv, place in checks:
        for got, want in zip(rows, fine):
            if got is None or want is None:
                continue
            assert got[0] == want[0]
            for row, line in enumerate(got[1:]):
                i, j = place(*divmod(row, nv))
                assert line == want[1 + i * fine_n + j], (i, j)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=9)
corners = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(1, 16), st.integers(1, 16))


@SWEEP
@given(st.lists(rationals, min_size=1, max_size=4), st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, max_size=2), st.lists(rationals, max_size=2), corners)
def test_null_spec_rows_do_not_depend_on_the_grid(g1, g2, w1, w2, sub):
    branch = lambda head, tail: poly(*map(str, head + tail))
    spec = null_spec(branch([0], g1), branch([0], g2), branch([1], w1), branch([1], w2))
    _refines(spec, 17, sub)


@SWEEP
@given(g_pairs, w_pairs, corners)
def test_ko_spec_rows_do_not_depend_on_the_grid(g, w, sub):
    ko, _ = _ko_and_null([(Fraction(0), Fraction(0))] + g, [w[0]] + w[1])
    _refines(ko, 17, sub)


complexes = st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(list), min_size=1,
                     max_size=3)


@SWEEP
@given(complexes, complexes, corners)
def test_kobayashi_spec_rows_do_not_depend_on_the_grid(g, w, sub):
    spec = {"route": "kobayashi", "data": {"g": [0] + g, "omega_hat": w}, "grid": dict(GRID)}
    _refines(spec, 17, sub)


def _generated(name):
    try:
        return SPEC_CASES[name][0]["route"] != "chart" and bool(resolve(SPEC_CASES[name][0]))
    except SpecError:
        return False


@pytest.mark.parametrize("name", [name for name in SPEC_CASES if _generated(name)])
def test_spec_case_rows_do_not_depend_on_the_grid(name):
    _refines(SPEC_CASES[name][0], 17, (5, 7, 9, 6))
