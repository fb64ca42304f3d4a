"""Two exact invariants of the chart that no output digest states.

* Refinement: a node's surface.csv and classification.csv rows depend on
  the node alone.  Every node of the 33 x 33 grid is a node of the 65 x 65
  grid over the same rectangle, (i, j) -> (2i, 2j), and its rows there are
  the same text.  exA2's classify refuses at both grids, so only its
  surface.csv is compared.
* Branch swap: swapping (g1, w1) with (g2, w2) of a null spec trades x and
  y, so it reflects v.  The kinds, mask, sigma, L, N and D are those of the
  original with v reversed, and M is negated, bit for bit.

A node value that depended on the node's place in an evaluation block, or
on a neighbour's null coordinate, would move a row between the two grids.
"""

import copy

import numpy as np
import pytest

from zmcsurf.geometry import classify_chart
from zmcsurf.outputs import classification_lines, surface_lines
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import resolve

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


@pytest.mark.parametrize("name", ["f1", "f2", "deg26"])
def test_swapping_the_branches_reverses_v_and_negates_m(name):
    original, _ = _chart(preset_spec(name), COARSE)
    swapped, _ = _chart(_swapped(preset_spec(name)), COARSE)
    for form in ("mask", "sigma", "L", "N"):
        assert np.array_equal(getattr(swapped, form), getattr(original, form)[:, ::-1]), form
    assert np.array_equal(swapped.M, -original.M[:, ::-1])
    cls, swapped_cls = classify_chart(original), classify_chart(swapped)
    assert len(np.unique(cls.kinds)) > 1
    assert np.array_equal(swapped_cls.kinds, cls.kinds[:, ::-1])
    assert np.array_equal(swapped_cls.D, cls.D[:, ::-1], equal_nan=True)
