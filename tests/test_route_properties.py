"""Two properties over random data, drawn derandomized with no example
database, so every run draws the same examples.

* The `ko` route and the `null` route of its split branches build the same
  surface: surface.csv and classification.csv agree byte for byte.
* The perpendicular field (`flow.perpendicular`) negates the measured
  index of X1 and X2 at an admissible umbilic.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from zmcsurf.cli import main
from zmcsurf.flow import perpendicular, winding_index
from zmcsurf.umbilic import eigenfields

from spec_cases import GRID, null_spec, poly
from test_mod4_property import _qhat, branch

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# keep hypothesis's storage out of the working directory (see test_spec_fuzz)
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=10)

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
nonzero = rationals.filter(bool)
# (plus, minus) projections of each z^k coefficient: g vanishes at 0 and
# omega_hat is not null there
g_pairs = st.lists(st.tuples(rationals, rationals), min_size=1, max_size=3)
w_pairs = st.tuples(st.tuples(nonzero, nonzero), st.lists(st.tuples(rationals, rationals), max_size=2))


def _ko_and_null(g, w):
    """A ko spec whose z^k coefficient has null projections (p, m), and the
    null spec of its branches: z^k projects to (2x)^k and (2y)^k."""
    z_poly = lambda pairs: [
        [str((p + m) / 2 / 2**k), str((p - m) / 2 / 2**k)] for k, (p, m) in enumerate(pairs)
    ]
    branch_of = lambda pairs, s: poly(*(str(pm[s]) for pm in pairs))
    data = {"g": {"z_poly": z_poly(g)}, "omega_hat": {"z_poly": z_poly(w)}}
    ko = {"route": "ko", "data": data, "grid": dict(GRID)}
    null = null_spec(branch_of(g, 0), branch_of(g, 1), branch_of(w, 0), branch_of(w, 1))
    return ko, null


def _outputs(spec, cmd, work: Path):
    """(exit code, stderr, {file name: bytes}) of one run, for the CSV
    files; metadata.json and summary.json name the route."""
    path = work / "spec.json"
    path.write_text(json.dumps(spec))
    out = work / f"{cmd}_{spec['route']}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([cmd, "--spec", str(path), "--out", str(out)])
    files = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
    return code, err.getvalue(), files


@PROPERTY
@given(g_pairs, w_pairs)
def test_ko_and_null_routes_write_the_same_files(g, w):
    g = [(Fraction(0), Fraction(0))] + g
    w = [w[0]] + w[1]
    ko, null = _ko_and_null(g, w)
    with tempfile.TemporaryDirectory() as work:
        for cmd in ("generate", "classify"):
            got = _outputs(ko, cmd, Path(work))
            assert got == _outputs(null, cmd, Path(work)), cmd
            assert got[0] != 0 or got[2]


admissible = st.tuples(branch, branch).filter(lambda pm: pm[0][1] * pm[1][1] > 0)


@PROPERTY
@given(admissible)
def test_perpendicular_field_negates_the_index(pair):
    for field in eigenfields(_qhat(*pair)):
        index = winding_index(field, samples=720).index
        assert winding_index(perpendicular(field), samples=720).index == -index, field.name
