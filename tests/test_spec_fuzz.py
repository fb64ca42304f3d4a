"""Spec fuzzing: whatever the spec file holds, the CLI keeps its contract.

`generate` and `classify` at --grid 16 must exit 0, 2 or 3, print one JSON
object on stderr when the exit is non-zero (nothing otherwise), and never
raise.  Three kinds of spec file are drawn: any JSON document, a preset
with one leaf replaced by any JSON value, and arbitrary bytes.  The
examples are derandomized and no example database is kept, so every run
draws the same specs.
"""

import contextlib
import io
import json
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from zmcsurf.cli import main
from zmcsurf.presets import PRESET_ORDER, preset_spec

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# Hypothesis caches the constants it reads from local source files in its
# storage directory, ./.hypothesis by default, and its pytest plugin does so
# at collection time: point it at a directory removed at exit instead.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# the characters of numbers, rational literals and key names, and two
# outside ASCII; a full unicode alphabet costs seconds of set-up per run
text = st.text("0123456789/+-.eEnaifrouteklyp_ \u00e9\u2603", max_size=8)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(text, inner, max_size=4),
    max_leaves=12,
)


def _leaves(value, path=()):
    """The key paths of every scalar or empty container in a document."""
    if not (isinstance(value, (dict, list)) and value):
        yield path
        return
    for key, child in value.items() if isinstance(value, dict) else enumerate(value):
        yield from _leaves(child, path + (key,))


@st.composite
def mutated_presets(draw):
    spec = preset_spec(draw(st.sampled_from(PRESET_ORDER)))
    path = draw(st.sampled_from(list(_leaves(spec))))
    reduce(getitem, path[:-1], spec)[path[-1]] = draw(json_values)
    return spec


def _check_contract(content: bytes):
    with tempfile.TemporaryDirectory() as work:
        spec = Path(work) / "spec.json"
        spec.write_bytes(content)
        for cmd in ("generate", "classify"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([cmd, "--spec", str(spec), "--grid", "16",
                             "--out", str(Path(work) / cmd)])
            assert code in (0, 2, 3), (cmd, code)
            if code == 0:
                assert err.getvalue() == ""
                continue
            assert err.getvalue().count("\n") == 1
            assert isinstance(json.loads(err.getvalue()), dict)


@FUZZ
@given(json_values)
def test_any_json_document(document):
    _check_contract(json.dumps(document).encode())


@FUZZ
@given(mutated_presets())
def test_preset_with_one_leaf_replaced(spec):
    _check_contract(json.dumps(spec).encode())


@FUZZ
@given(st.binary(max_size=64))
def test_arbitrary_bytes(content):
    _check_contract(content)
