"""The float-coefficient eigenfields against the exact-branch reference.

`umbilic.eigenfields` converts the psi coefficients to floats once; the
reference in `oracles` evaluates the exact psi branches on every call.
Both must give the same bits, the same refusals and the same streamlines.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from zmcsurf.flow import streamlines, winding_index
from zmcsurf.parafunc import ParaFunction
from zmcsurf.poly import Poly
from zmcsurf.presets import load_preset
from zmcsurf.surfacespec import DEFAULT_SEEDS, resolve
from zmcsurf.umbilic import eigenfields

SMALL = (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8))
LEADING = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2))


def _null_spec(seed, orders, as_float):
    """Admissible even-order umbilic: g_i' = c_i t^m_i (1 + a t + b t^2),
    w_i = 1 + p t + q t^2 with small a, b, p, q (the benchmark's family)."""
    rng = random.Random(seed)
    small = lambda: rng.choice((-1, 1)) * rng.choice(SMALL)
    conv = float if as_float else (lambda c: str(Fraction(c)))
    sign = rng.choice((-1, 1))
    data = {}
    for k, m in zip((1, 2), orders):
        c = sign * rng.choice(LEADING)
        a, b = small(), small()
        g = [0] * (m + 1) + [c / (m + 1), c * a / (m + 2), c * b / (m + 3)]
        data[f"g{k}"] = {"kind": "poly", "coeffs": [conv(x) for x in g]}
        data[f"w{k}"] = {"kind": "poly", "coeffs": [conv(x) for x in (1, small(), small())]}
    return {
        "route": "null",
        "data": data,
        "grid": {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17},
    }


def _narrow_domain_hopf():
    # Fraction coefficients; the rescaled branches 1 - 25 t^2 turn negative
    spec = _null_spec(0, (2, 2), False)
    for k in (1, 2):
        spec["data"][f"g{k}"] = {"kind": "poly", "coeffs": [0, 0, 0, 1]}
        spec["data"][f"w{k}"] = {"kind": "poly", "coeffs": [1, 0, -25]}
    return resolve(spec).patch.hopf()


def _integer_hopf():
    # int coefficients reach psi unchanged: psi_plus = 1 + t - 2 t^2 is
    # negative for t > 1/2, psi_minus = 2 + t
    return ParaFunction.from_branches([0, 0, 1, 1, -2], [0, 0, 0, 0, 2, 1])


HOPF = {
    "z3": lambda: load_preset("z3").patch.hopf(),
    "z5": lambda: load_preset("z5").patch.hopf(),
    "deg26": lambda: load_preset("deg26").patch.hopf(),
    "null_m24_fraction": lambda: resolve(_null_spec(1, (2, 4), False)).patch.hopf(),
    "null_m42_fraction": lambda: resolve(_null_spec(2, (4, 2), False)).patch.hopf(),
    "null_m24_float": lambda: resolve(_null_spec(3, (2, 4), True)).patch.hopf(),
    "null_m42_float": lambda: resolve(_null_spec(1, (4, 2), True)).patch.hopf(),
    "narrow_domain": _narrow_domain_hopf,
    "integer": _integer_hopf,
}


def _points(n=1000):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(n, 2)).tolist()
    return pts + [[0.0, 0.0], [-0.0, 0.0], [0.5, 0.5], [1.0, -1.0], [-1.0, -1.0]]


def _outcome(field, u, v):
    try:
        p, q = field(u, v)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return (p.hex(), q.hex())


@pytest.mark.parametrize("name", sorted(HOPF))
def test_compiled_fields_are_bitwise_the_reference(name):
    qhat = HOPF[name]()
    compiled, reference = eigenfields(qhat), oracles.reference_eigenfields(qhat)
    refused = 0
    for new, ref in zip(compiled, reference):
        assert new.name == ref.name
        for u, v in _points():
            want = _outcome(ref, u, v)
            assert _outcome(new, u, v) == want, (new.name, u, v)
            refused += want[0] == "ValueError"
    if name in ("narrow_domain", "integer"):
        assert refused > 0


@pytest.mark.parametrize("name", ["z3", "deg26", "null_m24_fraction", "null_m42_float", "integer"])
def test_compiled_streamlines_equal_the_reference(name):
    qhat = HOPF[name]()
    for new, ref in zip(eigenfields(qhat), oracles.reference_eigenfields(qhat)):
        kwargs = dict(step=4e-3, max_len=1.2, bounds=(-1.0, 1.0, -1.0, 1.0))
        got = streamlines(new, DEFAULT_SEEDS, **kwargs)
        want = streamlines(ref, DEFAULT_SEEDS, **kwargs)
        assert len(got) == len(want) == len(DEFAULT_SEEDS)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def test_eigenfield_evaluation_makes_no_poly_calls(monkeypatch):
    fields = eigenfields(HOPF["null_m24_fraction"]())
    calls = []
    exact_call = Poly.__call__

    def counted(self, t):
        calls.append(t)
        return exact_call(self, t)

    monkeypatch.setattr(Poly, "__call__", counted)
    for f in fields:
        f(0.3, -0.2)
        winding_index(f, radius=0.1, samples=720)
    assert calls == []
