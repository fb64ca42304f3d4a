"""Curvature lines as level sets of a separable first integral.

In null coordinates x = (u + v)/2, y = (u - v)/2 the eigenfield
X1 = (p + q) d/du + (-p + q) d/dv of `umbilic.eigenfields` moves as
dx/dt = q(y), dy/dt = p(x), with p = x^n1 sqrt(alpha(x)) and
q = y^n-1 sqrt(beta(y)); X2 negates p.  So every curvature line of X_s
(s = +1 for X1, -1 for X2) lies on a level set of H_s = s A(x) - B(y),
where A' = p and B' = q.  A and B are integrated here from the branch
normal form by 40-point Gauss-Legendre quadrature, independently of the
fields and of the RK4 march, and every polyline that `flow` draws must keep
H_s within a relative drift of 1e-8 of its scale max |A| + |B| on the line.
"""

import numpy as np
import pytest

from test_compiled_fields import _null_spec
from zmcsurf.cli import _flow_polylines
from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import resolve

DRIFT = 1e-8
NODES, WEIGHTS = np.polynomial.legendre.leggauss(40)

SPECS = {
    "z3": lambda: preset_spec("z3"),
    "z5": lambda: preset_spec("z5"),
    "deg26": lambda: preset_spec("deg26"),
    "null_m24_fraction": lambda: _null_spec(1, (2, 4), False),
    "null_m42_float": lambda: _null_spec(1, (4, 2), True),
}


def _primitive(psi, order, delta):
    """t -> the integral from 0 to t of s^(order/2) sqrt(delta psi(s)), at
    a float array t."""
    coeffs = psi.poly.float_coeffs()

    def integrand(s):
        return s ** (order // 2) * np.sqrt(delta * np.polyval(coeffs, s))

    def primitive(t):
        t = np.asarray(t, float)[:, None]
        return (t[:, 0] / 2.0) * (integrand(t / 2.0 * (NODES + 1.0)) @ WEIGHTS)

    return primitive


def _first_integrals(patch):
    """(A, B) of the patch's Hopf coefficient."""
    nf = patch.hopf().normal_form(16)
    delta = 1.0 if nf.psi_plus_0 > 0 else -1.0
    return (_primitive(nf.psi_plus, nf.orders.plus.order, delta),
            _primitive(nf.psi_minus, nf.orders.minus.order, delta))


def _drift(line, s, A, B) -> float:
    x, y = (line[:, 0] + line[:, 1]) / 2.0, (line[:, 0] - line[:, 1]) / 2.0
    a, b = A(x), B(y)
    h = s * a - b
    return float((h.max() - h.min()) / np.max(np.abs(a) + np.abs(b)))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_every_streamline_keeps_its_first_integral(name):
    resolved = resolve(SPECS[name]())
    fields, _, banner = resolved.patch.flow_fields(resolved.analysis)
    assert [f.name for f in fields] == ["X1", "X2"] and banner == ""
    A, B = _first_integrals(resolved.patch)
    drawn = 0
    for s, lines in zip((1.0, -1.0), _flow_polylines(resolved, fields)):
        for line in lines:
            assert len(line) > 100
            assert _drift(line, s, A, B) <= DRIFT
            drawn += 1
    assert drawn == 2 * len(resolved.analysis.seeds)
