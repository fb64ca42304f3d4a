"""Frozen closed-form immersions used as generation oracles.

Each entry is the independently expanded closed form for its data set
(frozen here, evaluated with exact rational arithmetic).  The
z-power surfaces are functions of (u, v); the null-coordinate surfaces are
functions of (x, y).

`exact_horner` is Horner's rule over a polynomial's exact coefficients,
the oracle for the float path of `Poly.__call__`.

`reference_eigenfields` is the uncompiled evaluation of the umbilic
eigenfields through `exact_horner`, the oracle for the float-coefficient
fields of `zmcsurf.umbilic.eigenfields`.

`reference_spacelike_classification_csv` is the space-like classifier and
writer that ran beside the shared pipeline before space-like charts went
through it, the oracle for `classification_csv(classify_chart(chart))`.

`reference_classify_node` is the per-node time-like classifier that ran
before charts were classified as arrays, the oracle for
`ChartClassification.point`.
"""

import math
from fractions import Fraction as F

import numpy as np

from zmcsurf.flow import FlowField
from zmcsurf.geometry import (
    KIND_MASKED,
    KIND_NEGATIVE,
    KIND_POSITIVE,
    KIND_QUASI,
    KIND_UMBILIC,
    PointClass,
    _exact_branch_values,
)
from zmcsurf.outputs import CLASSIFICATION_COLUMNS, _csv_line, fmt


def z2_surface(u, v):
    return (
        -v * (5 * u**4 + 10 * u**2 * v**2 + v**4 - 5) / 5,
        2 * u * (u**2 + 3 * v**2) / 3,
        (u**5 + 10 * u**3 * v**2 + 5 * u * v**4 + 5 * u) / 5,
    )


def z3_surface(u, v):
    return (
        -v * (7 * u**6 + 35 * u**4 * v**2 + 21 * u**2 * v**4 + v**6 - 7) / 7,
        (u**4 + 6 * u**2 * v**2 + v**4) / 2,
        u * (u**6 + 21 * u**4 * v**2 + 35 * u**2 * v**4 + 7 * v**6 + 7) / 7,
    )


def z5_surface(u, v):
    return (
        -(u**10) * v
        - 15 * u**8 * v**3
        - 42 * u**6 * v**5
        - 30 * u**4 * v**7
        - 5 * u**2 * v**9
        - v**11 / F(11)
        + v,
        (u**2 + v**2) * (u**4 + 14 * u**2 * v**2 + v**4) / 3,
        u**11 / F(11)
        + 5 * u**9 * v**2
        + 30 * u**7 * v**4
        + 42 * u**5 * v**6
        + 15 * u**3 * v**8
        + u * v**10
        + u,
    )


def f1_surface(x, y):
    return (
        -(x**3) / 3 + x + y * (y**4 - 5) / 5,
        x**2 + 2 * y**3 / 3,
        x**3 / 3 + x + y**5 / 5 + y,
    )


def f2_surface(x, y):
    return (
        -(x**3) / 3 + x + y * (y**6 - 7) / 7,
        x**2 + y**4 / 2,
        x**3 / 3 + x + y**7 / 7 + y,
    )


def deg26_surface(x, y):
    return (
        -(x**7) / 7 + x + y**15 / F(15) - y,
        (2 * x**4 + y**8) / 4,
        x**7 / 7 + x + y**15 / F(15) + y,
    )


def exa1_surface(x, y):
    return (
        x - 16 * x**3 / 3 - y,
        -4 * x**2,
        x + 16 * x**3 / 3 + y,
    )


def plane_surface(x, y):
    return (x - y, 0 * x, x + y)


#: oracle registry: name -> (callable, argument kind)
UV_SURFACES = {"z2": z2_surface, "z3": z3_surface, "z5": z5_surface}
XY_SURFACES = {
    "f1": f1_surface,
    "f2": f2_surface,
    "deg26": deg26_surface,
    "exA1": exa1_surface,
    "plane": plane_surface,
}


def exact_horner(p, t):
    """p(t) by Horner's rule from acc = 0 over p's exact coefficients, at
    every point the loop `Poly.__call__` runs at a non-float one."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * t + c
    return acc


def reference_eigenfields(qhat, cap=16):
    """X1, X2 at an admissible umbilic, evaluating the exact psi
    polynomials by `exact_horner` at the float point on every call;
    admissibility is not re-checked here."""
    nf = qhat.normal_form(cap)
    delta = 1 if nf.psi_plus_0 > 0 else -1
    n1, nm1 = nf.orders.plus.order // 2, nf.orders.minus.order // 2
    alpha, beta = nf.psi_plus.poly, nf.psi_minus.poly

    def components(u, v):
        x, y = (u + v) / 2.0, (u - v) / 2.0
        a = delta * float(exact_horner(alpha, x))
        b = delta * float(exact_horner(beta, y))
        if a <= 0.0 or b <= 0.0:
            raise ValueError("eigenfield undefined: rescaled branch not positive")
        return x**n1 * math.sqrt(a), y**nm1 * math.sqrt(b)

    def x1(u, v):
        p, q = components(u, v)
        return (p + q, -p + q)

    def x2(u, v):
        p, q = components(u, v)
        return (-p + q, p + q)

    return FlowField(x1, name="X1"), FlowField(x2, name="X2")


def reference_spacelike_classification_csv(chart) -> str:
    """Classification CSV of a space-like chart: a node is umbilic when
    |L - N| and |2M| are within 1e-9 (1 + |L| + |N| + |M|), else positive."""
    out = [_csv_line(CLASSIFICATION_COLUMNS)]
    for i, u in enumerate(chart.grid.u_nodes()):
        for j, v in enumerate(chart.grid.v_nodes()):
            if not chart.mask[i, j]:
                out.append(_csv_line([fmt(float(u)), fmt(float(v)), "masked", "", "", "", "", ""]))
                continue
            L, M, N = chart.L[i, j], chart.M[i, j], chart.N[i, j]
            tau = 1e-9 * (1.0 + abs(L) + abs(N) + abs(M))
            umbilic = abs(L - N) <= tau and abs(2.0 * M) <= tau
            a = (L - N) / 2.0
            disc = ((L - N) ** 2 + 4 * M * M) * math.exp(-4.0 * chart.sigma[i, j])
            if umbilic:
                d1 = d2 = None
            else:
                theta = 0.5 * math.atan2(M, a)
                d1 = (math.cos(theta), math.sin(theta))
                d2 = (-d1[1], d1[0])
            row = [
                fmt(float(u)),
                fmt(float(v)),
                "umbilic" if umbilic else "positive",
                fmt(disc),
                fmt(d1[0]) if d1 else "",
                fmt(d1[1]) if d1 else "",
                fmt(d2[0]) if d2 else "",
                fmt(d2[1]) if d2 else "",
            ]
            out.append(_csv_line(row))
    return "".join(out)


def _sign_fix(vec):
    for c in vec:
        if c != 0:
            return vec if c > 0 else -vec
    return vec


def _unit(p, q):
    p, q = float(p), float(q)
    n = math.sqrt(p * p + q * q)
    return _sign_fix(np.array([p / n, q / n]))


def _eigendirections(a, b, r):
    """Eigenvectors of [[a, b], [-b, -a]]/2 for eigenvalues +-r/2."""
    dirs = []
    for lam in (r, -r):
        v1 = (b, lam - a)  # from the first matrix row
        v2 = (a + lam, -b)  # from the second
        v = max((v1, v2), key=lambda w: w[0] * w[0] + w[1] * w[1])
        dirs.append(_unit(*v))
    return tuple(dirs)


def _eigen_pair(chart, i, j, r):
    s = float(chart.metric_sign[i, j])
    f = s * math.exp(-2.0 * chart.sigma[i, j])
    t = float(chart.L[i, j] - chart.N[i, j])
    return (f * (t + r) / 2.0, f * (t - r) / 2.0)


def reference_classify_node(chart, i, j):
    """Classify one time-like node: exact sign tests on the Hopf branch
    values when the chart carries them, else a tolerance."""
    if not chart.mask[i, j]:
        return PointClass(KIND_MASKED, float("nan"), (), None)

    L = float(chart.L[i, j])
    M = float(chart.M[i, j])
    N = float(chart.N[i, j])
    sigma = float(chart.sigma[i, j])
    a = L + N
    b = 2.0 * M
    D = math.exp(-4.0 * sigma) * (a * a - b * b)

    exact = _exact_branch_values(chart, i, j)
    if exact is not None:
        pp, mm = exact
        if pp == 0 and mm == 0:
            return PointClass(KIND_UMBILIC, 0.0, (), _eigen_pair(chart, i, j, 0.0))
        if pp == 0 or mm == 0:
            s = 1 if pp == 0 else -1
            return PointClass(
                KIND_QUASI, 0.0, (_unit(s, 1),), _eigen_pair(chart, i, j, 0.0)
            )
        same_sign = (pp > 0 and mm > 0) or (pp < 0 and mm < 0)
        kind = KIND_POSITIVE if same_sign else KIND_NEGATIVE
        if kind == KIND_NEGATIVE:
            return PointClass(kind, D, (), None)
        r = math.sqrt(abs(a * a - b * b))
        return PointClass(
            kind, D, _eigendirections(a, b, r), _eigen_pair(chart, i, j, r)
        )

    tau = 1e-9 * (1.0 + abs(L) + abs(N) + abs(M))
    if abs(a) <= tau and abs(b) <= tau:
        return PointClass(KIND_UMBILIC, D, (), _eigen_pair(chart, i, j, 0.0), True)
    if abs(abs(a) - abs(b)) <= tau:
        # degenerate eigenvalue; unique null direction (b, -a) up to scale
        return PointClass(
            KIND_QUASI, D, (_unit(b, -a),), _eigen_pair(chart, i, j, 0.0), True
        )
    if abs(a) > abs(b):
        r = math.sqrt(a * a - b * b)
        return PointClass(
            KIND_POSITIVE, D, _eigendirections(a, b, r), _eigen_pair(chart, i, j, r)
        )
    return PointClass(KIND_NEGATIVE, D, (), None)
