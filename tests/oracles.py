"""Frozen closed-form immersions used as generation oracles.

Each entry is the independently expanded closed form for its data set
(frozen here, evaluated with exact rational arithmetic).  The
z-power surfaces are functions of (u, v); the null-coordinate surfaces are
functions of (x, y).

`exact_horner` is Horner's rule over a polynomial's exact coefficients,
the oracle for the float path of `Poly.__call__`.

`reference_gauss_primitive` is the Gauss-Legendre primitive as it ran
before its panels were formed as arrays: one panel per value, one scalar
integrand call per node.  It is the oracle for
`weierstrass._GaussPrimitive.table`, which must give the same bits.

`schoolbook_product` is the coefficient product of `Poly.__mul__` as one
sum of `a_i * b_k` per coefficient, the oracle for its integer
convolution of int/Fraction factors.

`reference_eigenfields` is the uncompiled evaluation of the umbilic
eigenfields through `exact_horner`, the oracle for the float-coefficient
fields of `zmcsurf.umbilic.eigenfields`.

`reference_principal_line_field` is the space-like principal line field
through one `spacelike_hopf` call per sample, the oracle for the flat
closure of `SpacelikePatch.principal_line_field`.

`reference_spacelike_classification_csv` is the space-like classifier and
writer that ran beside the shared pipeline before space-like charts went
through it, the oracle for `classification_csv(classify_chart(chart))`.

`reference_classify_node` is the per-node time-like classifier that ran
before charts were classified as arrays, the oracle for
`ChartClassification.point`.

`reference_accumulate`, `reference_streamlines` and `reference_render_svg`
are the scalar winding loop, streamline march and SVG renderer that ran
before those loops called the field's evaluator directly and formatted
pixel coordinates from arrays: one field call through `FlowField.__call__`
per sample, one `ChartMap.px` and `_f` per point and per cell.  They are
the oracles for `flow._accumulate`, `flow.streamlines` and
`svgplot.render_svg`, which must give the same bits.

The per-point references at the end of this file are called by tests
only, so they live here rather than in the package: finite-difference
and closed-form checks (`para_cr_residual`, `numeric_second_forms`,
`minkowski_cross`, `weingarten`, `eigenfield_check`), the null-component
field constructor `from_null_components`, and the space-like per-point
data `spacelike_conformal_factor`, `spacelike_normal`, `spacelike_hopf`
and `spacelike_forms`.  Their arithmetic is that of the package functions
and methods they were.

`spacelike_factor_and_hopf` and `spacelike_node` are the per-node
arithmetic of the space-like chart before it was evaluated on node
arrays; `reference_spacelike_chart` and `reference_spacelike_coordinates`
run them (and `SpacelikePatch.evaluate`) once per node, the oracles for
`SpacelikePatch.chart` and `grid_coordinates`, which must give the same
bits and raise the same OverflowError.

`chart_from_nodes` is the per-node chart constructor both patch types
used before `geometry.generated_chart` formed charts from arrays: one
record per node, None for a masked node or (metric factor, L, M, N).  It
is the oracle for `generated_chart`'s sigma, sign and masking.
"""

import json
import math
from fractions import Fraction as F

import numpy as np

from zmcsurf.flow import LINE_FIELD, VECTOR_FIELD, FlowField, _ZeroOnCircle
from zmcsurf.geometry import (
    KIND_MASKED,
    KIND_NAMES,
    KIND_NEGATIVE,
    KIND_POSITIVE,
    KIND_QUASI,
    KIND_UMBILIC,
    PointClass,
    SurfaceChart,
    _exact_branch_values,
)
from zmcsurf.outputs import CLASSIFICATION_COLUMNS, fmt
from zmcsurf.spacelike import SpacelikeChart, SpacelikePatch
from zmcsurf.svgplot import FLOW_COLORS, KIND_COLORS, ChartMap
from zmcsurf.weierstrass import _float_point_of, _gauss_legendre, minkowski_dot


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


def reference_gauss_primitive(fn):
    """t -> the integral of the scalar fn over [0, t] by the fixed rule of
    `weierstrass`: the integral up to each knot is cached per sign, and a
    value adds one panel from the largest knot at or below |t| to t."""
    cumulative = {1.0: [-0.0], -1.0: [-0.0]}

    def panel(a, b):
        mid, half = 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a
        return half * math.fsum(w * fn(mid + half * x) for x, w in _gauss_legendre())

    def primitive(t):
        t = float(t)
        if t == 0.0:
            return 0.0
        s = math.copysign(1.0, t)
        knot = lambda k: s * math.ldexp(1.0, k - 6) if k else 0.0  # 0, s h 2^(k-1)
        k = max(0, math.frexp(t)[1] + 5)  # the largest knot at or below |t|
        knots = cumulative[s]
        while len(knots) <= k:
            n = len(knots)
            knots.append(knots[-1] + panel(knot(n - 1), knot(n)))
        return knots[k] + panel(knot(k), t)

    return primitive


def schoolbook_product(a, b):
    """Coefficients of the product of two non-empty coefficient lists,
    each accumulated from 0 in the order of `Poly.__mul__`'s float loop."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] = out[i + k] + x * y
    return out


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


def reference_principal_line_field(patch):
    """The eigen-line field (cos theta, sin theta) of a space-like patch,
    theta = atan2(M, (L - N)/2)/2, from `spacelike_hopf` at each sample."""

    def ev(u, v):
        w = 4.0 * spacelike_hopf(patch, u, v)
        a, M = w.real / 2.0, -w.imag / 2.0
        if a == 0.0 and M == 0.0:
            return (0.0, 0.0)
        theta = 0.5 * math.atan2(M, a)
        return (math.cos(theta), math.sin(theta))

    return FlowField(ev, kind=LINE_FIELD, name="principal_lines")


def _csv_line(fields) -> str:
    return ",".join(fields) + "\n"


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


def _point(code, *rest):
    """The PointClass of a node of kind `code`, named from the kind table."""
    return PointClass(KIND_NAMES[code], *rest)


def reference_classify_node(chart, i, j):
    """Classify one time-like node: the Hopf branches' signs when the chart
    carries them, else a tolerance."""
    if not chart.mask[i, j]:
        return _point(KIND_MASKED, float("nan"), (), None)

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
            return _point(KIND_UMBILIC, 0.0, (), _eigen_pair(chart, i, j, 0.0))
        if pp == 0 or mm == 0:
            s = 1 if pp == 0 else -1
            return _point(
                KIND_QUASI, 0.0, (_unit(s, 1),), _eigen_pair(chart, i, j, 0.0)
            )
        same_sign = (pp > 0 and mm > 0) or (pp < 0 and mm < 0)
        kind = KIND_POSITIVE if same_sign else KIND_NEGATIVE
        if kind == KIND_NEGATIVE:
            return _point(kind, D, (), None)
        r = math.sqrt(abs(a * a - b * b))
        return _point(
            kind, D, _eigendirections(a, b, r), _eigen_pair(chart, i, j, r)
        )

    tau = 1e-9 * (1.0 + abs(L) + abs(N) + abs(M))
    if abs(a) <= tau and abs(b) <= tau:
        return _point(KIND_UMBILIC, D, (), _eigen_pair(chart, i, j, 0.0), True)
    if abs(abs(a) - abs(b)) <= tau:
        # degenerate eigenvalue; unique null direction (b, -a) up to scale
        return _point(
            KIND_QUASI, D, (_unit(b, -a),), _eigen_pair(chart, i, j, 0.0), True
        )
    if abs(a) > abs(b):
        r = math.sqrt(a * a - b * b)
        return _point(
            KIND_POSITIVE, D, _eigendirections(a, b, r), _eigen_pair(chart, i, j, r)
        )
    return _point(KIND_NEGATIVE, D, (), None)


def reference_accumulate(field, radius, samples):
    """(total turning / doubling, largest jump) of the field's angle over
    `samples` points of the circle, one `field(u, v)` call per point."""
    u0, v0 = field.singular_point
    doubling = 2.0 if field.kind == LINE_FIELD else 1.0
    angles = []
    for k in range(samples):
        t = 2.0 * math.pi * k / samples
        try:
            p, q = field(u0 + radius * math.cos(t), v0 + radius * math.sin(t))
        except (ValueError, ZeroDivisionError, FloatingPointError):
            raise _ZeroOnCircle  # undefined counts as inadequate, like a zero
        p, q = float(p), float(q)
        if not (math.isfinite(p) and math.isfinite(q)) or (p == 0.0 and q == 0.0):
            raise _ZeroOnCircle
        angles.append(doubling * math.atan2(q, p))
    total = 0.0
    max_jump = 0.0
    for k in range(samples):
        d = angles[(k + 1) % samples] - angles[k]
        d = math.remainder(d, 2.0 * math.pi)
        max_jump = max(max_jump, abs(d))
        total += d
    return total / doubling, max_jump


def reference_streamlines(field, seeds, step=1e-3, max_len=2.0, bounds=None):
    """Fixed-step RK4 streamlines of the normalized field, one
    `field(u, v)` call through a `sample` helper per stage."""

    if bounds is None:
        inside = lambda u, v: True
    else:
        u_min, u_max, v_min, v_max = bounds

        def inside(u, v):
            return u_min <= u <= u_max and v_min <= v <= v_max

    oriented = field.kind == VECTOR_FIELD

    def march(start, sign):
        def sample(u, v, pu, pv):
            try:
                p, q = field(u, v)
            except (ValueError, ZeroDivisionError, FloatingPointError):
                return None
            p, q = float(p), float(q)
            norm = math.hypot(p, q)
            if not math.isfinite(norm) or norm < 1e-10:
                return None
            p, q = p / norm, q / norm
            if oriented:
                return sign * p, sign * q
            # line field: keep the orientation continuous along the path
            if pu is None:
                return sign * p, sign * q
            return (p, q) if p * pu + q * pv >= 0.0 else (-p, -q)

        pts = []
        u, v = float(start[0]), float(start[1])
        pu = pv = None
        for _ in range(int(max_len / step)):
            k1 = sample(u, v, pu, pv)
            if k1 is None:
                break
            k2 = sample(u + 0.5 * step * k1[0], v + 0.5 * step * k1[1], *k1)
            k3 = sample(u + 0.5 * step * k2[0], v + 0.5 * step * k2[1], *k2) if k2 else None
            k4 = sample(u + step * k3[0], v + step * k3[1], *k3) if k3 else None
            if k4 is None:
                break
            du = (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0
            dv = (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0
            u, v = u + step * du, v + step * dv
            if not inside(u, v):
                break
            pts.append((u, v))
            n = math.hypot(du, dv)
            if n == 0.0:
                break
            pu, pv = du / n, dv / n
        return pts

    out = []
    for seed in seeds:
        forward = march(seed, +1.0)
        backward = march(seed, -1.0)
        line = list(reversed(backward)) + [(float(seed[0]), float(seed[1]))] + forward
        out.append(np.array(line))
    return out


def _f(x):
    return f"{float(x):.3f}"


def reference_render_svg(
    grid, kinds, polyline_families=(), marks=(), banner="", extra_metadata=None
):
    """The SVG document, one `ChartMap.px` and `_f` per cell corner and
    per polyline point."""
    cmap = ChartMap(grid.u_min, grid.u_max, grid.v_min, grid.v_max)
    meta = {"chart_to_viewport": cmap.to_dict()}
    if extra_metadata:
        meta.update(extra_metadata)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        'viewBox="0 0 800 800">\n',
        "<metadata>"
        + json.dumps(meta, sort_keys=True)
        + "</metadata>\n",
        '<rect x="0" y="0" width="800" height="800" fill="#ffffff"/>\n',
    ]

    u_nodes = grid.u_nodes()
    v_nodes = grid.v_nodes()
    for i in range(grid.nu - 1):
        for j in range(grid.nv - 1):
            color = KIND_COLORS[kinds[i, j]]
            x0, y0 = cmap.px(u_nodes[i], v_nodes[j + 1])
            x1, y1 = cmap.px(u_nodes[i + 1], v_nodes[j])
            parts.append(
                f'<rect x="{_f(x0)}" y="{_f(y0)}" width="{_f(x1 - x0)}" '
                f'height="{_f(y1 - y0)}" fill="{color}"/>\n'
            )

    for fam, lines in enumerate(polyline_families):
        color = FLOW_COLORS[fam % len(FLOW_COLORS)]
        for line in lines:
            if len(line) < 2:
                continue
            pts = " ".join(
                f"{_f(px)},{_f(py)}" for px, py in (cmap.px(p[0], p[1]) for p in line)
            )
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                'stroke-width="1.2"/>\n'
            )

    for u, v in marks:
        x, y = cmap.px(u, v)
        parts.append(
            f'<circle cx="{_f(x)}" cy="{_f(y)}" r="5" fill="#000000" '
            'stroke="#ffffff" stroke-width="1.5"/>\n'
        )

    if banner:
        parts.append(
            '<rect x="0" y="0" width="800" height="28" fill="#ffffff" '
            'opacity="0.85"/>\n'
        )
        parts.append(
            '<text x="10" y="19" font-family="monospace" font-size="14" '
            f'fill="#7a1010">{banner}</text>\n'
        )

    parts.append("</svg>\n")
    return "".join(parts)


# -- per-point references that only tests call -------------------------------


def from_null_components(a_fn, b_fn, kind=VECTOR_FIELD, name="") -> FlowField:
    """Field a(x,y) d/dx + b(x,y) d/dy re-expressed in the (u,v) chart."""

    def ev(u, v):
        x, y = (u + v) / 2.0, (u - v) / 2.0
        a, b = a_fn(x, y), b_fn(x, y)
        return (a + b, a - b)

    return FlowField(ev, kind=kind, name=name)


def para_cr_residual(h, u: float, v: float, step: float = 1e-4) -> float:
    """Central-difference residual of the para-Cauchy-Riemann equations at (u,v)."""

    def val(uu, vv):
        w = h.evaluate_uv(uu, vv)
        return float(w.re), float(w.im)

    a_up, b_up = val(u + step, v)
    a_dn, b_dn = val(u - step, v)
    a_vp, b_vp = val(u, v + step)
    a_vn, b_vn = val(u, v - step)
    a_u = (a_up - a_dn) / (2 * step)
    a_v = (a_vp - a_vn) / (2 * step)
    b_u = (b_up - b_dn) / (2 * step)
    b_v = (b_vp - b_vn) / (2 * step)
    return max(abs(a_u - b_v), abs(a_v - b_u))


def eigenfield_check(field, chart) -> float:
    """Largest misalignment (sine of angle) between the field and the nearest
    principal direction over the chart's non-umbilic nodes."""
    cls = chart.classify()
    worst = 0.0
    for i, j in zip(*np.nonzero(np.isin(cls.kinds, (KIND_POSITIVE, KIND_QUASI)))):
        u, v = chart.node(i, j)
        try:
            w = np.array(field(float(u), float(v)), dtype=float)
        except ValueError:
            continue
        norm = np.linalg.norm(w)
        if norm < 1e-12:
            continue
        w /= norm
        dirs = cls.dirs[i, j, : 2 if cls.kinds[i, j] == KIND_POSITIVE else 1]
        sine = min(abs(w[0] * d[1] - w[1] * d[0]) for d in dirs)
        worst = max(worst, sine)
    return worst


def weingarten(chart, i: int, j: int) -> np.ndarray:
    """Shape operator at a node, as a 2x2 matrix in the (u,v) frame.

    This is the inverse metric times the second fundamental form; the
    chart's orientation sign multiplies the textbook isothermal expression.
    """
    if not chart.mask[i, j]:
        raise ValueError(f"node ({i},{j}) is masked (not immersed)")
    s = float(chart.metric_sign[i, j])
    f = s * math.exp(-2.0 * chart.sigma[i, j])
    L, M, N = chart.L[i, j], chart.M[i, j], chart.N[i, j]
    return np.array([[f * L, f * M], [-f * M, -f * N]])


def minkowski_cross(a, b) -> np.ndarray:
    """Lorentzian cross product: <cross(a,b), c> = det(a, b, c)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    e = np.cross(a, b)  # Euclidean cross
    return np.array([e[0], e[1], -e[2]])


def numeric_second_forms(patch, u: float, v: float, h: float = 1e-4):
    """Finite-difference (L, M, N) against the analytic unit normal of a
    time-like or space-like patch."""
    f = _float_point_of(patch)
    if isinstance(patch, SpacelikePatch):
        n = spacelike_normal(patch, u, v)
    else:
        n = patch.normal(u, v)
    f0 = f(u, v)
    fuu = (f(u + h, v) - 2 * f0 + f(u - h, v)) / h**2
    fvv = (f(u, v + h) - 2 * f0 + f(u, v - h)) / h**2
    fuv = (
        f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)
    ) / (4 * h**2)
    return (
        minkowski_dot(fuu, n),
        minkowski_dot(fuv, n),
        minkowski_dot(fvv, n),
    )


def spacelike_factor_and_hopf(patch, u, v):
    """(conformal factor, Hopf coefficient -(omega_hat g')) at (u, v),
    evaluating g, omega_hat and g' once each.  The Hopf coefficient is
    dz^2-normalized: the chart's (L - N) - 2iM is 4 times it."""
    z = complex(u) + 1j * complex(v)
    g = complex(patch.data.g(z))
    w = complex(patch.data.omega_hat(z))
    return (1.0 - abs(g) ** 2) ** 2 * abs(w) ** 2, -w * complex(patch.g_prime(z))


def spacelike_node(factor: float, hopf: complex):
    """(factor, L, M, N) from the conformal factor and the Hopf coefficient."""
    w = 4.0 * hopf  # (L - N) - 2iM
    L = w.real / 2.0
    return factor, L, -w.imag / 2.0, -L


def _at_nodes(grid, fn):
    v_nodes = grid.v_nodes()
    return (fn(u, v) for u in grid.u_nodes() for v in v_nodes)


_NODE_RECORD = np.dtype(
    [("mask", "?"), ("sigma", "f8"), ("L", "f8"), ("M", "f8"), ("N", "f8"), ("sign", "i1")]
)


def _node_record(node):
    """Chart record of a node from None (masked) or (metric factor, L, M, N)."""
    if node is None:
        return False, math.nan, 0.0, 0.0, 0.0, 1
    f, L, M, N = node
    return True, 0.5 * math.log(abs(f)), L, M, N, 1 if f > 0 else -1


def chart_from_nodes(grid, nodes, chart_type=SurfaceChart):
    """The chart of a generated patch from one item per node, row-major:
    None for a masked node, or (metric factor, L, M, N).  sigma is
    log|factor|/2 and the metric sign is the factor's sign; a masked node
    gets sigma NaN, L = M = N = 0 and sign +1."""
    rec = np.fromiter(
        map(_node_record, nodes), dtype=_NODE_RECORD, count=grid.nu * grid.nv
    ).reshape(grid.nu, grid.nv)
    fields = ("sigma", "L", "M", "N", "mask", "sign")
    return chart_type(grid, *(rec[k].copy() for k in fields))


def reference_spacelike_chart(patch, grid):
    """`SpacelikePatch.chart` as one complex evaluation per node."""
    nodes = (
        None if factor <= 1e-300 else spacelike_node(factor, hopf)
        for factor, hopf in _at_nodes(grid, lambda u, v: spacelike_factor_and_hopf(patch, u, v))
    )
    return chart_from_nodes(grid, nodes, SpacelikeChart)


def reference_spacelike_failure(patch, grid):
    """The first node (i, j), row-major, where `reference_spacelike_chart`'s
    per-node arithmetic raises OverflowError or gives an unmasked node a
    factor, L or M that is not finite; None if there is none."""
    nodes = _at_nodes(grid, lambda u, v: (u, v))
    for k, (u, v) in enumerate(nodes):
        try:
            factor, hopf = spacelike_factor_and_hopf(patch, u, v)
        except OverflowError:
            return divmod(k, grid.nv)
        if not factor <= 1e-300 and not all(map(math.isfinite, spacelike_node(factor, hopf)[:3])):
            return divmod(k, grid.nv)
    return None


def reference_spacelike_coordinates(patch, grid):
    """`SpacelikePatch.grid_coordinates` as one `evaluate` per node."""
    return _at_nodes(grid, patch.evaluate)


def spacelike_conformal_factor(patch, u, v) -> float:
    return spacelike_factor_and_hopf(patch, u, v)[0]


def spacelike_normal(patch, u, v) -> np.ndarray:
    z = complex(u) + 1j * complex(v)
    g = complex(patch.data.g(z))
    den = 1.0 - abs(g) ** 2
    if den == 0.0:
        raise ZeroDivisionError("normal undefined where |g| = 1")
    return np.array([2 * g.real / den, 2 * g.imag / den, (1 + abs(g) ** 2) / den])


def spacelike_hopf(patch, u, v) -> complex:
    """dz^2-normalized Hopf coefficient -(omega_hat g') of a space-like
    patch; the raw chart assembly (L - N) - 2iM equals 4 times this."""
    z = complex(u) + 1j * complex(v)
    return -complex(patch.data.omega_hat(z)) * complex(patch.g_prime(z))


def spacelike_forms(patch, u, v):
    """(sigma, L, M, N) of a space-like patch's chart at (u, v)."""
    factor, hopf = spacelike_factor_and_hopf(patch, u, v)
    if factor <= 0.0:
        raise ZeroDivisionError("chart degenerate here")
    _, L, M, N = spacelike_node(factor, hopf)
    return 0.5 * math.log(factor), L, M, N
