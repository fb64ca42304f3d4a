"""Specs for CLI paths that the presets do not reach.

Each entry of `SPEC_CASES` is name -> (spec document, extra CLI
arguments).  `test_spec_paths` checks what each run must show, and
`test_output_digests` pins every output of every run byte for byte.

* `tiny_*`: data scaled by 10^-200, so that a float product of two leading
  coefficients (Hopf branches, or w1(0) and w2(0)) underflows to 0, each
  with its rational twin or unscaled sign twin;
* `z3_branches`: the z3 preset written in the ko `branches` form;
* `z3_seeds`, `z3_samples_jet_cap`: valid `analysis` settings;
* `kobayashi_no_umbilic`: space-like data g = z, omega = 1, whose Hopf
  coefficient has no zero at the base point;
* `underflow_mask`: rational data whose metric factor rounds below 1e-300
  on half the chart;
* `jet_cap_caveat`: a Hopf branch of order 19 above the default jet cap;
* `exp_flat_null`: a null spec with the non-polynomial g1 = exp_flat;
* refusals of classification.csv alone (flow draws the kinds):
  `tiny_directions`, g1 = g2 = 10^-170 t^2, where p*p + q*q of a principal
  direction underflows to 0, and `huge_chart_L`, a raw chart with
  L = 1e200 at node (3, 5), where (L + N)^2 overflows;
* spec numbers outside the double range, refused at their pointer:
  `huge_winding_radius` (10^400), `tiny_winding_radius` (10^-400, which
  rounds to 0.0), `huge_kobayashi` (a coefficient 10^400) and
  `huge_chart_entry` (a raw chart entry 10^400).

`dense_spec(n)` is the README's dense degree-64 null spec at n x n; it is
not a CLI case here.
"""

GRID = {"u_min": -1, "u_max": 1, "v_min": -1, "v_max": 1, "nu": 17, "nv": 17}
TINY = "1/1" + "0" * 200  # 10^-200, exactly


def poly(*coeffs) -> dict:
    return {"kind": "poly", "coeffs": list(coeffs)}


def null_spec(g1, g2, w1=poly(1), w2=poly(1), **extra) -> dict:
    data = {"g1": g1, "g2": g2, "w1": w1, "w2": w2}
    return {"route": "null", "data": data, "grid": dict(GRID), **extra}


def dense_spec(n: int) -> dict:
    """g1 = g2 with coefficients 0, -1/2, 1/3, ..., (-1)^k/(k+1), ..., 1/65
    and w1 = w2 with 1, 1/2, ..., 1/65, on [-1, 1]^2 at n x n nodes."""
    g = poly(0, *(f"{(-1) ** k}/{k + 1}" for k in range(1, 65)))
    w = poly(*(f"1/{k + 1}" for k in range(65)))
    return {**null_spec(g, g, w, w), "grid": {**GRID, "nu": n, "nv": n}}


def chart_spec(**entries) -> dict:
    """A raw chart on GRID: sigma = M = 0, L = N = 1, but for the entries
    given as name=(i, j, value)."""
    n = GRID["nu"]
    data = {name: [[fill] * n for _ in range(n)]
            for name, fill in (("sigma", 0.0), ("L", 1.0), ("M", 0.0), ("N", 1.0))}
    for name, (i, j, value) in entries.items():
        data[name][i][j] = value
    return {"route": "chart", "data": data, "grid": dict(GRID)}


def _z3(**extra) -> dict:
    g = {"z_poly": [0, 0, 0, 1]}
    return {"route": "ko", "data": {"g": g, "omega_hat": {"z_poly": [1]}}, "grid": dict(GRID), **extra}


# z^3 projects to (2x)^3 on either branch
Z3_BRANCHES = {
    "route": "ko",
    "data": {
        "g": {"branches": {"plus": poly(0, 0, 0, 8), "minus": poly(0, 0, 0, 8)}},
        "omega_hat": {"branches": {"plus": poly(1), "minus": poly(1)}},
    },
    "grid": dict(GRID),
}

SPEC_CASES = {
    "tiny_float_hopf": (null_spec(poly(0, 0, 0, 1e-200), poly(0, 0, 0, 1e-200)), []),
    "tiny_rational_hopf": (null_spec(poly(0, 0, 0, TINY), poly(0, 0, 0, TINY)), []),
    "tiny_negative_hopf": (null_spec(poly(0, 0, 0, 1e-200), poly(0, 0, 0, -1e-200)), []),
    "negative_hopf": (null_spec(poly(0, 0, 0, 1), poly(0, 0, 0, -1)), []),
    "tiny_float_omega": (null_spec(poly(0, 0, 0, 1), poly(0, 0, 0, 1), poly(1e-200), poly(1e-200)), []),
    "tiny_rational_omega": (null_spec(poly(0, 0, 0, 1), poly(0, 0, 0, 1), poly(TINY), poly(TINY)), []),
    "z3_branches": (Z3_BRANCHES, []),
    "z3_seeds": (_z3(analysis={"seeds": [[0.5, 0], [0, "-1/2"]]}), []),
    "z3_samples_jet_cap": (_z3(), ["--samples", "720", "--jet-cap", "8"]),
    "kobayashi_no_umbilic": ({"route": "kobayashi", "data": {"g": [0, 1], "omega_hat": [1]}, "grid": dict(GRID)}, []),
    "underflow_mask": (null_spec(poly(0, 1), poly(0, 1), poly("1/1" + "0" * 150), poly("1/1" + "0" * 150)), []),
    "jet_cap_caveat": (null_spec(poly(0, 0, 0, 1), poly(*[0] * 20, 1)), []),
    "exp_flat_null": (null_spec({"kind": "exp_flat"}, poly(0, 0, 0, 1)), []),
    "tiny_directions": (null_spec(poly(0, 0, "1/1" + "0" * 170), poly(0, 0, "1/1" + "0" * 170)), []),
    "huge_chart_L": (chart_spec(L=(3, 5, 1e200)), []),
    "huge_winding_radius": (_z3(analysis={"winding_radius": 10**400}), []),
    "tiny_winding_radius": (_z3(analysis={"winding_radius": "1/1" + "0" * 400}), []),
    "huge_kobayashi": ({"route": "kobayashi", "data": {"g": [0, 10**400], "omega_hat": [1]}, "grid": dict(GRID)}, []),
    "huge_chart_entry": (chart_spec(sigma=(2, 3, 10**400)), []),
}
