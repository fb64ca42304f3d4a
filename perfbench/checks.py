"""Per-op output checks, independent of the code paths they check.

Each check returns None when the op's outputs are right, or a message
saying what is wrong.  Exact checks recompute from the spec's branch
polynomials with the small helpers below over `Fraction`, one null
coordinate at a time, and never call the program's chart, classifier or
primitive code.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

from zmcsurf.presets import preset_spec
from zmcsurf.surfacespec import DEFAULT_SEEDS, resolve

GENERATE_SAMPLES = 16
REL_TOL = 1e-12


# -- polynomial helpers on ascending coefficient lists --------------------------


def _horner(coeffs, t):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _add(p, q, s=1):
    n = max(len(p), len(q))
    p, q = list(p) + [0] * (n - len(p)), list(q) + [0] * (n - len(q))
    return [a + s * b for a, b in zip(p, q)]


def _deriv(p):
    return [k * c for k, c in enumerate(p)][1:]


def _integ(p):
    return [0] + [Fraction(c) / (k + 1) for k, c in enumerate(p)]


def _order(p):
    return next((k for k, c in enumerate(p) if c != 0), None)


# -- spec access ------------------------------------------------------------------


def spec_of(op) -> dict:
    if op.preset:
        spec = preset_spec(op.preset)
    else:
        spec = json.loads(Path(op.spec).read_text())
    spec["grid"]["nu"] = spec["grid"]["nv"] = op.grid
    return spec


def _branches(op):
    """(g1, g2, w1, w2) coefficient lists of a polynomial time-like spec."""
    d = resolve(spec_of(op), minimum_nodes=2).patch.data
    return tuple(list(b.poly.coeffs) for b in (d.g1, d.g2, d.w1, d.w2))


def _nodes(op):
    g = spec_of(op)["grid"]
    out = []
    for lo, hi in ((g["u_min"], g["u_max"]), (g["v_min"], g["v_max"])):
        lo, hi = Fraction(lo), Fraction(hi)
        out.append([lo + k * (hi - lo) / (op.grid - 1) for k in range(op.grid)])
    return out


def _hopf(g, w):
    """A Hopf branch -w g' / 2."""
    return [-c / 2 for c in _mul(w, _deriv(g))]


def _read_csv(path: Path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- per-command checks -------------------------------------------------------------


def check_generate_exact(op, out: Path):
    header, rows = _read_csv(out / "surface.csv")
    n = op.grid * op.grid
    if len(rows) != n:
        return f"surface.csv has {len(rows)} rows, expected {n}"
    g1, g2, w1, w2 = _branches(op)
    one = [1]
    sq1, sq2 = _mul(g1, g1), _mul(g2, g2)
    px = [_integ(_mul(_add(one, sq1, -1), w1)), _integ(_mul(_mul([2], g1), w1)),
          _integ(_mul(_add(one, sq1), w1))]
    py = [_integ(_mul(_add(sq2, one, -1), w2)), _integ(_mul(_mul([2], g2), w2)),
          _integ(_mul(_add(one, sq2), w2))]
    us, vs = _nodes(op)
    picks = random.Random(op.name).sample(range(n), GENERATE_SAMPLES)
    for k in picks:
        u, v = us[k // op.grid], vs[k % op.grid]
        x, y = (u + v) / 2, (u - v) / 2
        got = [float(s) for s in rows[k][2:5]]
        for a in range(3):
            want = float(_horner(px[a], x) + _horner(py[a], y))
            if abs(got[a] - want) > REL_TOL * max(1.0, abs(want)):
                return f"f{a} at node {k} is {got[a]!r}, exact value {want!r}"
    return None


@functools.lru_cache(maxsize=None)
def expected_kinds(op) -> tuple:
    """Node kinds from the signs of the Hopf branches on 1-D values.

    They depend on the op alone, so a run computes them once per op and
    checks every execution's outputs against them."""
    g1, g2, w1, w2 = _branches(op)
    hp, hm = _hopf(g1, w1), _hopf(g2, w2)
    us, vs = _nodes(op)
    memo = {}

    def at(p, t):
        key = (id(p), t)
        if key not in memo:
            memo[key] = _horner(p, t)
        return memo[key]

    kinds = []
    for u in us:
        for v in vs:
            x, y = (u + v) / 2, (u - v) / 2
            factor = -((1 - at(g1, x) * at(g2, y)) ** 2) * at(w1, x) * at(w2, y)
            if factor == 0 or abs(float(factor)) < 1e-300:
                kinds.append("masked")
                continue
            pp, mm = at(hp, x), at(hm, y)
            if pp == 0 and mm == 0:
                kinds.append("umbilic")
            elif pp == 0 or mm == 0:
                kinds.append("quasi_umbilic")
            else:
                kinds.append("positive" if pp * mm > 0 else "negative")
    return tuple(kinds)


def check_classify_exact(op, out: Path):
    err = check_classify_counts(op, out)
    if err:
        return err
    _, rows = _read_csv(out / "classification.csv")
    for k, (row, want) in enumerate(zip(rows, expected_kinds(op))):
        if row[2] != want:
            return f"node {k} classified {row[2]}, exact sign test says {want}"
    return None


def check_classify_counts(op, out: Path):
    """Row count, and summary counts that agree with the CSV's kinds."""
    _, rows = _read_csv(out / "classification.csv")
    n = op.grid * op.grid
    if len(rows) != n:
        return f"classification.csv has {len(rows)} rows, expected {n}"
    counts = json.loads((out / "summary.json").read_text())["counts"]
    tally = {}
    for row in rows:
        tally[row[2]] = tally.get(row[2], 0) + 1
    if counts["total"] != n or sum(v for k, v in counts.items() if k != "total") != n:
        return f"summary counts {counts} do not total {n}"
    for kind, v in counts.items():
        if kind != "total" and tally.get(kind, 0) != v:
            return f"summary says {v} {kind}, the CSV has {tally.get(kind, 0)}"
    return None


def check_classify_chart(op, out: Path):
    """Raw float chart: counts, and planted nodes come out as planted."""
    err = check_classify_counts(op, out)
    if err:
        return err
    _, rows = _read_csv(out / "classification.csv")
    data = spec_of(op)["data"]
    for (i, j) in op.info["umbilic"]:
        if rows[i * op.grid + j][2] != "umbilic":
            return f"planted umbilic ({i},{j}) classified {rows[i * op.grid + j][2]}"
    for (i, j) in op.info["quasi"]:
        kind = rows[i * op.grid + j][2]
        L, M, N = (data[k][i][j] for k in ("L", "M", "N"))
        tau = 1e-9 * (1.0 + abs(L) + abs(M) + abs(N))
        allowed = ("quasi_umbilic", "umbilic") if abs(L + N) <= tau else ("quasi_umbilic",)
        if kind not in allowed:
            return f"planted quasi-umbilic ({i},{j}) classified {kind}"
    return None


def check_generate_rows(op, out: Path):
    _, rows = _read_csv(out / "surface.csv")
    n = op.grid * op.grid
    if len(rows) != n:
        return f"surface.csv has {len(rows)} rows, expected {n}"
    for row in rows:
        if not all(math.isfinite(float(s)) for s in row[:5]):
            return f"non-finite coordinates in row {row}"
    return None


def parity_prediction(op) -> list:
    """Indices the parity law predicts from the spec's Hopf branch orders."""
    g1, g2, w1, w2 = _branches(op)
    hp, hm = _hopf(g1, w1), _hopf(g2, w2)
    m1, m2 = _order(hp), _order(hm)
    if m1 % 2 or m2 % 2 or hp[m1] * hm[m2] <= 0:
        raise ValueError(f"{op.name}: not an admissible even-order umbilic")
    return [-1, 1] if (m1 // 2) % 2 and (m2 // 2) % 2 else [0]


def check_index_timelike(op, out: Path):
    report = json.loads((out / "index_report.json").read_text())
    want = parity_prediction(op)
    if report["match"] is not True:
        return f"index report match is {report['match']!r}"
    measured = sorted(set(report["measured_indices"].values()))
    if measured != want or report["predicted_indices"] != want:
        return f"measured {measured}, predicted {report['predicted_indices']}, parity law {want}"
    _, rows = _read_csv(out / "winding.csv")
    if len(rows) != 2:
        return f"winding.csv has {len(rows)} rows, expected 2"
    return None


def check_index_flat(op, out: Path):
    """A flat (non-finite-type) Hopf coefficient: no index may be claimed."""
    report = json.loads((out / "index_report.json").read_text())
    if report["point_type"] != "undecidable" or report["measured_indices"] is not None:
        return f"flat datum reported {report['point_type']} / {report['measured_indices']}"
    return None


def check_index_spacelike(op, out: Path):
    report = json.loads((out / "index_report.json").read_text())
    want = -op.info["m"] / 2.0
    if report["match"] is not True or report["measured_index"] != want:
        return f"space-like index {report['measured_index']}, law says {want}"
    return None


def check_flow(op, out: Path, families: int):
    try:
        root = ET.fromstring((out / "flow.svg").read_text())
    except ET.ParseError as exc:
        return f"flow.svg does not parse: {exc}"
    lines = sum(1 for el in root.iter() if el.tag.endswith("polyline"))
    want = families * len(DEFAULT_SEEDS)
    if lines != want:
        return f"flow.svg has {lines} polylines, expected {want}"
    return None


def checker(op):
    """The check for the op's outputs: a function of (op, out)."""
    cmd, preset = op.command, op.preset or ""
    spacelike = preset.startswith("spacelike")
    if preset == "exA2":
        if cmd == "generate":
            return check_generate_rows
        if cmd == "classify":
            return check_classify_counts
        if cmd == "index":
            return check_index_flat
        # the flat datum has no smooth flow: a classification-only portrait
        return functools.partial(check_flow, families=0)
    if op.label == "chart":
        return check_classify_chart
    if cmd == "generate":
        return check_generate_rows if spacelike else check_generate_exact
    if cmd == "classify":
        return check_classify_counts if spacelike else check_classify_exact
    if cmd == "index":
        return check_index_spacelike if spacelike else check_index_timelike
    return functools.partial(check_flow, families=1 if spacelike else 2)


def check(op, out: Path):
    """None when the op's outputs are right, else a message."""
    return checker(op)(op, out)


def prepare(ops):
    """Compute the exact kinds the checks compare with before a run starts
    timing, so that the first pass takes as long as the others."""
    for op in ops:
        if checker(op) is check_classify_exact:
            expected_kinds(op)
