"""Command-line interface.

    zmcsurf generate  (--preset NAME | --spec FILE) --out DIR [overrides]
    zmcsurf classify  (--preset NAME | --spec FILE) --out DIR [overrides]
    zmcsurf index     (--preset NAME | --spec FILE) --out DIR [overrides]
    zmcsurf flow      (--preset NAME | --spec FILE) --out DIR [overrides]
    zmcsurf --list-presets

Overrides: --grid N (square N x N), --radius R, --samples K, --jet-cap J.
Input limits (exceeding one is a spec error): grid nu, nv and N in
[16, 1025], samples K in [720, 65536], jet cap J in [1, 64], polynomial
degree 64 (65 coefficients per array), and at most 64 analysis.seeds,
each in the closed grid rectangle; a non-finite number (NaN, Infinity,
1e400) is a spec error too.  A flow streamline marches at most 4096
steps (MAX_MARCH_STEPS) each way from its seed.  The slowest in-limit run
measured, generate for the dense degree-64 null spec of the README at
1025^2, took 57-115 s and 225 MB (Python 3.11.7, 2 shared CPUs); the CSV
text is written one grid row at a time, so memory follows the chart's
arrays.
Exit codes: 0 success, 2 spec errors (a spec file that cannot be read,
is not UTF-8 or is not JSON within Python's limits is one, and so are
time-like data that are degenerate at the base point, unless the spec
sets "allow_degenerate_base": true), 3 numerical-guard failures,
including an exact value that rounds outside the double range.
Outputs are byte-deterministic for a fixed spec.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .flow import LINE_FIELD, VECTOR_FIELD, WindingError, streamlines, winding_index
from .geometry import NumericGuardError, classify_chart
from .outputs import (
    SURFACE_COLUMNS,
    canonical_json,
    classification_csv,
    classification_lines,
    classification_summary,
    surface_csv,
    surface_lines,
    winding_csv,
)
from .presets import PRESET_ORDER, preset_spec
from .surfacespec import ResolvedSpec, SpecError, resolve
from .svgplot import render_svg
from .umbilic import NoSmoothFlowError, analyze_point, eigenfields, measure_indices

# perfbench/layertrace.py patches this alias and the imported surface_csv
# and classification_csv, which the commands no longer call (they write the
# `*_lines` blocks); drop them with the next change to the benchmark.
spacelike_classification_csv = classification_csv

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3

# Steps of 2e-3 per streamline direction: a march covers 1.2 times the
# shorter grid side, up to this many steps (binding only for sides above 6.8).
MAX_MARCH_STEPS = 4096


def _load_spec(args) -> dict:
    if args.preset and args.spec:
        raise SpecError("/", "give either --preset or --spec, not both")
    if args.preset:
        if args.preset not in PRESET_ORDER:
            raise SpecError("/preset", f"unknown preset {args.preset!r}")
        spec = preset_spec(args.preset)
    elif args.spec:
        spec = _read_spec(args.spec)
    else:
        raise SpecError("/", "one of --preset or --spec is required")
    if not isinstance(spec, dict):
        raise SpecError("/", "expected an object")
    spec.setdefault("analysis", {})
    _override(spec, "grid", nu=args.grid, nv=args.grid)
    _override(spec, "analysis", winding_radius=args.radius, samples=args.samples,
              jet_cap=args.jet_cap)
    return spec


def _read_spec(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SpecError("/spec", f"spec file not found: {path}")
    except OSError as exc:
        raise SpecError("/spec", f"spec file cannot be read: {exc.strerror}")
    except UnicodeDecodeError:
        raise SpecError("/spec", "spec file is not UTF-8 text")
    except (ValueError, RecursionError) as exc:
        # bad JSON, an integer over Python's digit limit, or too deep nesting
        raise SpecError("/spec", f"spec file is not valid JSON: {exc}")


def _override(spec: dict, key: str, **values):
    """Set the command-line overrides that were given in spec[key]."""
    given = {k: v for k, v in values.items() if v is not None}
    section = spec.setdefault(key, {}) if given else {}
    if not isinstance(section, dict):
        raise SpecError(f"/{key}", "expected an object")
    section.update(given)


def _metadata(resolved: ResolvedSpec, args, columns=None) -> dict:
    meta = {
        "package": "zmcsurf",
        "version": __version__,
        "preset": args.preset,
        "route": resolved.route,
        "spec": resolved.echo,
        "analysis": dataclasses.asdict(resolved.analysis),
        "grid": {
            "u_min": str(resolved.grid.u_min),
            "u_max": str(resolved.grid.u_max),
            "v_min": str(resolved.grid.v_min),
            "v_max": str(resolved.grid.v_max),
            "nu": resolved.grid.nu,
            "nv": resolved.grid.nv,
        },
    }
    if columns:
        meta["columns"] = list(columns)
    return meta


def _write(out_dir: Path, name: str, blocks):
    """Write the text blocks to out_dir/name, creating out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", encoding="utf-8") as f:
        f.writelines(blocks)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _surface_chart(resolved: ResolvedSpec):
    if resolved.is_timelike:
        return resolved.patch.chart(resolved.grid)
    if resolved.is_spacelike:
        return resolved.spacelike_patch.chart(resolved.grid)
    return resolved.chart


def cmd_generate(resolved: ResolvedSpec, out_dir: Path, args) -> int:
    if resolved.route == "chart":
        raise SpecError("/route", "generate needs a generated route (ko/null/kobayashi)")
    chart = _surface_chart(resolved)
    patch = resolved.patch if resolved.is_timelike else resolved.spacelike_patch
    _write(out_dir, "surface.csv", surface_lines(chart, patch))
    _write(
        out_dir,
        "metadata.json",
        [canonical_json(_metadata(resolved, args, SURFACE_COLUMNS))],
    )
    return EXIT_OK


def cmd_classify(resolved: ResolvedSpec, out_dir: Path, args) -> int:
    extra = {"preset": args.preset, "route": resolved.route}
    if resolved.is_spacelike:
        extra["tagged"] = "spacelike"
    cls = classify_chart(_surface_chart(resolved))
    _write(out_dir, "classification.csv", classification_lines(cls))
    _write(out_dir, "summary.json", [canonical_json(classification_summary(cls, extra))])
    return EXIT_OK


def cmd_index(resolved: ResolvedSpec, out_dir: Path, args) -> int:
    a = resolved.analysis
    rows = []
    if resolved.is_spacelike:
        patch = resolved.spacelike_patch
        hopf = -(patch.data.omega_hat * patch.g_prime)
        m = hopf.trailing_order()
        report = {
            "tagged": "spacelike",
            "preset": args.preset,
            "hopf_zero_order": m,
            "predicted_index": None if m is None else -m / 2.0,
        }
        if m is None or m == 0:
            report["measured_index"] = None
            report["note"] = "no isolated umbilic (Hopf coefficient has no zero at o)"
            report["match"] = None
        else:
            field = patch.principal_line_field()
            res = winding_index(field, radius=a.winding_radius, samples=a.samples)
            half = winding_index(field, radius=a.winding_radius / 2, samples=a.samples)
            report["measured_index"] = res.index
            report["radius_halving_stable"] = half.index == res.index
            report["match"] = (res.index == -m / 2.0) and report["radius_halving_stable"]
            rows.append((field.name, LINE_FIELD, res))
    elif resolved.is_timelike:
        q = resolved.patch.hopf()
        rep = analyze_point(q, cap=a.jet_cap)
        rep = measure_indices(
            rep, q, radius=a.winding_radius, samples=a.samples
        )
        report = rep.to_dict()
        report["preset"] = args.preset
        if rep.measured_indices:
            rows = [(name, VECTOR_FIELD, res) for name, res in rep.windings]
    else:
        raise SpecError("/route", "index needs a generated route (ko/null/kobayashi)")

    _write(out_dir, "index_report.json", [canonical_json(report)])
    _write(out_dir, "winding.csv", [winding_csv(rows)])
    return EXIT_OK


def _flow_polylines(resolved: ResolvedSpec, fields):
    g = resolved.grid
    bounds = (float(g.u_min), float(g.u_max), float(g.v_min), float(g.v_max))
    span = min(bounds[1] - bounds[0], bounds[3] - bounds[2])
    return [
        streamlines(
            f,
            resolved.analysis.seeds,
            step=2e-3,
            max_len=min(1.2 * span, MAX_MARCH_STEPS * 2e-3),
            bounds=bounds,
        )
        for f in fields
    ]


def cmd_flow(resolved: ResolvedSpec, out_dir: Path, args) -> int:
    banner = ""
    families = []
    marks = []
    meta = {"preset": args.preset}
    cls = classify_chart(_surface_chart(resolved))
    if resolved.is_spacelike:
        meta["tagged"] = "spacelike"
        field = resolved.spacelike_patch.principal_line_field()
        families = _flow_polylines(resolved, [field])
        marks = [(0.0, 0.0)]
    elif resolved.is_timelike:
        q = resolved.patch.hopf()
        try:
            fields = eigenfields(q, cap=resolved.analysis.jet_cap)
            families = _flow_polylines(resolved, fields)
            marks = [(0.0, 0.0)]
        except NoSmoothFlowError as exc:
            banner = f"classification only: {exc}"
    else:
        banner = "classification only: no analytic flow data for this chart"

    svg = render_svg(
        resolved.grid,
        cls.kinds,
        polyline_families=families,
        marks=marks,
        banner=banner,
        extra_metadata=meta,
    )
    _write(out_dir, "flow.svg", [svg])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zmcsurf",
        description="zero-mean-curvature surface toolkit for Minkowski 3-space",
    )
    parser.add_argument(
        "--list-presets", action="store_true", help="list preset names and exit"
    )
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("generate", "surface CSV + metadata JSON"),
        ("classify", "classification CSV + summary JSON"),
        ("index", "umbilic index report JSON + winding CSV"),
        ("flow", "flow portrait SVG"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", help="preset name (see --list-presets)")
        p.add_argument("--spec", help="path to a JSON surface spec")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--grid", type=int, help="override: square grid resolution")
        p.add_argument("--radius", type=float, help="override: winding radius")
        p.add_argument("--samples", type=int, help="override: winding samples")
        p.add_argument("--jet-cap", dest="jet_cap", type=int, help="override: jet cap")
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "classify": cmd_classify,
    "index": cmd_index,
    "flow": cmd_flow,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_presets:
        for name in PRESET_ORDER:
            print(name)
        return EXIT_OK
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_SPEC
    try:
        spec = _load_spec(args)
        resolved = resolve(spec)
        return COMMANDS[args.command](resolved, Path(args.out), args)
    except SpecError as exc:
        print(
            json.dumps({"error": exc.message, "pointer": exc.pointer}),
            file=sys.stderr,
        )
        return EXIT_SPEC
    except (WindingError, ZeroDivisionError, OverflowError, NumericGuardError) as exc:
        diagnostic = {"error": str(exc)}
        if isinstance(exc, NumericGuardError):
            diagnostic["node"] = list(exc.node)
        print(json.dumps(diagnostic), file=sys.stderr)
        return EXIT_NUMERIC


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
