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
steps (MAX_MARCH_STEPS) each way from its seed.  The limits do not bound
exact work: the README's dense degree-64 null spec takes 1.7 s to generate
at 513^2, degree-64 data over 20-digit denominators 6.2 s to classify at
1025^2, and over 100-digit ones 32.9 s to generate at 17^2 (2 shared CPUs).
The CSV text is written one grid row at a time.  Exit codes: 0 success,
2 spec errors (a spec file that cannot be read, is not UTF-8 or is not JSON
within Python's limits is one, and so are an --out that cannot be written,
at /out, generate or index on route chart, at /route, flow on a grid whose
u or v bounds round to one double, at /grid, a spec number outside
the double range, at its pointer, and time-like data that are degenerate
at the base point, unless the spec sets "allow_degenerate_base": true), 3
numerical-guard failures, including an exact value that rounds outside the
double range, a float chart value or coordinate that overflows to infinity
or NaN, and for classify alone a D or direction it cannot print.
Outputs are byte-deterministic for a fixed spec.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import ExitStack
from pathlib import Path

from . import __version__
from .flow import WindingError, streamlines, winding_index
from .geometry import NumericGuardError, classify_chart
from .outputs import (
    SURFACE_COLUMNS,
    classification_csv,
    classification_lines,
    classification_summary,
    json_lines,
    surface_csv,
    surface_lines,
    winding_csv,
)
from .presets import PRESET_ORDER, preset_spec
from .surfacespec import ResolvedSpec, SpecError, expect_mapping, resolve
from .svgplot import render_svg, svg_lines
from .umbilic import analyze_point, eigenfields, measure_indices

# perfbench/layertrace.py patches this alias and the imported surface_csv,
# classification_csv and render_svg, which the commands no longer call (they
# write the `*_lines` blocks) and analyze_point, eigenfields, measure_indices
# and winding_index (the surface types' `index_report` and `flow_fields` call
# them now); drop them with the next change to the benchmark.
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
    expect_mapping(spec, "").setdefault("analysis", {})
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
    if given:
        expect_mapping(spec.setdefault(key, {}), f"/{key}").update(given)


def _metadata(resolved: ResolvedSpec, args, columns=None) -> dict:
    g = resolved.grid
    meta = {
        "package": "zmcsurf",
        "version": __version__,
        "preset": args.preset,
        "route": resolved.route,
        "spec": resolved.echo,
        "analysis": dataclasses.asdict(resolved.analysis),
        "grid": {"nu": g.nu, "nv": g.nv,
                 **{k: str(getattr(g, k)) for k in ("u_min", "u_max", "v_min", "v_max")}},
    }
    if columns:
        meta["columns"] = list(columns)
    return meta


def _write(out_dir: Path, files: dict):
    """Write each name -> text blocks to out_dir/name.  All files are opened
    (append mode keeps an existing one) before any is emptied and written, so
    a refusal leaves no file made or emptied; an OSError is a spec error at /out."""
    blocks = {out_dir / name: iter(b) for name, b in files.items()}
    first = {path: next(b) for path, b in blocks.items()}
    made = [path for path in blocks if not path.exists()]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with ExitStack() as stack:
            opened = [stack.enter_context(open(path, "a", encoding="utf-8")) for path in blocks]
            for f, path in zip(opened, blocks):
                f.truncate(0)
                f.write(first[path])
                f.writelines(blocks[path])
    except OSError as exc:
        for path in filter(Path.is_file, made):
            path.unlink()
        raise SpecError("/out", f"cannot write {exc.filename}: {exc.strerror}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(resolved: ResolvedSpec, out_dir: Path, args) -> int:
    """surface CSV + metadata JSON"""
    _write(out_dir, {
        "surface.csv": surface_lines(resolved.patch.chart(resolved.grid), resolved.patch),
        "metadata.json": json_lines(_metadata(resolved, args, SURFACE_COLUMNS))})
    return EXIT_OK


def cmd_classify(resolved: ResolvedSpec, out_dir: Path, args) -> int:
    """classification CSV + summary JSON"""
    extra = {"preset": args.preset, "route": resolved.route, **resolved.patch.tag}
    cls = classify_chart(resolved.patch.chart(resolved.grid))
    _write(out_dir, {"classification.csv": classification_lines(cls),
                     "summary.json": json_lines(classification_summary(cls, extra))})
    return EXIT_OK


def cmd_index(resolved: ResolvedSpec, out_dir: Path, args) -> int:
    """umbilic index report JSON + winding CSV"""
    report, rows = resolved.patch.index_report(resolved.analysis)
    report.update(resolved.patch.tag, preset=args.preset)
    _write(out_dir, {"index_report.json": json_lines(report), "winding.csv": [winding_csv(rows)]})
    return EXIT_OK


def _flow_polylines(resolved: ResolvedSpec, fields):
    g = resolved.grid
    bounds = (float(g.u_min), float(g.u_max), float(g.v_min), float(g.v_max))
    max_len = min(1.2 * min(bounds[1] - bounds[0], bounds[3] - bounds[2]), MAX_MARCH_STEPS * 2e-3)
    return [streamlines(f, resolved.analysis.seeds, step=2e-3, max_len=max_len, bounds=bounds)
            for f in fields]


def cmd_flow(resolved: ResolvedSpec, out_dir: Path, args) -> int:
    """flow portrait SVG"""
    for axis in "uv":
        low, high = (float(getattr(resolved.grid, f"{axis}_{end}")) for end in ("min", "max"))
        if low == high:
            raise SpecError("/grid", f"{axis}_min and {axis}_max round to equal doubles: "
                                     "flow.svg needs a grid of non-zero float width")
    cls = classify_chart(resolved.patch.chart(resolved.grid))
    fields, marks, banner = resolved.patch.flow_fields(resolved.analysis)
    _write(out_dir, {"flow.svg": svg_lines(
        resolved.grid, cls.kinds, polyline_families=_flow_polylines(resolved, fields),
        marks=marks, banner=banner, extra_metadata={"preset": args.preset, **resolved.patch.tag})})
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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
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
    except NumericGuardError as exc:
        print(json.dumps({"error": str(exc), "node": list(exc.node)}), file=sys.stderr)
        return EXIT_NUMERIC
    except (WindingError, ZeroDivisionError, OverflowError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
