"""Command-line interface.

All angles at this boundary are degrees.  Exit codes: 0 success, 1 validation
failure, 2 usage error.  The counts come from the `--samples` and
`--frames` flags alone, defaulting to the library's `DEFAULT_SAMPLES` and
`DEFAULT_FRAMES`; `pattern sweep` takes no `--samples` and certifies at
`DEFAULT_SAMPLES`, as `sweep` does.  A set QUADFOLD_CONFIG is a usage
error.  Every bound is the library's constant: `unit validate` decides as
`stitch` does, exactly or at `UNIT_SAMPLES` samples (`--samples` sizes only
its printed report), `pattern certify` and `pattern sweep` decide at
`TAU_COMPAT`, and `pattern svg` colours by the FOLD export's letters
(`TAU_FLAT`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .config import (DEFAULT_FRAMES, DEFAULT_SAMPLES, TAU_UNIT, UNIT_SAMPLES,
                     check_count)
from .errors import OutOfDomain, QuadfoldError, SerializationError
from .foldability import certify, mv_assignment
from .foldio import (_FLOAT_FMT, export_fold, export_obj, export_svg,
                     fold_dumps, import_fold)
from .pattern import StitchPlan, count_dof, stitch
from .realize import sweep
from .units import (FFUnitMode, Unit, _acceptance_residual, _exact_residual,
                    solve_ff_unit, validate_unit)
from .vertex import (
    BranchId,
    Vertex4,
    classify,
    fold_interval,
    solve_on_branch,
    xi_of,
)

_F = _FLOAT_FMT.format


def _parse_alphas(text: str, count: int):
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise argparse.ArgumentTypeError(
            f"empty angle entry in --alphas {text!r}")
    if len(parts) != count:
        raise argparse.ArgumentTypeError(
            f"expected {count} comma-separated angles, got {len(parts)}"
        )
    angles = []
    for p in parts:
        try:
            angles.append(math.radians(float(p)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"angle {p.strip()!r} is not a number") from None
    return angles


def _usage_type(parse):
    """An argparse type: `parse`, its ValueError a usage error that keeps
    the message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_branch_token = _usage_type(BranchId.from_token)


def _deg_list(values):
    return " ".join(_F(math.degrees(v)) for v in values)


def _classified(alphas: str):
    """The vertex of `alphas` and its class, the class's warnings on stderr."""
    v = Vertex4(_parse_alphas(alphas, 4))
    cls = classify(v)
    for text in cls.warnings:
        print(f"warning: {text}", file=sys.stderr)
    return v, cls


def _cmd_vertex_solve(args):
    v, cls = _classified(args.alphas)
    rho1 = math.radians(args.rho1)
    # checked first: a segment that keeps c1 flat takes any parameter, but
    # its rho1 is 0
    iv = fold_interval(v, args.branch)
    if not iv.lo <= rho1 <= iv.hi:
        raise OutOfDomain(
            f"rho1 {_F(args.rho1)} deg outside the fold interval "
            f"[{_F(math.degrees(iv.lo))}, {_F(math.degrees(iv.hi))}] deg of "
            f"branch {args.branch.value}")
    sol = solve_on_branch(v, rho1, args.branch)
    print(f"class: {cls.tag.value}"
          + (" (flat-foldable)" if cls.flat_foldable else ""))
    print(f"branch: {args.branch.value}")
    print(f"xi_deg: {_F(math.degrees(xi_of(v, sol.rho[0])))}")
    print(f"rho_deg: {_deg_list(sol.rho)}")
    return 0


def _cmd_vertex_interval(args):
    v, _ = _classified(args.alphas)
    iv = fold_interval(v, args.branch)
    print(f"branch: {args.branch.value}")
    print(f"interval_deg: [{_F(math.degrees(iv.lo))}, {_F(math.degrees(iv.hi))}]")
    return 0


def _cmd_unit_solve_ff(args):
    a1, a2, a3 = _parse_alphas(args.alphas, 3)
    unit = solve_ff_unit(a1, a2, a3, args.mode)
    alpha4 = unit.sector[5]  # bottom vertex's second free angle
    print(f"alpha4_deg: {_F(math.degrees(alpha4))}")
    print(fold_dumps(unit.to_json()))
    return 0


def _read_json(path):
    """The JSON document in the file at `path`.  SerializationError names a
    file that is not UTF-8 JSON text; `main` reports an OSError such as a
    missing file or a directory."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise SerializationError(f"{path} is not JSON: {exc}") from None


def _cmd_unit_validate(args):
    unit = Unit.from_json(_read_json(args.file))
    report = validate_unit(unit, args.samples)
    print(f"samples: {report.n_samples}")
    print(f"max_residual: {report.max_residual:.3e}")
    # stitch's verdict, and its residual where the report reads otherwise
    residual = _acceptance_residual(unit)
    ok = residual < TAU_UNIT
    if ok != report.valid():
        how = ("exact" if _exact_residual(unit) is not None
               else f"{UNIT_SAMPLES}-sample")
        print(f"{how} max_residual: {residual:.3e}")
    if report.degenerate_shared:
        print("note: connecting crease stays flat on this branch pair; "
              "validated through the side creases")
    print("valid" if ok else "INVALID")
    return 0 if ok else 1


def _load_pattern(path):
    return import_fold(_read_json(path))


def _parse_branch_spec(spec, p):
    """Columns separated by ';', per-row tokens separated by ','."""
    if spec is None:
        return None
    cols = spec.split(";")
    if not all(col.strip() for col in cols):
        raise argparse.ArgumentTypeError(
            f"empty column group in --branches {spec!r}")
    if len(cols) != p.n:
        raise argparse.ArgumentTypeError(
            f"branch spec needs {p.n} column groups, got {len(cols)}"
        )
    per_col = [[_branch_token(t) for t in col.split(",")] for col in cols]
    for col in per_col:
        if len(col) != p.m:
            raise argparse.ArgumentTypeError(
                f"each column group needs {p.m} branch tokens"
            )
    return tuple(tuple(per_col[j][i] for j in range(p.n)) for i in range(p.m))


def _cmd_pattern_stitch(args):
    pattern = stitch(StitchPlan.from_json(_read_json(args.plan)))
    doc = export_fold(pattern)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(fold_dumps(doc))
    print(f"wrote {args.output} ({pattern.m}x{pattern.n} inner vertices)")
    return 0


def _cmd_pattern_certify(args):
    p = _load_pattern(args.pattern)
    branches = _parse_branch_spec(args.branches, p)
    report = certify(p, branches, args.samples)
    print(report.summary())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.dumps())
        print(f"wrote {args.report}")
    return 0 if report.verdict else 1


def _cmd_pattern_count(args):
    report = count_dof(StitchPlan.from_json(_read_json(args.plan)))
    print(f"{report.caption()}; branches {report.branch_count}")
    return 0


def _cmd_pattern_sweep(args):
    p = _load_pattern(args.pattern)
    branches = _parse_branch_spec(args.branches, p)
    result = sweep(p, branches, args.frames)
    os.makedirs(args.out_dir, exist_ok=True)
    for k, state in enumerate(result.frames):
        text = (export_obj(state, p) if args.format == "obj"
                else fold_dumps(export_fold(state, pattern=p)))
        path = os.path.join(args.out_dir, f"frame_{k:03d}.{args.format}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"wrote {len(result.frames)} frames to {args.out_dir}")
    print(f"max rigidity residual: {result.max_rigidity_residual:.3e}")
    print(f"max closure residual: {result.max_closure_residual:.3e}")
    return 0


def _cmd_pattern_svg(args):
    p = _load_pattern(args.pattern)
    mv = None
    if args.rho is not None:
        mv = mv_assignment(p, None, math.radians(args.rho))
    svg = export_svg(p, mv)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return 0


def _count_at_least(least: int):
    """An argparse type: an integer >= `least` (`check_count`)."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None  # refused below, with the same message
        check_count(value, least, f"must be an integer >= {least}, got "
                                  f"{text!r}")
        return value
    return _usage_type(count)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadfold",
        description="Design, certify and fold rigid-foldable quadrilateral "
                    "crease patterns (angles in degrees).",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    vx = sub.add_parser("vertex", help="single-vertex kinematics")
    vxs = vx.add_subparsers(dest="subcommand", required=True)
    s = vxs.add_parser("solve", help="fold angles at one driving angle")
    s.add_argument("--alphas", required=True,
                   help="four sector angles, comma separated (deg)")
    s.add_argument("--rho1", type=float, required=True,
                   help="driving angle (deg)")
    s.add_argument("--branch", required=True, type=_branch_token,
                   help="branch: 1, 2, line1, line2 or line (line1)")
    s.set_defaults(fn=_cmd_vertex_solve, parser=s)
    s = vxs.add_parser("interval", help="fold interval of a branch")
    s.add_argument("--alphas", required=True)
    s.add_argument("--branch", required=True, type=_branch_token)
    s.set_defaults(fn=_cmd_vertex_interval, parser=s)

    un = sub.add_parser("unit", help="two-vertex transmission units")
    uns = un.add_subparsers(dest="subcommand", required=True)
    s = uns.add_parser("solve-ff", help="design a flat-foldable unit")
    s.add_argument("--alphas", required=True,
                   help="three free sector angles (deg)")
    s.add_argument("--mode", required=True,
                   type=_usage_type(FFUnitMode.from_token),
                   help="flat-foldable mode: "
                        + ", ".join(m.value for m in FFUnitMode))
    s.set_defaults(fn=_cmd_unit_solve_ff, parser=s)
    s = uns.add_parser("validate", help="validate a unit JSON file")
    s.add_argument("file")
    s.add_argument("--samples", type=_count_at_least(2),
                   default=DEFAULT_SAMPLES)
    s.set_defaults(fn=_cmd_unit_validate, parser=s)

    pt = sub.add_parser("pattern", help="stitched blankets")
    pts = pt.add_subparsers(dest="subcommand", required=True)
    s = pts.add_parser("stitch", help="assemble a plan into a FOLD file")
    s.add_argument("plan")
    s.add_argument("-o", "--output", required=True)
    s.set_defaults(fn=_cmd_pattern_stitch, parser=s)
    s = pts.add_parser("certify", help="certify rigid-foldability")
    s.add_argument("pattern")
    s.add_argument("--branches", default=None,
                   help="per-vertex branches: columns ';'-separated, rows "
                        "','-separated (default: stored assignment)")
    s.add_argument("--samples", type=_count_at_least(2),
                   default=DEFAULT_SAMPLES)
    s.add_argument("--report", default=None, help="write JSON report here")
    s.set_defaults(fn=_cmd_pattern_certify, parser=s)
    s = pts.add_parser("count", help="independent sector angles and branches")
    s.add_argument("plan")
    s.set_defaults(fn=_cmd_pattern_count, parser=s)
    s = pts.add_parser("sweep", help="realize the folding motion")
    s.add_argument("pattern")
    s.add_argument("--frames", type=_count_at_least(1),
                   default=DEFAULT_FRAMES)
    s.add_argument("--out-dir", required=True)
    s.add_argument("--format", choices=("obj", "fold"), default="obj")
    s.add_argument("--branches", default=None)
    s.set_defaults(fn=_cmd_pattern_sweep, parser=s)
    s = pts.add_parser("svg", help="export the crease pattern drawing")
    s.add_argument("pattern")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--rho", type=float, default=None,
                   help="driving angle (deg) for mountain/valley colors")
    s.set_defaults(fn=_cmd_pattern_svg, parser=s)
    return ap


def main(argv=None) -> int:
    if os.environ.get("QUADFOLD_CONFIG"):
        print("error: QUADFOLD_CONFIG is not read; unset it and pass "
              "--samples or --frames instead", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except argparse.ArgumentTypeError as exc:  # the leaf's usage, code 2
        args.parser.error(str(exc))
    except (QuadfoldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
