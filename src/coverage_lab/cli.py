"""Command-line interface.

Commands: coverage, field, structure, refine, compare, verify.
Exit codes: 0 success, 1 verification failure, 2 spec/usage error,
3 query error (refinement-set point or point outside every label),
141 when the reader of stdout closed the pipe (nothing is reported).
Reports are one `key: value` pair per line and stable under a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .engine import CoverageResult, coverage_at
from .errors import (AmbiguousLabel, CoverageLabError, IoError, NoLabel,
                     PointNotInAnyLabel, RefinementPoint, SchemaError,
                     SpecParseError)
from .field import compare_at, compute_field, export_field
from .model import load_spec, save_spec
from .structure import classify_structure, refine_boundary
from . import verify as verify_mod

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SPEC = 2
EXIT_QUERY = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that left


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_point(p) -> str:
    return ",".join(_fmt(v) for v in p)


def parse_point(text: str, dimension: int) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != dimension:
        raise ValueError(
            f"point must have {dimension} comma-separated coordinates, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ValueError(f"point {text!r} has non-numeric coordinates")


def _read_points_file(path: str, dimension: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return np.array([parse_point(ln, dimension) for ln in lines])


def parse_grid(text: str) -> tuple:
    try:
        counts = tuple(int(c) for c in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"grid must look like AxB, got {text!r}")
    if not counts or any(c < 1 for c in counts):
        raise ValueError(f"grid counts must be positive, got {text!r}")
    return counts


def _result_lines(res: CoverageResult) -> list:
    lines = [f"kind: {res.kind}", f"method: {res.method}"]
    if res.kind == "bounded":
        lines.append(f"radius: {_fmt(res.radius)}")
    if res.kind == "exceeds_cap":
        lines.append(f"cap: {_fmt(res.cap)}")
        lines.append(f"witness_count: {len(res.witnesses)}")
    if res.witness is not None:
        lines.append(f"witness_center: {_fmt_point(res.witness.ball.center)}")
        lines.append(f"witness_radius: {_fmt(res.witness.ball.radius)}")
        cert = res.witness.certificate
        lines.append(f"certificate: {cert.kind}")
        if cert.samples:
            lines.append(f"certificate_samples: {cert.samples}")
            lines.append(f"certificate_seed: {cert.seed}")
    return lines


def cmd_coverage(args) -> int:
    C = load_spec(args.classifier)
    point = parse_point(args.point, C.dimension)
    res = coverage_at(C, point, cap=args.cap, budget=args.budget,
                      seed=args.seed, tol=args.tol)
    print(f"point: {_fmt_point(point)}")
    for line in _result_lines(res):
        print(line)
    return EXIT_OK


def cmd_field(args) -> int:
    C = load_spec(args.classifier)
    if args.grid:
        points = parse_grid(args.grid)
    elif args.points_file:
        points = _read_points_file(args.points_file, C.dimension)
    else:
        raise ValueError("field needs --grid or --points-file")
    F = compute_field(C, points, cap=args.cap, budget=args.budget,
                      seed=args.seed, tol=args.tol)
    print(f"points: {len(F.points)}")
    print(f"skipped: {len(F.skipped)}")
    if F.results:
        print(f"inf_estimate: {F.inf_estimate.describe()}")
        print(f"sup_estimate: {F.sup_estimate.describe()}")
    if args.out:
        export_field(F, args.out, format=args.format)
        print(f"wrote: {args.out}")
    return EXIT_OK


def cmd_structure(args) -> int:
    C = load_spec(args.classifier)
    v = classify_structure(C, cap=args.cap, budget=args.budget,
                           seed=args.seed, tol=args.tol)
    report = v.to_dict()
    for key, value in report.items():
        if isinstance(value, dict):
            value = json.dumps(value)
        elif isinstance(value, list):
            value = ",".join(str(x) for x in value)
        print(f"{key}: {value}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote: {args.out}")
    return EXIT_OK


def cmd_refine(args) -> int:
    C = load_spec(args.classifier)
    refined = refine_boundary(C)
    print(f"labels: {','.join(refined.labels)}")
    print(f"refined: {str(not refined.ordinary).lower()}")
    if args.out:
        save_spec(refined, args.out)
        print(f"wrote: {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    C1 = load_spec(args.classifier)
    C2 = load_spec(args.other)
    if args.point:
        points = parse_point(args.point, C1.dimension)[None, :]
    elif args.points_file:
        points = _read_points_file(args.points_file, C1.dimension)
    else:
        raise ValueError("compare needs --point or --points-file")
    report = compare_at(C1, C2, points, cap=args.cap, budget=args.budget,
                        seed=args.seed, tol=args.tol)
    for p, r1, r2, relation in report.entries:
        print(f"point: {_fmt_point(p)}")
        print(f"first: {r1.describe()}")
        print(f"second: {r2.describe()}")
        print(f"relation: {relation}")
    for p, reason in report.skipped:
        print(f"skipped: {_fmt_point(p)}")
        print(f"reason: {reason}")
    return EXIT_OK


def cmd_verify(args) -> int:
    passed, report = verify_mod.run_suite(seed=args.seed)
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report)
    return EXIT_OK if passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coverage-lab",
        description="Anchor-based explanation coverage for partition classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, limits=True):
        p.add_argument("--classifier", required=True,
                       help="path to a classifier spec (JSON)")
        if not limits:
            return
        p.add_argument("--cap", type=float, default=None,
                       help="radius cap standing in for infinity")
        p.add_argument("--budget", type=int, default=20_000,
                       help="sampling budget for non-convex certification")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None,
                       help="radius tolerance (default 1e-6 of the box diameter)")

    p = sub.add_parser("coverage", help="coverage at a single point")
    common(p)
    p.add_argument("--point", required=True,
                   help="comma-separated coordinates, e.g. -15,10")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("field", help="coverage over a grid or point set")
    common(p)
    p.add_argument("--grid", help="per-axis grid counts, e.g. 20x20")
    p.add_argument("--points-file", help="file with one point per line")
    p.add_argument("--out", help="output path")
    p.add_argument("--format", choices=("csv", "structured"), default="csv")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("structure", help="refined-linear structure verdict")
    common(p)
    p.add_argument("--out", help="write the verdict as JSON")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("refine", help="move label boundaries to a refinement set")
    common(p, limits=False)
    p.add_argument("--out", help="write the refined spec as JSON")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("compare", help="compare two classifiers at points")
    common(p)
    p.add_argument("--other", required=True, help="second classifier spec")
    p.add_argument("--point")
    p.add_argument("--points-file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run the built-in verification suite")
    p.add_argument("--suite", choices=("theorems",), default="theorems")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the report to a file")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        return EXIT_PIPE
    except (RefinementPoint, PointNotInAnyLabel, NoLabel, AmbiguousLabel) as exc:
        print(f"query error: {exc}", file=sys.stderr)
        return EXIT_QUERY
    except (SpecParseError, SchemaError, IoError, OSError) as exc:
        # OSError: a path that cannot be read or written
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (ValueError, CoverageLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC


def entry() -> None:
    code = main()
    if code == EXIT_PIPE:
        # the interpreter flushes stdout once more at exit: into a closed
        # pipe that prints "Exception ignored", into devnull nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
