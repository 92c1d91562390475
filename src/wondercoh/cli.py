"""Command line front end.

`scan` validates its arguments, runs `oracles.scan` and writes its
report.  Exit codes: 0 success, 2 usage error (unknown variety,
malformed coordinates, a scan weight over the candidate cap, an output
file that cannot be written, a stdout whose reader is gone, a region-plot
SVG that its sidecar would overwrite, any other ValueError of the
library, such as `lambda_zero` on a descriptor that defines none), 3
internal validation failure (a descriptor or a paper-derived invariant
did not hold).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import degrees as degrees_mod
from . import oracles
from .cohomology import DegreeGroup, cohomology_table
from .regions import region_plot
from .roots import InvariantError
from .serialize import table_to_csv, table_to_json, table_to_text
from .varieties import (
    CATALOG_NAMES,
    CatalogError,
    WonderfulVariety,
    build_case,
    load_variety,
    validate,
)

USAGE_ERROR = 2
VALIDATION_ERROR = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _resolve_variety(args) -> WonderfulVariety:
    if getattr(args, "variety_file", None):
        try:
            return load_variety(args.variety_file)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read variety file: {exc}")
        except CatalogError as exc:
            raise CliError(str(exc), VALIDATION_ERROR)
    if not args.variety:
        raise CliError("no variety given")
    try:
        return build_case(args.variety)
    except CatalogError as exc:
        raise CliError(str(exc))


def _resolve_lambda(X: WonderfulVariety, args) -> tuple[int, ...]:
    coords = tuple(args.lam)
    if len(coords) != len(X.pic_basis):
        raise CliError(
            f"{X.name} needs {len(X.pic_basis)} pic coordinates, got {len(coords)}"
        )
    if getattr(args, "relative_lambda0", False):
        coords = tuple(b + c for b, c in zip(X.lambda_zero_coords(), coords))
    return coords


def _emit(text: str, out: Optional[str]) -> None:
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output: {exc}")
    else:
        sys.stdout.write(text)


def cmd_list(args) -> int:
    for name in CATALOG_NAMES:
        print(name)
    return 0


def cmd_describe(args) -> int:
    X = _resolve_variety(args)
    for line in X.describe_lines():
        print(line)
    print(validate(X))
    return 0


def cmd_cohomology(args) -> int:
    X = _resolve_variety(args)
    coords = _resolve_lambda(X, args)
    lam = X.weight_from_pic_coords(coords)
    table = cohomology_table(X, lam)
    if args.degree is not None:
        table = type(table)(
            table.lam, tuple(g for g in table.groups if g.degree == args.degree)
        )
    if args.format == "json":
        text = table_to_json(X, table, coords, with_witnesses=not args.no_witness)
    elif args.format == "csv":
        text = table_to_csv(X, table, coords)
    else:
        if args.degree is not None and not table.groups:
            # the filter left only H^degree, and it vanishes: not every group does
            table = type(table)(table.lam, (DegreeGroup(args.degree, (), 0),))
        text = table_to_text(X, table, coords, with_witnesses=not args.no_witness)
    _emit(text, args.out)
    return 0


_NO_RULE = {"vanishing": "degree rule for the vanishing check", "divisibility": "divisibility rule"}


def cmd_scan(args) -> int:
    X = _resolve_variety(args)
    if args.box < 0:
        raise CliError("box must be >= 0")
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    if not names:
        raise CliError("no checks given")
    unknown = [c for c in names if c not in oracles.SCAN_CHECKS]
    if unknown:
        raise CliError(f"unknown checks: {', '.join(unknown)}")
    rule = degrees_mod.rule_for(X)
    needs = [_NO_RULE[c] for c in names if c in _NO_RULE]
    if rule is None and needs:
        raise CliError(f"{X.name} carries no {needs[0]}")
    checks = oracles.scan(X, args.box, names).checks
    report = {"variety": X.name, "box": args.box, "checks": {}}
    for name, (ok, detail) in checks.items():
        report["checks"][name] = {"passed": ok, "detail": detail}
    report["passed"] = all(ok for ok, _ in checks.values())
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else VALIDATION_ERROR


def cmd_region_plot(args) -> int:
    X = _resolve_variety(args)
    if X.rank not in (1, 2):
        raise CliError("region plots need a variety of rank 1 or 2")
    out = args.out
    sidecar = os.path.splitext(out)[0] + ".cls"
    if sidecar == out:
        raise CliError(f"--out {out} is the sidecar's own path; give the SVG another name")
    base = None
    if args.base is not None:
        if len(args.base) != len(X.pic_basis):
            raise CliError("base point has the wrong number of coordinates")
        base = X.weight_from_pic_coords(tuple(args.base))
    plot = region_plot(X, args.kind, args.range[0], args.range[1], base=base)
    _emit(plot.svg(), out)
    _emit(plot.sidecar(), sidecar)
    print(f"wrote {out} and {sidecar}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wondercoh",
        description="line bundle cohomology on wonderful varieties of minimal rank",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    variety = argparse.ArgumentParser(add_help=False)
    variety.add_argument("variety", nargs="?")
    variety.add_argument("--variety-file")

    sub.add_parser("list", help="list the built-in catalog").set_defaults(func=cmd_list)

    p = sub.add_parser("describe", parents=[variety],
                       help="print a variety descriptor and its validation")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("cohomology", parents=[variety],
                       help="decompose all cohomology groups of L_lambda")
    p.add_argument("--lambda", dest="lam", type=int, nargs="*", required=True,
                   help="coordinates in the pic basis")
    p.add_argument("--relative-lambda0", action="store_true",
                   help="interpret coordinates as offsets from lambda_0")
    p.add_argument("--degree", type=int)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--no-witness", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("scan", parents=[variety], help="run oracle checks over a coordinate box")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--checks", default="vanishing,serre,h0",
                   help="comma separated: vanishing, serre, h0, divisibility")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("region-plot", parents=[variety], help="emit an SVG weight-region figure")
    p.add_argument("--kind", choices=("Omega", "R"), required=True)
    p.add_argument("--range", type=int, nargs=2, required=True, metavar=("MIN", "MAX"))
    p.add_argument("--base", type=int, nargs="+",
                   help="base point in pic coordinates (default: lambda_0 / 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_region_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that is gone shows here, not at exit
        return code
    except BrokenPipeError as exc:
        # the interpreter flushes stdout again at exit; let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        except BrokenPipeError:  # stderr is the same closed pipe
            os.dup2(devnull, sys.stderr.fileno())
        return USAGE_ERROR
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CatalogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except InvariantError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except (ValueError, oracles.OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
