"""Command line front end.

Exit codes: 0 success, 2 usage error (unknown variety, malformed
coordinates, a scan box whose weights exceed the vanishing check's
candidate cap), 3 internal validation failure (a descriptor or a
paper-derived invariant did not hold).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import degrees as degrees_mod
from . import oracles
from .cohomology import cohomology_table
from .regions import region_plot
from .roots import InvariantError
from .serialize import table_to_csv, table_to_json, table_to_text
from .varieties import (
    CATALOG_NAMES,
    CatalogError,
    WonderfulVariety,
    build_case,
    load_variety,
    pic_box,
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
        if X.rank not in (1, 2):
            raise CliError("--relative-lambda0 needs a variety of rank 1 or 2")
        base = X.lambda_zero_coords()
        coords = tuple(b + c for b, c in zip(base, coords))
    return coords


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
        text = table_to_text(X, table, coords)
    _emit(text, args.out)
    return 0


def _check_vanishing(X, box) -> tuple[bool, str]:
    rule = degrees_mod.rule_for(X)
    if rule is None:
        raise CliError(f"{X.name} carries no degree rule for the vanishing check")
    realized = oracles.vanishing_profile(X, box)
    allowed = rule.allowed()
    ok = realized <= allowed
    return ok, f"realized degrees {sorted(realized)}, allowed {sorted(allowed)}"


def _check_serre(X, box) -> tuple[bool, str]:
    for coords, lam in pic_box(X, box):
        res = oracles.serre_involution_check(X, lam)
        if not res:
            return False, f"lambda={list(coords)}: {res.detail}"
    return True, "witness bijection and dimension pairing hold on the box"


def _check_h0(X, box) -> tuple[bool, str]:
    for coords, lam in pic_box(X, box):
        table = cohomology_table(X, lam)
        got = sorted(c.highest_weight for c in table.constituents(0))
        expected = oracles.brion_h0(X, lam)
        if got != expected:
            return False, f"lambda={list(coords)}: H^0 is {got}, oracle says {expected}"
        if any(c.multiplicity != 1 for c in table.constituents(0)):
            return False, f"lambda={list(coords)}: H^0 multiplicity above 1"
        if X.group.is_dominant(lam) and any(d > 0 for d in table.nonzero_degrees()):
            return False, f"lambda={list(coords)}: dominant weight with higher cohomology"
    return True, "degree zero matches the independent scan on the box"


def _check_divisibility(X, box) -> tuple[bool, str]:
    rule = degrees_mod.rule_for(X)
    if rule is None:
        raise CliError(f"{X.name} carries no divisibility rule")
    for coords, lam in pic_box(X, box):
        ok, detail = degrees_mod.check_lengths(X, lam, rule)
        if not ok:
            return False, detail
        ok, detail = degrees_mod.check_table_against_rule(
            cohomology_table(X, lam), rule
        )
        if not ok:
            return False, f"lambda={list(coords)}: {detail}"
    return True, f"all witness lengths divisible by {rule.modulus}"


_CHECKS = {
    "vanishing": _check_vanishing,
    "serre": _check_serre,
    "h0": _check_h0,
    "divisibility": _check_divisibility,
}


def cmd_scan(args) -> int:
    X = _resolve_variety(args)
    if args.box < 0:
        raise CliError("box must be >= 0")
    names = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in names if c not in _CHECKS]
    if unknown:
        raise CliError(f"unknown checks: {', '.join(unknown)}")
    report = {"variety": X.name, "box": args.box, "checks": {}}
    all_ok = True
    for name in names:
        ok, detail = _CHECKS[name](X, args.box)
        report["checks"][name] = {"passed": ok, "detail": detail}
        all_ok = all_ok and ok
    report["passed"] = all_ok
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if all_ok else VALIDATION_ERROR


def cmd_region_plot(args) -> int:
    X = _resolve_variety(args)
    if X.rank not in (1, 2):
        raise CliError("region plots need a variety of rank 1 or 2")
    base = None
    if args.base is not None:
        if len(args.base) != len(X.pic_basis):
            raise CliError("base point has the wrong number of coordinates")
        base = X.weight_from_pic_coords(tuple(args.base))
    plot = region_plot(X, args.kind, args.range[0], args.range[1], base=base)
    out = args.out
    sidecar = os.path.splitext(out)[0] + ".cls"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(plot.svg())
    with open(sidecar, "w", encoding="utf-8") as fh:
        fh.write(plot.sidecar())
    print(f"wrote {out} and {sidecar}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wondercoh",
        description="line bundle cohomology on wonderful varieties of minimal rank",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in catalog").set_defaults(func=cmd_list)

    p = sub.add_parser("describe", help="print a variety descriptor and its validation")
    p.add_argument("variety", nargs="?")
    p.add_argument("--variety-file")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("cohomology", help="decompose all cohomology groups of L_lambda")
    p.add_argument("variety", nargs="?")
    p.add_argument("--variety-file")
    p.add_argument("--lambda", dest="lam", type=int, nargs="+", required=True,
                   help="coordinates in the pic basis")
    p.add_argument("--relative-lambda0", action="store_true",
                   help="interpret coordinates as offsets from lambda_0")
    p.add_argument("--degree", type=int)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--no-witness", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("scan", help="run oracle checks over a coordinate box")
    p.add_argument("variety", nargs="?")
    p.add_argument("--variety-file")
    p.add_argument("--box", type=int, required=True)
    p.add_argument("--checks", default="vanishing,serre,h0",
                   help="comma separated: vanishing, serre, h0, divisibility")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("region-plot", help="emit an SVG weight-region figure")
    p.add_argument("variety", nargs="?")
    p.add_argument("--variety-file")
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
        return args.func(args)
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
