"""The three benchmark workloads: seeded inputs, one operation each, and
the checks that decide whether an operation's output is correct.

Every library call goes through the module objects in ``lib`` at call
time, so the tracer in ``tracing.py`` sees each call it has wrapped.
Inputs are plain tuples; the library receives only the generated weights.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("deep-cohomology", "oracle-scan", "region-grid")

#: deep-cohomology: (variety, centre of the shell in every pic coordinate).
#: Every centre costs about the same (80 to 90 ms per evaluation at the
#: reference speed), so the latency percentiles fall inside one dense
#: cluster instead of on the edge between two varieties' costs.
DEEP_SHELLS = (
    ("group:A2", -30),
    ("group:A3", -6),
    ("group:B2", -21),
    ("group:G2", -12),
    ("PGL/PSp(3)", -29),
    ("PGL/PSp(4)", -7),
    ("E6/F4", -30),
)
#: seeded shell weights per variety besides the anchors (the whole shell
#: when it is smaller: group:G2 has 7 points)
DEEP_DRAWS = 10
#: the shell keeps |lam + rho|^2 within this share of the centre's value
DEEP_SHELL_WIDTH = Fraction(6, 100)

#: weights with known counts; always part of the deep-cohomology inputs
ANCHORS = {
    ("group:A3", (-8, -8, -8)): {"candidates": 8128, "witnesses": 158},
    ("PGL/PSp(4)", (-8, -8, -8)): {"candidates": 5089, "witnesses": 49},
    ("E6/F4", (-30, -30)): {"candidates": 2455, "witnesses": 242},
}

#: oracle-scan covers the catalog as it stood when the benchmark was
#: defined, so a catalog that grows later does not change the workload
ORACLE_NAMES = (
    "flag:A1", "flag:A1xA1", "flag:A2", "flag:B2", "group:A1", "group:A2",
    "PSO/PSO(2)", "PSO/PSO(3)", "PSO/PSO(4)", "Q(2)", "Q(3)", "SO7/G2", "Q7",
    "PGL/PSp(2)", "PGL/PSp(3)", "E6/F4",
)
ORACLE_BOX = 4
#: share of each stratum of the box drawn per seed.  A stratum holds the
#: points with the same max |c_i| (1..ORACLE_BOX) and the same signs; the
#: cost of a weight depends mostly on these, so a pass costs nearly the
#: same for every seed
ORACLE_SHARE = Fraction(1, 2)
#: the candidate cap that oracles.vanishing_profile applies per weight
VANISHING_CAP = 200_000

#: region-grid: the rank-1 and rank-2 entries of ORACLE_NAMES
REGION_NAMES = (
    "group:A1", "group:A2", "PSO/PSO(2)", "PSO/PSO(3)", "PSO/PSO(4)", "Q(2)",
    "Q(3)", "SO7/G2", "Q7", "PGL/PSp(2)", "PGL/PSp(3)", "E6/F4",
)
REGION_SPAN = 16  # grid [n_min, n_min + 16]: 17 points per axis
REGION_OFFSETS = range(-14, -1)  # n_min; the default figure range is [-8, 8]
REGION_DRAWS = 6


class CheckFailed(Exception):
    """An operation's output failed one of the workload's checks."""


def variety_names(workload: str) -> tuple[str, ...]:
    if workload == "deep-cohomology":
        return tuple(name for name, _ in DEEP_SHELLS)
    if workload == "oracle-scan":
        return ORACLE_NAMES
    if workload == "region-grid":
        return REGION_NAMES
    raise ValueError(f"unknown workload {workload!r}")


def label(item: tuple) -> str:
    name, arg = item
    return f"{name} {list(arg) if isinstance(arg, tuple) else arg}"


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, varieties: dict) -> list[tuple]:
    """The workload's inputs for one seed, as (variety name, argument)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deep-cohomology":
        items = list(ANCHORS)
        for name, centre in DEEP_SHELLS:
            shell = [c for c in _shell(varieties[name], centre) if (name, c) not in ANCHORS]
            items += [(name, c) for c in rng.sample(shell, min(DEEP_DRAWS, len(shell)))]
        return items
    if workload == "oracle-scan":
        items = []
        for name in ORACLE_NAMES:
            r = len(varieties[name].pic_basis)
            strata: dict[tuple, list] = {}
            for c in itertools.product(range(-ORACLE_BOX, ORACLE_BOX + 1), repeat=r):
                if any(c):
                    key = (max(map(abs, c)), tuple((x > 0) - (x < 0) for x in c))
                    strata.setdefault(key, []).append(c)
            for key in sorted(strata):
                draws = math.ceil(ORACLE_SHARE * len(strata[key]))
                items += [(name, c) for c in rng.sample(strata[key], draws)]
        return items
    if workload == "region-grid":
        return [
            (name, n_min)
            for name in REGION_NAMES
            for n_min in sorted(rng.sample(REGION_OFFSETS, REGION_DRAWS))
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _shell(X, centre: int) -> list[tuple[int, ...]]:
    """Pic coordinates within max(2, |centre| / 4) of (centre, ..., centre)
    whose |lam + rho|^2 lies within DEEP_SHELL_WIDTH of the centre's, in a
    fixed order."""
    r = len(X.pic_basis)

    def norm(coords):
        shifted = [x + 1 for x in X.weight_from_pic_coords(coords)]
        return X.group.inner_product(shifted, shifted)

    target = norm((centre,) * r)
    half = max(2, abs(centre) // 4)
    axis = range(centre - half, centre + half + 1)
    return [
        c
        for c in itertools.product(axis, repeat=r)
        if abs(norm(c) - target) <= DEEP_SHELL_WIDTH * target
    ]


# ---------------------------------------------------------------------------
# operations: each returns the output bytes of one operation


def op_deep(lib, X, coords) -> bytes:
    """What `wondercoh cohomology --format json` computes."""
    lam = X.weight_from_pic_coords(coords)
    table = lib.cohomology.cohomology_table(X, lam)
    return lib.serialize.table_to_json(X, table, coords).encode()


def op_scan(lib, X, coords) -> bytes:
    """All four `scan` checks on one weight, as the CLI runs them per box point."""
    lam = X.weight_from_pic_coords(coords)
    rule = lib.degrees.rule_for(X)
    checks = {}
    if rule is not None:
        checks["vanishing"] = _vanishing(lib, X, lam, rule)
    serre = lib.oracles.serre_involution_check(X, lam)
    checks["serre"] = (serre.ok, serre.detail)
    checks["h0"] = _h0(lib, X, lam)
    if rule is not None:
        checks["divisibility"] = _divisibility(lib, X, lam, rule)
    report = {
        "variety": X.name,
        "lambda": list(coords),
        "checks": {k: {"passed": ok, "detail": d} for k, (ok, d) in checks.items()},
    }
    failed = [k for k, (ok, _) in checks.items() if not ok]
    if failed:
        raise CheckFailed(f"{X.name} {list(coords)}: {', '.join(failed)} failed")
    return (json.dumps(report, indent=2) + "\n").encode()


def _vanishing(lib, X, lam, rule):
    # the per-weight body of oracles.vanishing_profile
    n = len(lib.cohomology.enumerate_candidates(X, lam))
    if n > VANISHING_CAP:
        return False, f"{n} candidates exceed the cap {VANISHING_CAP}"
    realized = set(lib.cohomology.cohomology_table(X, lam).nonzero_degrees())
    return realized <= rule.allowed(), f"realized degrees {sorted(realized)}"


def _h0(lib, X, lam):
    # the per-weight body of the CLI's h0 check
    table = lib.cohomology.cohomology_table(X, lam)
    got = sorted(c.highest_weight for c in table.constituents(0))
    expected = lib.oracles.brion_h0(X, lam)
    if got != expected:
        return False, f"H^0 is {got}, oracle says {expected}"
    if any(c.multiplicity != 1 for c in table.constituents(0)):
        return False, "H^0 multiplicity above 1"
    if X.group.is_dominant(lam) and any(d > 0 for d in table.nonzero_degrees()):
        return False, "dominant weight with higher cohomology"
    return True, ""


def _divisibility(lib, X, lam, rule):
    # the per-weight body of the CLI's divisibility check
    ok, detail = lib.degrees.check_lengths(X, lam, rule)
    if not ok:
        return ok, detail
    table = lib.cohomology.cohomology_table(X, lam)
    return lib.degrees.check_table_against_rule(table, rule)


def op_region(lib, X, n_min) -> bytes:
    """One Omega figure as `wondercoh region-plot --kind Omega` writes it."""
    plot = lib.regions.region_plot(X, "Omega", n_min, n_min + REGION_SPAN)
    return (plot.svg() + plot.sidecar()).encode()


OPERATIONS = {
    "deep-cohomology": op_deep,
    "oracle-scan": op_scan,
    "region-grid": op_region,
}


# ---------------------------------------------------------------------------
# checks run once per input, outside the timed loop; each raises CheckFailed


def check_output(workload: str, lib, X, arg, output: bytes) -> None:
    if workload == "deep-cohomology":
        _check_serre_bijection(lib, X, arg, output)
    elif workload == "region-grid":
        _check_omega_classes(X, arg, output)
    # oracle-scan runs its oracle checks inside every operation


def _check_serre_bijection(lib, X, coords, output: bytes) -> None:
    """The witnesses in the JSON output pair with those of the Serre-dual
    weight as (J, mu) -> (complement of J, -mu - 2 rho_X), degrees d and
    N - d, with equal dimensions."""
    doc = json.loads(output)
    lam = X.weight_from_pic_coords(coords)
    dual = lib.cohomology.serre_dual_weight(X, lam)
    dual_coords = X.pic_contains(dual)
    dual_doc = json.loads(op_deep(lib, X, dual_coords))
    n = X.dimension_N
    mine = _witnesses(doc)
    theirs = _witnesses(dual_doc)
    if len(mine) != len(theirs):
        raise CheckFailed(f"{len(mine)} witnesses vs {len(theirs)} dual ones")
    for (J, mu), degree in mine.items():
        jstar = tuple(i for i in range(X.rank) if i not in J)
        mustar = tuple(-x - y for x, y in zip(mu, X.two_rho_X))
        if theirs.get((jstar, mustar)) != n - degree:
            raise CheckFailed(f"witness J={list(J)} mu={list(mu)} has no dual partner")
    dims = {g["degree"]: g["dimension"] for g in doc["groups"]}
    dual_dims = {g["degree"]: g["dimension"] for g in dual_doc["groups"]}
    if dims != {n - d: v for d, v in dual_dims.items()}:
        raise CheckFailed("dimensions do not pair under Serre duality")


def _witnesses(doc: dict) -> dict:
    return {
        (tuple(w["J"]), tuple(w["mu"])): g["degree"]
        for g in doc["groups"]
        for c in g["constituents"]
        for w in c["witnesses"]
    }


def _check_omega_classes(X, n_min, output: bytes) -> None:
    """Recompute every sidecar line's J from rational inner products
    (mu + rho, gamma_i) < 0, without the engine's integer sign rows."""
    text = output.decode()
    sidecar = text[text.index("</svg>\n") + len("</svg>\n"):].splitlines()
    axis = range(n_min, n_min + REGION_SPAN + 1)
    grid = list(itertools.product(axis, repeat=X.rank))
    if len(sidecar) != len(grid):
        raise CheckFailed(f"{len(sidecar)} sidecar lines for {len(grid)} grid points")
    base = X.weight_from_pic_coords(X.lambda_zero_coords())
    for line, coords in zip(sidecar, grid):
        mu = [b + x for b, x in zip(base, X.weight_from_pic_coords(coords))]
        shifted = [x + 1 for x in mu]
        mask = sum(
            1 << i
            for i, gam in enumerate(X.spherical_roots)
            if X.group.inner_product(shifted, gam) < 0
        )
        expected = " ".join(str(c) for c in coords) + f" {mask}"
        if line != expected:
            raise CheckFailed(f"sidecar line {line!r}, expected {expected!r}")
