"""Independent ground truth used to falsify the main evaluation.

None of these functions reuse the engine's candidate enumeration: the
flag variety rule is a single chamber walk, the projective space
dimensions are binomial closed forms, the degree-zero description scans a
coordinate box of its own, and the Weyl group oracle lists group elements
outright.  Agreement between these and the engine is evidence, not a
tautology.

`scan` runs these oracles against the engine over a box of Picard
coordinates, for the CLI's `scan` and for `vanishing_profile`; with the
vanishing check, a weight is first refused if its candidates exceed the
cap.  They are never listed: a weight whose candidate ball the product
bound of `cohomology._ball_bound` holds to the cap is accepted at once,
and only a weight above it has the ball's lines counted, so the refused
weights and their message are those of the exact count.  It builds each
box weight's table and then runs the public checks on that weight,
`serre_involution_check` and `degrees.check_lengths`, the same functions
a caller runs one by one.  They share the one walk through the last-table
slot: `cohomology_table` keeps the last table it built, and the checks
read it (see the `cohomology` module docstring), so only the weight and
its Serre dual are walked.  The H^0 and degree-rule checks have no
public function of their own and read the scan's table directly.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import sub
from typing import NamedTuple, Optional, Sequence

from .cohomology import (
    CohomologyTable,
    Constituent,
    Contribution,
    DegreeGroup,
    _ball_bound,
    _ball_lines,
    cohomology_table,
    contributions,
    serre_partner,
)
from . import degrees
from .exactalg import negative_interval, row_products, translate
from .roots import RootSystem, Weight
from .varieties import WonderfulVariety, pic_box


#: the most candidates a capped scan lets one weight have before it refuses it
CANDIDATE_CAP = 200_000


class OracleBudgetError(RuntimeError):
    """A bounded scan exceeded its candidate budget (likely bad catalog data)."""


def bwb_direct(X: WonderfulVariety, lam: Sequence[int]) -> CohomologyTable:
    """Flag variety cohomology: one chamber walk, no spherical machinery."""
    if X.rank != 0:
        raise ValueError("bwb_direct only applies to flag varieties")
    lam = X.group.check_weight(lam)
    made = X.group.make_dominant_shifted(lam)
    if made is None:
        return CohomologyTable(lam, ())
    lam_plus, length, _ = made
    dim = X.group.weyl_dimension(lam_plus)
    witness = Contribution((), lam, length, lam_plus, length, dim)
    group = DegreeGroup(length, (Constituent(lam_plus, 1, dim, (witness,)),), dim)
    return CohomologyTable(lam, (group,))


def projective_space_cohomology(m: int, k: int) -> dict[int, int]:
    """Nonzero H^d(P^m, O(k)) dimensions by degree (classical closed form)."""
    if m < 1:
        raise ValueError("need m >= 1")
    if k >= 0:
        return {0: comb(m + k, m)}
    if k <= -m - 1:
        return {m: comb(-k - 1, m)}
    return {}


def quadric_cohomology(m: int, k: int) -> dict[int, int]:
    """Nonzero H^d(Q_m, O(k)) for a smooth m-dimensional quadric (m >= 2).

    Sections come from the ambient restriction sequence, so
    h^0(O(k)) = C(m+1+k, m+1) - C(m-1+k, m+1); the top degree is Serre
    dual to sections of O(-m-k) (the canonical sheaf is O(-m)); all
    intermediate degrees vanish.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if k >= 0:
        return {0: comb(m + 1 + k, m + 1) - comb(m - 1 + k, m + 1)}
    if k <= -m:
        return {m: quadric_cohomology(m, -m - k)[0]}
    return {}


def brion_h0(X: WonderfulVariety, lam: Sequence[int]) -> list[Weight]:
    """Dominant weights mu with lam - mu a nonnegative integer combination
    of the spherical roots, found by a box scan that dominance cuts along
    its last coordinate.

    A dominant mu has nonnegative simple-root coordinates, and `validate`
    checks that each gamma_i has too.  So mu = lam - sum d_i gamma_i with
    d >= 0 needs d_i gamma_ia <= lam_a in each simple-root coordinate a:
    d_i <= lam_a // gamma_ia wherever gamma_ia > 0, with the coordinates
    scaled to integers by one common denominator.  A bound below 0 leaves
    no mu.  The gamma_ia are descriptor data, taken once at build.

    The box runs over d_0..d_{r-2} with one `translate` per point.  Along
    the last coordinate each entry of mu - d gamma_{r-1} is affine in d,
    so the dominant points form one interval of d, cut by one
    `exactalg.negative_interval` per entry, and are stepped through by
    subtracting gamma_{r-1}; no point off it is built.  Rank 0 has the one
    point d = ().  Nothing here reads the witness walk or its tables.
    """
    lam = X.require_pic(lam)
    sigma = X.spherical_roots
    if not sigma:
        return [tuple(lam)] if all(x >= 0 for x in lam) else []
    lam_a = row_products(X.group._cartan_inv_scaled[0], lam)
    bounds = [
        min(la // ga for la, ga in zip(lam_a, gam_a) if ga > 0) for gam_a in X._gamma_simple
    ]
    if min(bounds) < 0:
        return []
    *outer, last = bounds
    step = sigma[-1]
    found = []
    for minus_d in itertools.product(*(range(0, -b - 1, -1) for b in outer)):
        mu = translate(lam, minus_d, sigma)
        # mu - d gamma_last >= 0 entry by entry: -mu_k - 1 + d gamma_k < 0
        lo, hi = 0, last
        for x, g in zip(mu, step):
            lo, hi = negative_interval(-x - 1, g, lo, hi)
        if lo > hi:
            continue
        if lo:
            mu = tuple([x - lo * g for x, g in zip(mu, step)])
        found.append(mu)
        for _ in range(lo, hi):
            mu = tuple(map(sub, mu, step))
            found.append(mu)
    return sorted(found)


def capped_candidate_count(X: WonderfulVariety, coords, lam, cap: int = CANDIDATE_CAP) -> int:
    """An upper bound, no larger than `cap`, on how many weights
    `enumerate_candidates(X, lam)` lists, found without listing them: the
    product bound on the ball's points when it is at most `cap`, and else
    the exact count from the lines of the ball.  Raises OracleBudgetError
    when that count exceeds `cap` (lam has pic coordinates `coords`)."""
    sig = X.sign_pairings(lam)
    n = _ball_bound(X, sig, 2)
    if n > cap:
        n = sum(points for _, points, _ in _ball_lines(X, sig, 2))
        if n > cap:
            raise OracleBudgetError(
                f"{X.name}, lambda={list(coords)}: {n} candidates exceed the cap {cap}"
            )
    return n


class SerreCheck(NamedTuple):
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def serre_involution_check(X: WonderfulVariety, lam: Sequence[int]) -> SerreCheck:
    """Verify the witness bijection (J, mu) -> (J*, mu*) between lam and its
    Serre dual, including degree complementarity and dimension equality."""
    table = cohomology_table(X, lam)
    left = table.witnesses()
    right = contributions(X, X.serre_dual(table.lam))
    n = X.dimension_N
    index = {(t.J, t.mu): t for t in right}
    if len(index) != len(right):
        return SerreCheck(False, "duplicate witnesses on the dual side")
    if len(left) != len(right):
        return SerreCheck(False, f"{len(left)} witnesses vs {len(right)} dual ones")
    # the partners are all of `right`, so dual_dims[d] is dim H^{n - d} of the dual
    dual_dims: dict[int, int] = {}
    for t in left:
        partner = index.get(serre_partner(X, t))
        if partner is None:
            return SerreCheck(False, f"witness (J={t.J}, mu={list(t.mu)}) has no dual partner")
        if partner.degree != n - t.degree:
            detail = f"degree {t.degree} pairs with {partner.degree}, expected {n - t.degree}"
            return SerreCheck(False, detail)
        dual_dims[t.degree] = dual_dims.get(t.degree, 0) + partner.dimension
    for d, value in table.dimensions_by_degree().items():
        if dual_dims.get(d, 0) != value:
            return SerreCheck(False, f"dim H^{d} = {value} but dual H^{n - d} differs")
    return SerreCheck(True)


#: the checks `scan` runs, each with its detail for a box that passes;
#: vanishing's detail is written once the whole box is scanned, if a rule is given
SCAN_CHECKS = {
    "vanishing": "",
    "serre": "witness bijection and dimension pairing hold on the box",
    "h0": "degree zero matches the independent scan on the box",
    "divisibility": "all witness lengths divisible by {rule.modulus}",
}


class ScanResult(NamedTuple):
    checks: dict[str, tuple[bool, str]]  # (passed, detail) per check, in the order given
    realized: set[int]  # nonzero degrees over the evaluated weights


def scan(X: WonderfulVariety, box: int, checks, *, candidate_cap=CANDIDATE_CAP) -> ScanResult:
    """Run the named `SCAN_CHECKS` over every pic weight with coordinates
    in [-box, box], evaluating each weight once; the degree rule is
    `degrees.rule_for(X)`.

    `vanishing` bounds each weight's candidates first, counts them exactly
    only when the bound is over `candidate_cap`, and raises
    OracleBudgetError for a count over it before any work on the weight;
    once the box is done it compares the union of realized degrees with
    `rule.allowed()` (with no rule it only collects them and stays
    `(True, "")`).  Every other check stops at its first failing weight,
    and the walk stops once no check is left running.  An unknown check,
    `divisibility` on an X with no rule and a box below 0 raise ValueError
    before any weight is evaluated.
    """
    rule = degrees.rule_for(X)
    if box < 0:
        raise ValueError("box must be >= 0")
    unknown = [c for c in checks if c not in SCAN_CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    if rule is None and "divisibility" in checks:
        raise ValueError(f"{X.name} carries no divisibility rule")
    results = {c: (True, SCAN_CHECKS[c].format(rule=rule)) for c in checks}
    realized: set[int] = set()
    for coords, lam in pic_box(X, box):
        running = [c for c, (ok, _) in results.items() if ok and c != "vanishing"]
        if "vanishing" in results:  # refuse an over-cap weight before any work on it
            capped_candidate_count(X, coords, lam, candidate_cap)
        elif not running:
            break
        table = cohomology_table(X, lam)
        realized.update(table.nonzero_degrees())
        for name in running:
            detail = _scan_failure(name, X, rule, coords, lam, table)
            if detail is not None:
                results[name] = (False, detail)
    if "vanishing" in results and rule is not None:
        allowed = rule.allowed()
        detail = f"realized degrees {sorted(realized)}, allowed {sorted(allowed)}"
        results["vanishing"] = (realized <= allowed, detail)
    return ScanResult(results, realized)


def _scan_failure(name, X, rule, coords, lam, table) -> Optional[str]:
    """The failure detail of check `name` at one box weight, or None."""
    if name == "serre":
        res = serre_involution_check(X, lam)
        return None if res else f"lambda={list(coords)}: {res.detail}"
    if name == "divisibility":
        # the length check names the weight itself
        ok, detail = degrees.check_lengths(X, lam, rule)
        if ok:
            ok, detail = degrees.check_table_against_rule(table, rule)
            detail = f"lambda={list(coords)}: {detail}"
        return None if ok else detail
    got = sorted(c.highest_weight for c in table.constituents(0))
    expected = brion_h0(X, lam)
    if got != expected:
        return f"lambda={list(coords)}: H^0 is {got}, oracle says {expected}"
    if any(c.multiplicity != 1 for c in table.constituents(0)):
        return f"lambda={list(coords)}: H^0 multiplicity above 1"
    if X.group.is_dominant(lam) and any(d > 0 for d in table.nonzero_degrees()):
        return f"lambda={list(coords)}: dominant weight with higher cohomology"


def vanishing_profile(X: WonderfulVariety, box: int, candidate_cap=CANDIDATE_CAP) -> set[int]:
    """Union of nonzero cohomology degrees over all pic weights with
    coordinates in [-box, box]: `scan` with only `vanishing` selected, so
    a weight over `candidate_cap` raises before it is evaluated."""
    return scan(X, box, ("vanishing",), candidate_cap=candidate_cap).realized


# ---------------------------------------------------------------------------
# Weyl group by brute force (small ranks only)


class BruteWeylGroup:
    """Explicit element list of a Weyl group of total rank <= 3."""

    def __init__(self, system: RootSystem):
        if system.rank > 3:
            raise ValueError("brute force Weyl groups are limited to rank <= 3")
        self.system = system
        n = system.rank
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        gens = [self._simple_matrix(i) for i in range(n)]
        lengths = {identity: 0}
        frontier = [identity]
        while frontier:
            new = []
            for m in frontier:
                for gmat in gens:
                    prod = self._mul(gmat, m)
                    if prod not in lengths:
                        lengths[prod] = lengths[m] + 1
                        new.append(prod)
            frontier = new
        self.lengths = lengths
        self.elements = sorted(lengths, key=lambda m: (lengths[m], m))

    def _simple_matrix(self, i: int):
        n = self.system.rank
        a = self.system.cartan
        return tuple(
            tuple(int(j == k) - (a[j][i] if k == i else 0) for k in range(n))
            for j in range(n)
        )

    @staticmethod
    def _mul(m1, m2):
        n = len(m1)
        return tuple(
            tuple(sum(m1[i][k] * m2[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    @staticmethod
    def apply(m, v: Sequence[int]) -> Weight:
        return tuple(sum(row[k] * v[k] for k in range(len(v))) for row in m)

    def __len__(self) -> int:
        return len(self.elements)

    def make_dominant_shifted(
        self, lam: Sequence[int]
    ) -> Optional[tuple[Weight, int]]:
        """The shortest element, in the length order of the whole group, that
        makes lam + rho dominant: the oracle for the chamber walk."""
        v = tuple(x + 1 for x in self.system.check_weight(lam))
        for m in self.elements:
            image = self.apply(m, v)
            if all(x > 0 for x in image):
                return tuple(x - 1 for x in image), self.lengths[m]
        return None  # exactly when lam + rho is singular


def weyl_group_bruteforce(system: RootSystem) -> BruteWeylGroup:
    return BruteWeylGroup(system)

