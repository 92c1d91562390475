"""Restricted-length degree constraints for the symmetric minimal rank cases.

The cohomology degree of every summand is c * lt + |J| where lt is an
inversion count in the restricted root system and c is a per-family
constant (2 for group compactifications, 4 for PGL/PSp, 2n-2 for the odd
projective spaces and quadrics, 8 for E6/F4).  Together with the
inequalities lt >= |J|, |restricted positives| - lt >= r - |J| and the
boundary equivalences lt = 0 <=> J empty, lt = max <=> J full, this pins
the finite set of degrees that can carry cohomology at all.

These predicates constrain tables; they do not determine them, which is
why they live apart from the oracles.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .cohomology import CohomologyTable, contributions
from .varieties import WonderfulVariety


class DivisibilityRule(NamedTuple):
    family: str
    modulus: int
    restricted_count: int  # number of positive restricted roots
    rank: int
    dimension_N: int

    def allowed(self) -> frozenset[int]:
        return allowed_degrees(self.modulus, self.restricted_count, self.rank)


@functools.cache  # a scan asks once per weight; the result is a frozenset
def allowed_degrees(modulus: int, restricted_count: int, rank: int) -> frozenset[int]:
    """All degrees c*lt + j compatible with the four restricted-length
    constraints: lt >= j, |restricted positives| - lt >= rank - j,
    lt = 0 <=> j = 0 and lt = max <=> j = rank."""
    return frozenset(
        modulus * lt + j
        for lt in range(restricted_count + 1)
        for j in range(min(lt, rank) + 1)
        if restricted_count - lt >= rank - j
        and (lt == 0) == (j == 0)
        and (lt == restricted_count) == (j == rank)
    )


def rule_for(X: WonderfulVariety) -> Optional[DivisibilityRule]:
    """The rule attached to a catalog entry, if any (validated on build)."""
    if X.divisibility is None:
        return None
    c, restricted = X.divisibility
    return DivisibilityRule(X.name, c, restricted, X.rank, X.dimension_N)


def check_table_against_rule(
    table: CohomologyTable, rule: DivisibilityRule
) -> tuple[bool, str]:
    allowed = rule.allowed()
    for degree in table.nonzero_degrees():
        if degree not in allowed:
            return False, (
                f"degree {degree} carries cohomology but the {rule.family} rule "
                f"allows only {sorted(allowed)}"
            )
    return True, ""


def check_lengths(X: WonderfulVariety, lam, rule: DivisibilityRule) -> tuple[bool, str]:
    """Every witness length must be divisible by the family modulus; a
    failure names the first offending witness in the order of
    `contributions`."""
    for t in contributions(X, lam):
        if t.length % rule.modulus:
            return False, (
                f"lambda={list(lam)}: witness mu={list(t.mu)} has length "
                f"{t.length}, not a multiple of {rule.modulus}"
            )
    return True, ""
