"""Evaluation of the cohomology decomposition for minimal rank wonderful varieties.

For a weight lam in pic(X) the degree-d cohomology of the line bundle
L_lam splits into irreducibles L(mu^+), one summand for every pair (J, mu)
with J a subset of the spherical roots, mu in the translated sign cone
(strictly positive multiples of J, nonpositive off J), mu + rho regular,
the negative-pairing set of mu + rho equal to J, and l(mu) + |J| = d.

Enumeration is exact.  Write mu = lam + sum c_i gamma_i.  The sign cone
makes J the positive support {i : c_i > 0} of c, and the omega condition
asks for that same set, so a point c contributes exactly when
(mu + rho, gamma_i) < 0 iff c_i > 0, for every i.  For a
contributing pair the two sign conditions give c_i (mu + rho, gamma_i) <= 0
for every i: on J, c_i >= 1 and the pairing is negative; off J, c_i <= 0
and the pairing is nonnegative.  Summed over i this is

    (mu + rho, mu - lam) <= 0,

the witness ball: mu + rho lies in the ball whose diameter is the segment
from 0 to lam + rho.  In the coefficients it reads c^T G c + c^T b <= 0,
with G the spherical Gram matrix and b_i = (lam + rho, gamma_i);
`contributions` enumerates its integer points.
Adding |mu - lam|^2 >= 0 gives the weaker |mu + rho| <= |lam + rho|, i.e.
c^T G c + 2 c^T b <= 0, a ball of twice the radius and about 2^r times the
points; `enumerate_candidates` keeps returning that superset.

Per witness, `contributions` already holds the coroot pairings
pair_k = <mu + rho, alpha_k^vee>.  Their sign vector is the inversion set
of mu + rho, and it fixes the Weyl element w with w(mu + rho) dominant.
So the chamber walk runs once per distinct sign vector in a call, and
its word, applied to the identity, gives the integer matrix of w; every
witness with that key gets mu^+ = w(mu + rho) - rho and l(mu) = the number
of negative pairings.  As w permutes the positive coroots up to sign,
|prod_k pair_k| is the Weyl dimension numerator of mu^+, so
dim L(mu^+) = |prod_k pair_k| / prod_k <rho, alpha_k^vee> needs no second
pass over the roots.  Dominance of mu^+ and the divisibility are checked
for every witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .exactalg import span_numerators, translate
from .roots import InvariantError, RootSystem, Weight
from .varieties import CatalogError, WonderfulVariety


@dataclass(frozen=True)
class Contribution:
    """One summand L(mu_plus) of H^degree, with its certifying pair (J, mu)."""

    J: tuple[int, ...]
    mu: Weight
    length: int
    mu_plus: Weight
    degree: int
    dimension: int  # dim L(mu_plus)

    def j_bitmask(self) -> int:
        return sum(1 << i for i in self.J)


@dataclass(frozen=True)
class Constituent:
    highest_weight: Weight
    multiplicity: int
    dimension: int
    witnesses: tuple[Contribution, ...]


@dataclass(frozen=True)
class DegreeGroup:
    degree: int
    constituents: tuple[Constituent, ...]
    dimension: int


@dataclass(frozen=True)
class CohomologyTable:
    lam: Weight
    groups: tuple[DegreeGroup, ...]

    def nonzero_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.groups)

    def dimension(self, degree: int) -> int:
        for g in self.groups:
            if g.degree == degree:
                return g.dimension
        return 0

    def constituents(self, degree: int) -> tuple[Constituent, ...]:
        for g in self.groups:
            if g.degree == degree:
                return g.constituents
        return ()

    def dimensions_by_degree(self) -> dict[int, int]:
        return {g.degree: g.dimension for g in self.groups}


def _require_pic(X: WonderfulVariety, lam: Sequence[int]) -> Weight:
    lam = X.group.check_weight(lam)
    if X.pic_contains(lam) is None:
        raise ValueError(f"{list(lam)} is not in pic({X.name})")
    return lam


def _gamma_pairings(X: WonderfulVariety, mu: Weight) -> list[int]:
    """D (mu + rho, gamma_i) for each i, D = X._gamma_den: exact, sign-true ints."""
    shifted = [x + 1 for x in mu]
    return [sum(w * x for w, x in zip(row, shifted)) for row in X._gamma_sign_rows]


def _omega_signature(X: WonderfulVariety, mu: Weight) -> tuple[int, ...]:
    return tuple(i for i, s in enumerate(_gamma_pairings(X, mu)) if s < 0)


def omega_signature(X: WonderfulVariety, mu: Sequence[int]) -> tuple[int, ...]:
    """Indices i with (mu + rho, gamma_i) < 0; zero pairings stay out."""
    return _omega_signature(X, _require_pic(X, mu))


def in_translated_R(
    X: WonderfulVariety, lam: Sequence[int], mu: Sequence[int], J: Sequence[int]
) -> bool:
    """Whether mu - lam expands over the spherical roots with coefficients
    >= 1 on J and <= 0 elsewhere (returns False outside the integer span)."""
    lam = _require_pic(X, lam)
    mu = _require_pic(X, mu)
    diff = tuple(a - b for a, b in zip(mu, lam))
    n = span_numerators(X.spherical_roots, X._sigma_left_inv, diff)
    den = X._sigma_left_inv[1]
    if n is None or any(x % den for x in n):
        return False
    jset = set(J)
    return all((x > 0) == (i in jset) for i, x in enumerate(n))


def _ball_coefficients(
    X: WonderfulVariety, lam: Weight, k: int
) -> list[tuple[int, ...]]:
    """All integer c with c^T G c + k c^T b <= 0, where G is the spherical
    Gram matrix and b_i = (lam + rho, gamma_i), in lexicographic order.

    k = 1 is the witness ball (mu + rho, mu - lam) <= 0 that holds every
    contributing pair; k = 2 is the ball |mu + rho| <= |lam + rho| that
    `enumerate_candidates` returns (see the module docstring).  c = 0 is on
    the boundary of both, so the result is never empty.

    Completing the square with z = (k/2) G^-1 b and G = L diag(d) L^T
    turns the quadric into sum_i d_i (c_i + o_i)^2 <= z^T G z with
    o_i = u_i + sum_{j>i} L_ji c_j and u = L^T z = k M s, where
    M = L^T G^-1 / (2 D) and s = D b = `_gamma_pairings`.  Once per variety
    `X._witness_form` fixes q_i, the least integer clearing row i of M and
    column i of L, with rows_i = q_i M_i, A_ij = q_i L_ji and
    e_i = S d_i / q_i^2 (S clears all d_i / q_i^2).  Per weight,
    base_i = q_i u_i = k rows_i . s and t_i = q_i (c_i + o_i) =
    q_i c_i + base_i + sum_{j>i} A_ij c_j are integers, and as
    z^T G z = sum_i d_i u_i^2 the quadric reads
    sum_i e_i t_i^2 <= sum_i e_i base_i^2.  The branch and bound peels
    c_{r-1}, ..., c_0 off with int arithmetic and math.isqrt only; every
    bound is exact, so points on the boundary are always kept.
    """
    r = X.rank
    if r == 0:
        return [()]
    rows, q, A, e = X._witness_form
    sig = _gamma_pairings(X, lam)
    base = [k * sum(w * x for w, x in zip(row, sig)) for row in rows]
    results: list[tuple[int, ...]] = []
    c = [0] * r

    def descend(i: int, remaining: int) -> None:
        # e_i t^2 <= remaining  <=>  |t| <= isqrt(remaining // e_i) for int t
        qi, ei, row = q[i], e[i], A[i]
        p = base[i] + sum(row[j] * c[j] for j in range(i + 1, r))
        s = math.isqrt(remaining // ei)
        for ci in range(-((s + p) // qi), (s - p) // qi + 1):
            c[i] = ci
            if i == 0:
                results.append(tuple(c))
            else:
                t = qi * ci + p
                descend(i - 1, remaining - ei * t * t)

    descend(r - 1, sum(ei * bi * bi for ei, bi in zip(e, base)))
    return sorted(results)


def enumerate_candidates(X: WonderfulVariety, lam: Sequence[int]) -> list[Weight]:
    """All mu = lam + sum c_i gamma_i (c integral) with |mu + rho| <= |lam + rho|:
    a finite superset of the contributing weights (see the module docstring)."""
    lam = _require_pic(X, lam)
    return [translate(lam, c, X.spherical_roots) for c in _ball_coefficients(X, lam, 2)]


def _chamber(g: RootSystem, mu: Weight, inversions: int) -> tuple[int, tuple[Weight, ...]]:
    """(length, matrix rows) of the Weyl element w taking the regular mu + rho
    into the dominant chamber: one chamber walk, its word applied to the
    identity.  The walk's length must equal the inversion count of mu + rho."""
    made = g.make_dominant_shifted(mu)
    if made is None:
        raise InvariantError("chamber walk calls a regular mu + rho singular")
    _, length, word = made
    if length != inversions:
        raise InvariantError("length mismatch between pairing rows and walk")
    cols = [tuple(int(i == j) for i in range(g.rank)) for j in range(g.rank)]
    for i in word:
        cols = [g.reflect_simple(i, v) for v in cols]
    return length, tuple(zip(*cols))


def contributions(X: WonderfulVariety, lam: Sequence[int]) -> list[Contribution]:
    """All certified pairs (J, mu) for lam, in canonical order."""
    lam = _require_pic(X, lam)
    g = X.group
    base_pair = g.shifted_pairings(lam)
    sig_base = _gamma_pairings(X, lam)
    walks: dict[tuple[bool, ...], tuple[int, tuple[Weight, ...]]] = {}
    out = []
    for c in _ball_coefficients(X, lam, 1):
        # the sign cone fixes J = {i : c_i > 0}; the omega signature must equal it
        sig = translate(sig_base, c, X._gamma_sign_gram)  # symmetric: rows are columns
        if any((s < 0) != (ci > 0) for s, ci in zip(sig, c)):
            continue
        pair = translate(base_pair, c, X._gamma_coroot_rows)
        if 0 in pair:
            continue  # mu + rho singular
        mu = translate(lam, c, X.spherical_roots)
        key = tuple([p < 0 for p in pair])
        walk = walks.get(key)
        if walk is None:
            walk = walks[key] = _chamber(g, mu, sum(key))
        length, w = walk
        shifted = [x + 1 for x in mu]
        mu_plus = tuple(sum(a * x for a, x in zip(row, shifted)) - 1 for row in w)
        if min(mu_plus) < 0:
            raise InvariantError("w(mu + rho) is not dominant")
        dimension, rem = divmod(abs(math.prod(pair)), g._weyl_den)
        if rem:
            raise InvariantError("pairing product is not a Weyl dimension numerator")
        J = tuple(i for i, ci in enumerate(c) if ci > 0)
        degree = length + len(J)
        if not 0 <= degree <= X.dimension_N:
            raise InvariantError("degree outside [0, N]")
        out.append(Contribution(J, mu, length, mu_plus, degree, dimension))
    out.sort(key=lambda t: (t.degree, t.mu))
    return out


def tabulate(
    X: WonderfulVariety, lam: Sequence[int], conts: Sequence[Contribution]
) -> CohomologyTable:
    """Aggregate the contributions of lam into per-degree constituents;
    each constituent's dimension is that of its witnesses."""
    by_key: dict[tuple[int, Weight], list[Contribution]] = {}
    for t in conts:
        by_key.setdefault((t.degree, t.mu_plus), []).append(t)
    groups = []
    for deg, items in itertools.groupby(sorted(by_key.items()), key=lambda kv: kv[0][0]):
        constituents = []
        for (_, hw), wits in items:
            wits = tuple(sorted(wits, key=lambda t: (t.j_bitmask(), t.mu)))
            constituents.append(Constituent(hw, len(wits), wits[0].dimension, wits))
        total = sum(c.multiplicity * c.dimension for c in constituents)
        groups.append(DegreeGroup(deg, tuple(constituents), total))
    return CohomologyTable(X.group.check_weight(lam), tuple(groups))


def cohomology_table(X: WonderfulVariety, lam: Sequence[int]) -> CohomologyTable:
    """The cohomology decomposition of L_lam: its contributions, tabulated."""
    return tabulate(X, lam, contributions(X, lam))


def serre_dual_weight(X: WonderfulVariety, lam: Sequence[int]) -> Weight:
    """Weight of the Serre-dual line bundle; an involution on pic(X)."""
    lam = _require_pic(X, lam)
    twist = X.serre_twist()
    dual = tuple(t - x for x, t in zip(lam, twist))
    if X.pic_contains(dual) is None:
        raise CatalogError(f"{X.name}: Serre dual of {list(lam)} left pic; bad catalog data")
    return dual


def serre_partner(X: WonderfulVariety, t: Contribution) -> tuple[tuple[int, ...], Weight]:
    """The witness (J*, mu*) paired with (J, mu) under the duality involution."""
    jstar = tuple(i for i in range(X.rank) if i not in t.J)
    mustar = tuple(-x - y for x, y in zip(t.mu, X.two_rho_X))
    return jstar, mustar
