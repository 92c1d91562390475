"""Evaluation of the cohomology decomposition for minimal rank wonderful varieties.

For a weight lam in pic(X) the degree-d cohomology of the line bundle
L_lam splits into irreducibles L(mu^+), one summand for every pair (J, mu)
with J a subset of the spherical roots, mu in the translated sign cone
(strictly positive multiples of J, nonpositive off J), mu + rho regular,
the negative-pairing set of mu + rho equal to J, and l(mu) + |J| = d.

Enumeration is exact.  Write mu = lam + sum c_i gamma_i.  For a
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactalg import mat_vec, translate
from .roots import InvariantError, Weight
from .varieties import CatalogError, WonderfulVariety


@dataclass(frozen=True)
class Contribution:
    """One summand L(mu_plus) of H^degree, with its certifying pair (J, mu)."""

    J: tuple[int, ...]
    mu: Weight
    length: int
    mu_plus: Weight
    degree: int

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


def omega_signature(X: WonderfulVariety, mu: Sequence[int]) -> tuple[int, ...]:
    """Indices i with (mu + rho, gamma_i) < 0; zero pairings stay out."""
    mu = _require_pic(X, mu)
    return tuple(i for i, s in enumerate(_gamma_pairings(X, mu)) if s < 0)


def in_translated_R(
    X: WonderfulVariety, lam: Sequence[int], mu: Sequence[int], J: Sequence[int]
) -> bool:
    """Whether mu - lam expands over the spherical roots with coefficients
    >= 1 on J and <= 0 elsewhere (returns False outside the integer span)."""
    lam = _require_pic(X, lam)
    mu = _require_pic(X, mu)
    jset = set(J)
    diff = tuple(a - b for a, b in zip(mu, lam))
    coords = X.sigma_coords(diff)
    if coords is None or any(c.denominator != 1 for c in coords):
        return False
    return _sign_pattern_ok(tuple(int(c) for c in coords), jset)


def _sign_pattern_ok(coeffs: tuple[int, ...], jset: set[int]) -> bool:
    return all(
        (c >= 1) if i in jset else (c <= 0) for i, c in enumerate(coeffs)
    )


def _ball_coefficients(
    X: WonderfulVariety, lam: Weight, k: int
) -> list[tuple[int, ...]]:
    """All integer c with c^T G c + k c^T b <= 0, where G is the spherical
    Gram matrix and b_i = (lam + rho, gamma_i), in lexicographic order.

    k = 1 is the witness ball (mu + rho, mu - lam) <= 0 that holds every
    contributing pair; k = 2 is the ball |mu + rho| <= |lam + rho| that
    `enumerate_candidates` returns (see the module docstring).  c = 0 is on
    the boundary of both, so the result is never empty.

    Completing the square with z = (k/2) G^-1 b and G = L D L^T turns the
    quadric into sum_i d_i (c_i + o_i)^2 <= z^T G z with
    o_i = u_i + sum_{j>i} L_ji c_j and u = L^T z.  Scaling level i by the
    common denominator q_i of u_i and L_ji, and the whole sum by the common
    denominator S of the d_i / q_i^2, makes every quantity an integer:
    t_i = q_i (c_i + o_i) and sum_i e_i t_i^2 <= floor(S z^T G z) with
    e_i = S d_i / q_i^2.  The branch and bound then peels c_{r-1}, ..., c_0
    off with int arithmetic and math.isqrt only; every bound is exact, so
    points on the boundary are always kept.
    """
    r = X.rank
    if r == 0:
        return [()]
    b = [Fraction(s, X._gamma_den) for s in _gamma_pairings(X, lam)]
    L, d = X._sigma_ldl
    half_k = Fraction(k, 2)
    z = [half_k * x for x in mat_vec(X.sigma_gram_inv, b)]
    budget = half_k * sum(zi * bi for zi, bi in zip(z, b))  # z^T G z
    u = [z[i] + sum(L[j][i] * z[j] for j in range(i + 1, r)) for i in range(r)]
    # q_i clears the denominators of u_i and of column i of L, so that
    # t_i = q_i c_i + base_i + sum_{j>i} A[i][j] c_j with A[i][j] = q_i L_ji
    q = [math.lcm(u[i].denominator, *(row[i].denominator for row in L)) for i in range(r)]
    base = [int(qi * ui) for qi, ui in zip(q, u)]
    A = [[int(q[i] * row[i]) for row in L] for i in range(r)]
    scaled = [d[i] / (q[i] * q[i]) for i in range(r)]
    S = math.lcm(*(x.denominator for x in scaled))
    e = [int(S * x) for x in scaled]
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

    descend(r - 1, math.floor(S * budget))
    return sorted(results)


def enumerate_candidates(X: WonderfulVariety, lam: Sequence[int]) -> list[Weight]:
    """All mu = lam + sum c_i gamma_i (c integral) with |mu + rho| <= |lam + rho|:
    a finite superset of the contributing weights (see the module docstring)."""
    lam = _require_pic(X, lam)
    return [translate(lam, c, X.spherical_roots) for c in _ball_coefficients(X, lam, 2)]


def contributions(X: WonderfulVariety, lam: Sequence[int]) -> list[Contribution]:
    """All certified pairs (J, mu) for lam, in canonical order."""
    lam = _require_pic(X, lam)
    g = X.group
    base_pair = g.shifted_pairings(lam)
    sig_base = _gamma_pairings(X, lam)
    out = []
    for c in _ball_coefficients(X, lam, 1):
        # J from the omega signature of mu
        jset = set()
        for i in range(X.rank):
            s = sig_base[i] + sum(
                cj * X._gamma_sign_gram[i][j] for j, cj in enumerate(c)
            )
            if s < 0:
                jset.add(i)
        if not _sign_pattern_ok(c, jset):
            continue
        pair = list(base_pair)
        for j, cj in enumerate(c):
            if cj:
                row = X._gamma_coroot_rows[j]
                for k in range(len(pair)):
                    pair[k] += cj * row[k]
        if any(p == 0 for p in pair):
            continue  # mu + rho singular
        mu = translate(lam, c, X.spherical_roots)
        made = g.make_dominant_shifted(mu)
        if made is None:
            raise InvariantError("chamber walk calls a regular mu + rho singular")
        mu_plus, length, _ = made
        if length != sum(1 for p in pair if p < 0):
            raise InvariantError("length mismatch between pairing rows and walk")
        degree = length + len(jset)
        if not 0 <= degree <= X.dimension_N:
            raise InvariantError("degree outside [0, N]")
        out.append(Contribution(tuple(sorted(jset)), mu, length, mu_plus, degree))
    out.sort(key=lambda t: (t.degree, t.mu))
    return out


def tabulate(
    X: WonderfulVariety, lam: Sequence[int], conts: Sequence[Contribution]
) -> CohomologyTable:
    """Aggregate the contributions of lam into per-degree constituents
    with dimensions."""
    by_key: dict[tuple[int, Weight], list[Contribution]] = {}
    for t in conts:
        by_key.setdefault((t.degree, t.mu_plus), []).append(t)
    degrees = sorted({deg for deg, _ in by_key})
    groups = []
    for deg in degrees:
        constituents = []
        total = 0
        for (d, hw), wits in sorted(by_key.items()):
            if d != deg:
                continue
            wits = tuple(sorted(wits, key=lambda t: (t.j_bitmask(), t.mu)))
            dim = X.group.weyl_dimension(hw)
            constituents.append(Constituent(hw, len(wits), dim, wits))
            total += len(wits) * dim
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
