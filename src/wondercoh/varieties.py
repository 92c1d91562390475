"""Descriptors of wonderful varieties of minimal rank.

A :class:`WonderfulVariety` packages exactly the combinatorial data the
cohomology formula consumes: the acting group, the spherical roots, a
lattice basis of the weights of line bundles, and the parabolic attached
to the closed orbit.  Catalog constructors ship the classical minimal
rank cases; every descriptor (built-in or user supplied) must pass
:func:`validate` before it is used.

Every catalog entry except the flag varieties is symmetric and is built
from its sgamma pairs: each spherical reflection is s_gamma = s_alpha s_beta
for an orthogonal pair of positive roots (alpha, beta), and `_from_pairs`
derives gamma = alpha + beta, halved for the quadrics.  A constructor
supplies only the group, the pairs, the pic basis and q (plus the expected
constants that `validate` compares against).

Each per-variety constant is solved once, when the descriptor is built
(`WonderfulVariety._init_lattice_caches`): the integer sign rows of the
spherical roots and of the pic basis, the sign Gram matrix of the
spherical roots and its inverse, the lattice left inverses, the Serre
twist, lambda_0 (or the error asking for it raises) and the spherical
roots' simple-root coordinates.  Readers take them from there.
The descriptor owns the Picard lattice: membership (`pic_contains`,
`require_pic`), the weights that carry their pic coordinates, the Serre
dual and the sign pairings D (mu + rho, gamma_i) are its methods.

Sign conventions: all weights live in the fundamental-weight basis of the
standard positive system of the group, pic basis vectors are oriented so
that they pair positively with their spherical roots, and the base point
of the Weyl chamber walk is the usual dominant cone.
"""

from __future__ import annotations

import functools
import itertools
import json
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .exactalg import (
    ScaledMatrix,
    int_inverse,
    lattice_coords,
    least_scaled,
    row_products,
    span_numerators,
    translate,
)
from .roots import RootSystem, Weight, _integer, build_root_system, parse_type


class CatalogError(ValueError):
    """A variety descriptor failed validation or could not be built."""


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(NamedTuple):
    variety: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = [f"validation of {self.variety}:"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail and not c.passed else ""
            lines.append(f"  [{status}] {c.name}{suffix}")
        return "\n".join(lines)


def _inverse_or_none(m: Sequence[Sequence[int]]) -> Optional[ScaledMatrix]:
    try:
        return int_inverse(m)
    except ValueError:
        return None


def _left_inverse(
    gram_inv: Optional[ScaledMatrix], pairings: Sequence[Sequence[int]]
) -> ScaledMatrix:
    """A left inverse of a basis b as integer (rows, den), ((), 1) when b is
    dependent: with pairings[j] . v = D (v, b_j) for one integer D > 0 and
    gram_inv the inverse of the integer Gram matrix (b_i . pairings[j]),
    row i is sum_j gram_inv_ij pairings[j], and row i . b_k = den delta_ik."""
    if gram_inv is None:
        return (), 1
    rows, den = gram_inv
    columns = tuple(zip(*pairings))
    return least_scaled([row_products(columns, row) for row in rows], den)


class _PicWeight(tuple):
    """A weight of pic(X) that carries its variety and its integer pic
    coordinates, which that variety reads instead of solving.  Only its
    `weight_from_pic_coords` (lambda_0 among them), Serre twist and
    `serre_dual` make one.  It compares and hashes as the plain tuple of
    its entries, and anything that builds a new tuple from it (arithmetic,
    slicing, `check_weight`) is a plain weight, which is solved again."""

    def __new__(cls, values: Sequence[int], variety: WonderfulVariety, coords: tuple[int, ...]):
        lam = tuple.__new__(cls, values)
        lam.variety = variety
        lam.coords = coords
        return lam


class WonderfulVariety:
    """Immutable descriptor of a wonderful variety of minimal rank.

    Parameters use 0-based simple root indices internally; the descriptor
    file format and the CLI display 1-based indices.
    """

    def __init__(
        self,
        name: str,
        group: RootSystem,
        spherical_roots: Sequence[Sequence[int]],
        pic_basis: Sequence[Sequence[int]],
        q_simple_roots: Sequence[int] = (),
        sgamma_data: Optional[Sequence[tuple[Sequence[int], Sequence[int]]]] = None,
        expected: Optional[dict] = None,
        divisibility: Optional[tuple[int, int]] = None,
    ):
        self.name = name
        self.group = group
        try:
            self.spherical_roots = tuple(group.check_weight(g) for g in spherical_roots)
            self.pic_basis = tuple(group.check_weight(w) for w in pic_basis)
            self.q_simple_roots = frozenset(map(_integer, q_simple_roots))
        except (TypeError, ValueError) as exc:
            raise CatalogError(f"{name}: {exc}")
        if any(i < 0 or i >= group.rank for i in self.q_simple_roots):
            raise CatalogError(f"{name}: q_simple_roots out of range")
        self.sgamma_data = (
            tuple((tuple(a), tuple(b)) for a, b in sgamma_data) if sgamma_data else None
        )
        if self.sgamma_data and len(self.sgamma_data) != len(self.spherical_roots):
            raise CatalogError(f"{name}: sgamma needs one pair per spherical root")
        self.expected = dict(expected or {})
        self.divisibility = divisibility  # (modulus c, |restricted positive roots|)

        self.rank = len(self.spherical_roots)
        q = self.q_simple_roots
        # N counts the positive roots off the Levi of Q, and 2 rho_X sums them
        off_levi = [
            w for alpha, w in zip(group.positive_roots, group.positive_root_weights())
            if any(c for i, c in enumerate(alpha) if i not in q)
        ]
        self.dimension_N = len(off_levi) + self.rank
        self.two_rho_X: Weight = translate((0,) * group.rank, (1,) * len(off_levi), off_levi)

        self._init_lattice_caches()

    # -- construction-time caches (only the witness walk's slot fills later)

    def _init_lattice_caches(self) -> None:
        g = self.group
        sigma = self.spherical_roots
        pic = self.pic_basis
        # (u, v) = u . F v / fden; the pairing rows F b carry (., b) scaled
        # by fden, and their products with the basis its Gram matrix
        F, fden = g._fw_gram_scaled
        sigma_pairing = [row_products(F, gam) for gam in sigma]
        pic_pairing = [row_products(F, w) for w in pic]
        # spherical pairing rows: (v, gamma_i) = W_i . v / D with one common
        # integer D > 0, so W_i . v is exact and has the sign of (v, gamma_i)
        self._gamma_sign_rows, self._gamma_den = least_scaled(sigma_pairing, fden)
        # the sign Gram matrix G_ij = W_i . gamma_j = D (gamma_i, gamma_j) and
        # its inverse, which `cohomology._walk` reads.  G and the pic Gram
        # matrix (scaled by fden) are of a positive definite form, so each
        # is positive definite exactly when it is invertible
        self._gamma_sign_gram = tuple(row_products(sigma, w) for w in self._gamma_sign_rows)
        self._gamma_sign_gram_inv = _inverse_or_none(self._gamma_sign_gram)
        pic_inv = _inverse_or_none([row_products(pic_pairing, w) for w in pic])
        self._sigma_pos_def = self._gamma_sign_gram_inv is not None
        self._pic_independent = pic_inv is not None
        # integer left inverses of both bases, for lattice membership
        self._sigma_left_inv = _left_inverse(self._gamma_sign_gram_inv, self._gamma_sign_rows)
        self._pic_left_inv = _left_inverse(pic_inv, pic_pairing)
        twist = translate([-x for x in self.two_rho_X], (-1,) * self.rank, sigma)
        coords = lattice_coords(pic, self._pic_left_inv, twist)
        self._serre_twist: Weight = twist if coords is None else _PicWeight(twist, self, coords)
        # pic sign rows: D (pic_j, gamma_i) in row j, column i, exact and
        # sign-true; the Omega grid steps by them and lambda_0 is solved on them
        self._pic_sign_rows = tuple(row_products(self._gamma_sign_rows, w) for w in pic)
        # the spherical roots in simple-root coordinates, scaled by one
        # common integer > 0: `validate` and `oracles.brion_h0` read them
        self._gamma_simple = tuple(row_products(g._cartan_inv_scaled[0], gam) for gam in sigma)
        self._lambda_zero = self._solve_lambda_zero()
        # the witness walk's tables, the ball's quadric among them, which
        # `cohomology._walk` builds from the sign rows and G on first use
        self._walk: Optional[tuple] = None

    # -- the Picard lattice ----------------------------------------------

    def _carries(self, lam: Sequence[int]) -> bool:
        """Whether this variety made lam from pic coordinates, which it trusts."""
        return type(lam) is _PicWeight and lam.variety is self

    def pic_contains(self, lam: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Integer coordinates of lam in the pic basis, or None.

        A weight this variety made from pic coordinates (see
        `weight_from_pic_coords`) gives back the coordinates it carries.
        Every other weight is solved: plain tuples and lists, a weight made
        by another variety, even one built from the same data."""
        if self._carries(lam):
            return lam.coords
        return lattice_coords(self.pic_basis, self._pic_left_inv, self.group.check_weight(lam))

    def require_pic(self, lam: Sequence[int]) -> Weight:
        """lam as a weight of pic(X), or ValueError.  A weight X made from pic
        coordinates is returned as it is, carrying them; any other is checked
        and solved."""
        if not self._carries(lam):
            lam = self.group.check_weight(lam)
        if self.pic_contains(lam) is None:
            raise ValueError(f"{list(lam)} is not in pic({self.name})")
        return lam

    def sign_pairings(self, mu: Weight) -> tuple[int, ...]:
        """D (mu + rho, gamma_i) for each i, D = X._gamma_den: exact, sign-true
        ints.  Only the length of mu is checked."""
        if len(mu) != self.group.rank:
            raise ValueError(f"weight has length {len(mu)}, expected rank {self.group.rank}")
        return row_products(self._gamma_sign_rows, [x + 1 for x in mu])

    def serre_dual(self, lam: Sequence[int]) -> Weight:
        """`serre_twist() - lam` for lam in pic(X), or ValueError.  A weight X
        made from pic coordinates is trusted; any other goes through
        `require_pic`.  The dual is checked too, since bad catalog data can
        move it out of pic; it carries pic coordinates when lam and the twist
        both do."""
        if not self._carries(lam):
            lam = self.require_pic(lam)
        twist = self.serre_twist()
        dual = tuple([t - x for x, t in zip(lam, twist)])
        if self._carries(lam) and self._carries(twist):
            dual = _PicWeight(dual, self, tuple([t - c for c, t in zip(lam.coords, twist.coords)]))
        if self.pic_contains(dual) is None:
            raise CatalogError(f"{self.name}: Serre dual of {list(lam)} left pic; bad catalog data")
        return dual

    def weight_from_pic_coords(self, coords: Sequence[int]) -> Weight:
        """sum_j coords[j] pic_j.  The weight is a tuple that carries this
        variety and its coordinates, so checking it against pic(X) later
        solves nothing; it compares, hashes and prints as a plain tuple."""
        if len(coords) != len(self.pic_basis):
            raise ValueError(
                f"{self.name}: expected {len(self.pic_basis)} pic coordinates"
            )
        coeffs = tuple([_integer(c) for c in coords])
        return _PicWeight(translate((0,) * self.group.rank, coeffs, self.pic_basis), self, coeffs)

    # -- distinguished weights --------------------------------------------

    def _solve_lambda_zero(self) -> Weight | ValueError:
        """lambda_0 as a weight carrying its pic coordinates, or the error
        `lambda_zero` raises.  X defines lambda_0 at rank 1 or 2, on a pic
        basis of r weights whose pairings with the spherical roots are
        diagonal; elsewhere the error is a plain ValueError, as a unimodular
        change of such a basis, (p1, p1 + p2) say, spans the same pic(X)
        but has no lambda_0.  Where X defines it but some (pic_i, gamma_i)
        is not positive or a coefficient is not an integer, the error is a
        CatalogError, and `validate` refuses X."""
        rows = self._pic_sign_rows
        if self.rank not in (1, 2):
            why = "lambda_zero needs rank 1 or 2"
        elif len(rows) != self.rank:
            why = "pic basis rank differs from variety rank"
        elif any(x for j, row in enumerate(rows) for i, x in enumerate(row) if i != j):
            why = "pic/spherical pairing matrix is not diagonal"
        else:
            # pairings scaled by D > 0: the same signs and the same ratios
            coeffs = []
            for i, row in enumerate(rows):
                if row[i] <= 0:
                    return CatalogError(f"{self.name}: (pic_i, gamma_i) must be positive")
                rho_pairing = sum(self._gamma_sign_rows[i])  # rho = (1, ..., 1)
                ratio, rem = divmod(rho_pairing, row[i])
                if rem:
                    return CatalogError(
                        f"{self.name}: lambda_zero coefficient "
                        f"{Fraction(rho_pairing, row[i])} is not integral"
                    )
                coeffs.append(-(ratio + 1))
            return self.weight_from_pic_coords(coeffs)
        return ValueError(f"no lambda_0: {self.name}: {why}")

    def lambda_zero(self) -> Weight:
        """Base point of the paper-style region figures (rank 1 and 2 only),
        solved once at build: integer pic coordinates, so always in pic(X),
        and the weight carries them.  Raises ValueError where X defines no
        lambda_0 and CatalogError where its coordinates fail (see
        `_solve_lambda_zero`)."""
        lam = self._lambda_zero
        if isinstance(lam, ValueError):
            raise type(lam)(*lam.args)  # a fresh error: the slot keeps no traceback
        return lam

    def lambda_zero_coords(self) -> tuple[int, ...]:
        """lambda_0 in pic coordinates; raises as `lambda_zero` does."""
        return self.lambda_zero().coords

    def serre_twist(self) -> Weight:
        """-2 rho_X - sum of spherical roots (the dualising shift on pic).

        Solved once at build: when it lies in pic(X) it carries its pic
        coordinates, as a weight of `weight_from_pic_coords` does."""
        return self._serre_twist

    def describe_lines(self) -> list[str]:
        g = self.group
        lines = [
            f"variety: {self.name}",
            f"group: {g.describe()}",
            f"rank r = {self.rank}",
            f"N = {self.dimension_N}",
            "q simple roots (1-based): "
            + (", ".join(str(i + 1) for i in sorted(self.q_simple_roots)) or "none"),
            "spherical roots: " + (", ".join(str(list(x)) for x in self.spherical_roots) or "none"),
            "pic basis: " + ", ".join(str(list(x)) for x in self.pic_basis),
            f"2 rho_X = {list(self.two_rho_X)}",
        ]
        lam0 = self._lambda_zero
        if isinstance(lam0, _PicWeight):
            lines.append(
                "lambda_0 = "
                + " + ".join(f"{c}*pic[{i + 1}]" for i, c in enumerate(lam0.coords))
                + f" = {list(lam0)}"
            )
        return lines

    def __repr__(self) -> str:  # pragma: no cover
        return f"WonderfulVariety({self.name!r})"


# ---------------------------------------------------------------------------
# validation


def validate(X: WonderfulVariety) -> ValidationReport:
    """Run every structural invariant; building a catalog entry requires all-pass."""
    g = X.group
    checks: list[Check] = []

    def add(name, ok, detail=""):
        checks.append(Check(name, bool(ok), detail))

    add("spherical root Gram matrix is positive definite", X._sigma_pos_def)
    add("pic basis is linearly independent", X._pic_independent)
    add(
        "spherical roots are pairwise distinct",
        len(set(X.spherical_roots)) == X.rank,
    )

    # False where the roots are dependent; no spherical roots span no root
    spanned = X._sigma_pos_def and next(
        (w for w in g.positive_root_weights()
         if span_numerators(X.spherical_roots, X._sigma_left_inv, w) is not None),
        None,
    )
    add(
        "no root lies in the rational span of the spherical roots",
        spanned is None,
        f"root {list(spanned)} is spanned" if spanned else "",
    )

    bad_gamma = [x for x in X.spherical_roots if X.pic_contains(x) is None]
    add(
        "spherical roots lie in the pic lattice",
        not bad_gamma,
        f"{[list(x) for x in bad_gamma]} outside" if bad_gamma else "",
    )

    # needed for the degree-zero oracle bound: (mu, gamma) >= 0 for dominant mu
    neg_gamma = [
        x for x, simple in zip(X.spherical_roots, X._gamma_simple) if any(c < 0 for c in simple)
    ]
    add(
        "spherical roots are nonnegative combinations of simple roots",
        not neg_gamma,
        f"{[list(x) for x in neg_gamma]}" if neg_gamma else "",
    )

    add(
        "pic basis weights are characters of Q",
        not any(w[i] for w in X.pic_basis for i in X.q_simple_roots),
    )

    add(
        "two_rho_X vanishes on the Levi of Q",
        all(X.two_rho_X[i] == 0 for i in X.q_simple_roots),
    )

    if "N" in X.expected:
        add(
            f"N = {X.expected['N']}",
            X.dimension_N == X.expected["N"],
            f"computed N = {X.dimension_N}",
        )

    if X.divisibility is not None:
        c, restricted = X.divisibility
        add(
            "degree constants satisfy c*|restricted| + r = N",
            c * restricted + X.rank == X.dimension_N,
            f"{c}*{restricted}+{X.rank} != {X.dimension_N}",
        )

    # only where lambda_0 is defined: a pic basis that is not dual to the
    # spherical roots spans pic(X) as well
    lam0 = X._lambda_zero
    if isinstance(lam0, CatalogError):
        add("lambda_zero has integral coordinates", False, str(lam0))
    elif isinstance(lam0, _PicWeight):
        add("lambda_zero has integral coordinates", True)
        if "lambda0" in X.expected:
            add(
                f"lambda_zero = {list(X.expected['lambda0'])} in pic coordinates",
                lam0.coords == tuple(X.expected["lambda0"]),
                f"computed {list(lam0.coords)}",
            )

    if X.sgamma_data is not None:
        _validate_sgamma(X, add)

    return ValidationReport(X.name, tuple(checks))


def _validate_sgamma(X: WonderfulVariety, add) -> None:
    g = X.group
    rho = g.rho()
    positive = set(g.positive_roots)
    for idx, (alpha, beta) in enumerate(X.sgamma_data):
        tag = f"sgamma[{idx}]"
        if tuple(alpha) not in positive or tuple(beta) not in positive:
            add(f"{tag}: alpha, beta are positive roots", False)
            continue
        add(f"{tag}: alpha, beta are positive roots", True)
        aw, bw = g.root_as_weight(alpha), g.root_as_weight(beta)
        add(f"{tag}: <alpha, beta^vee> = 0", g.pair_coroot(aw, beta) == 0)
        gam = X.spherical_roots[idx]
        total = tuple(a + b for a, b in zip(aw, bw))
        mult = _exact_multiple(total, gam)
        add(
            f"{tag}: alpha + beta is a positive multiple of gamma",
            mult is not None and mult.denominator == 1 and mult > 0,
            f"alpha+beta = {list(total)}",
        )
        pa, pb = g.pair_coroot(rho, alpha), g.pair_coroot(rho, beta)
        add(f"{tag}: <rho, alpha^vee> = <rho, beta^vee>", pa == pb)
        add(
            f"{tag}: pic weights pair equally with alpha and beta",
            all(g.pair_coroot(w, alpha) == g.pair_coroot(w, beta) for w in X.pic_basis),
        )
        drop = tuple(-pa * a - pb * b for a, b in zip(aw, bw))  # s_a s_b rho - rho
        mult = _exact_multiple(drop, gam)
        add(
            f"{tag}: s_gamma(rho) - rho is an integer multiple of gamma",
            mult is not None and mult.denominator == 1,
            f"got {list(drop)}",
        )
        if "sgamma_rho_multiple" in X.expected:
            want = X.expected["sgamma_rho_multiple"]
            add(
                f"{tag}: s_gamma(rho) - rho = ({want}) * gamma",
                mult == want,
                f"multiple {mult}",
            )


def _exact_multiple(v: Weight, w: Weight) -> Optional[Fraction]:
    """c with v = c*w, or None."""
    k = next((k for k, b in enumerate(w) if b), None)
    if k is None:
        return None if any(v) else Fraction(0)
    if any(a * w[k] != v[k] * b for a, b in zip(v, w)):
        return None
    return Fraction(v[k], w[k])


def _checked(X: WonderfulVariety) -> WonderfulVariety:
    report = validate(X)
    if not report.passed:
        raise CatalogError(
            f"descriptor {X.name} failed validation:\n"
            + "\n".join(f"  {c.name}: {c.detail}" for c in report.failures())
        )
    return X


# ---------------------------------------------------------------------------
# catalog constructors


def _unit(rank: int, *indices: int) -> tuple[int, ...]:
    """The length-rank 0/1 vector with ones at the given indices."""
    return tuple(int(k in indices) for k in range(rank))


def flag_variety(group: RootSystem, q_simple_roots: Sequence[int] = (), name: str = "") -> WonderfulVariety:
    """G/Q with no spherical roots; pic is spanned by the non-Levi fundamental weights."""
    q = sorted(map(_integer, q_simple_roots))
    pic = [_unit(group.rank, i) for i in range(group.rank) if i not in q]
    if not name:
        name = f"flag:{group.describe().replace(' x ', 'x')}"
        if q:
            name += ":q=" + ",".join(str(i + 1) for i in q)
    return _checked(
        WonderfulVariety(name, group, (), pic, q_simple_roots=q)
    )


def _from_pairs(
    name: str,
    components: Sequence[tuple[str, int]],
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    pic: Sequence[Sequence[int]],
    q: Sequence[int] = (),
    quadric: bool = False,
    expected: Optional[dict] = None,
    divisibility: Optional[tuple[int, int]] = None,
) -> WonderfulVariety:
    """A symmetric case from its sgamma pairs (alpha_i, beta_i), given in
    simple root coordinates: gamma_i = alpha_i + beta_i, halved for a quadric."""
    group = build_root_system(components)
    sigma = []
    for alpha, beta in pairs:
        gamma = group.root_as_weight([a + b for a, b in zip(alpha, beta)])
        if quadric:
            if any(x % 2 for x in gamma):
                raise CatalogError(f"{name}: quadric spherical root is not integral")
            gamma = tuple(x // 2 for x in gamma)
        sigma.append(gamma)
    return _checked(
        WonderfulVariety(
            name,
            group,
            sigma,
            pic,
            q_simple_roots=q,
            sgamma_data=pairs,
            expected=expected,
            divisibility=divisibility,
        )
    )


def group_compactification(family: str, rank: int, name: str = "") -> WonderfulVariety:
    """Wonderful compactification of the adjoint group of simple type (family, rank).

    The acting group is the square of the simply connected cover; spherical
    roots pair each simple root with the image of its diagram dual in the
    second factor, so everything is expressed in the standard positive
    system of both factors.
    """
    single = build_root_system([(family, rank)])
    # the diagram involution: -w_0 omega_i = omega_inv[i]
    inv = [single.dual_weight(_unit(rank, i)).index(1) for i in range(rank)]
    zero = (0,) * rank
    pairs = [(_unit(rank, i) + zero, zero + _unit(rank, inv[i])) for i in range(rank)]
    pic = [_unit(rank, i) + _unit(rank, inv[i]) for i in range(rank)]
    positive = len(single.positive_roots)
    expected = {"N": 2 * positive + rank}
    if rank <= 2:
        expected["lambda0"] = (-2,) * rank
    return _from_pairs(
        name or f"group:{family}{rank}",
        [(family, rank)] * 2,
        pairs,
        pic,
        expected=expected,
        divisibility=(2, positive),
    )


def _rank_one(
    name: str,
    n: int,
    simple_type: tuple[str, int],
    pair: tuple[Sequence[int], Sequence[int]],
    pic: Sequence[int],
    q: Sequence[int],
    quadric: bool,
) -> WonderfulVariety:
    """A rank one case of dimension 2n - 1: a projective space, or a quadric."""
    return _from_pairs(
        name,
        [simple_type],
        [pair],
        [pic],
        q,
        quadric,
        expected={
            "N": 2 * n - 1,
            "lambda0": (-n,),
            "sgamma_rho_multiple": 2 - 2 * n if quadric else 1 - n,
        },
        divisibility=(2 * n - 2, 1),
    )


def _pso_pso(n: int, quadric: bool) -> WonderfulVariety:
    """Rank one D_n cases: the odd projective space and the odd quadric."""
    if n < 2:
        raise CatalogError("PSO/PSO and Q need n >= 2")
    pair = (_unit(n, *range(n - 1)), _unit(n, *range(n - 2), n - 1))
    if n == 2:  # D2 = A1 x A1 has no Levi to keep
        pic, q = (1, 1), ()
    else:
        pic, q = _unit(n, 0), tuple(range(1, n))
    name = f"Q({n})" if quadric else f"PSO/PSO({n})"
    return _rank_one(name, n, ("D", n), pair, pic, q, quadric)


def _pgl_psp(n: int) -> WonderfulVariety:
    """Compactification of PGL_{2n}/PSp_{2n} under SL_{2n} (type A_{2n-1})."""
    if n < 2:
        raise CatalogError("PGL/PSp needs n >= 2")
    rank = 2 * n - 1
    odd = range(1, rank, 2)
    expected = {"N": 2 * n * n - n - 1}
    if n <= 3:
        expected["lambda0"] = (-3,) * (n - 1)
    return _from_pairs(
        f"PGL/PSp({n})",
        [("A", rank)],
        [(_unit(rank, i - 1, i), _unit(rank, i, i + 1)) for i in odd],
        [_unit(rank, i) for i in odd],
        q=tuple(range(0, rank, 2)),
        expected=expected,
        divisibility=(4, n * (n - 1) // 2),
    )


def _once_per_name(build):
    """build, memoised on the name as it strips it; `__wrapped__` is build."""
    built: dict[str, WonderfulVariety] = {}

    @functools.wraps(build)
    def cached(name: str) -> WonderfulVariety:
        key = name.strip()
        return built[key] if key in built else built.setdefault(key, build(name))

    return cached


@_once_per_name
def build_case(name: str) -> WonderfulVariety:
    """Build a named catalog case, once per name: names that differ only
    in surrounding blanks share one descriptor.

    Descriptors are immutable but for one memo, the witness walk's slot
    `_walk` that `cohomology._walk` fills on the first evaluation.  Its
    chamber table, which `cohomology._stretches` fills, holds one entry per
    Weyl chamber the witnesses reach, so it never outgrows |W| entries of
    one small integer matrix each, and it only saves repeated chamber walks.

    Accepted names: ``PSO/PSO(n)``, ``Q(n)`` (the quadric of dimension
    2n-1, n >= 2), ``SO7/G2``, ``Q7``, ``PGL/PSp(n)`` (n >= 2, meaning
    PGL_{2n}/PSp_{2n}), ``E6/F4``, ``group:<simple type>`` and
    ``flag:<type>[:q=i,j]``.  Every number in a name (n, a rank, a flag
    index) is ASCII decimal digits alone: a sign, a blank, an underscore
    or another script's digit is refused.
    """
    text = name.strip()
    if text in ("SO7/G2", "Q7"):  # P^7 and Q^7 under the 8-dimensional spin action
        pair = ((1, 1, 2), (0, 1, 1))
        return _rank_one(text, 4, ("B", 3), pair, (0, 0, 1), (0, 1), text == "Q7")
    if text == "E6/F4":
        return _from_pairs(
            text,
            [("E", 6)],
            [
                ((1, 1, 1, 1, 0, 0), (1, 0, 1, 1, 1, 0)),
                ((0, 1, 0, 1, 1, 1), (0, 0, 1, 1, 1, 1)),
            ],
            [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)],
            q=(1, 2, 3, 4),
            expected={"N": 26, "lambda0": (-5, -5)},
            divisibility=(8, 3),
        )
    for prefix, builder in (("PSO/PSO(", lambda n: _pso_pso(n, False)),
                            ("Q(", lambda n: _pso_pso(n, True)),
                            ("PGL/PSp(", _pgl_psp)):
        if text.startswith(prefix) and text.endswith(")"):
            digits = text[len(prefix):-1]
            if not (digits.isascii() and digits.isdecimal()):
                raise CatalogError(f"bad parameter in {name!r}")
            return builder(int(digits))
    if text.startswith("group:"):
        comps = parse_type(text[len("group:"):])
        if len(comps) != 1:
            raise CatalogError("group compactification expects a simple type")
        return group_compactification(*comps[0])
    if text.startswith("flag:"):
        # a second ':' stays in the specifier, which then fails to parse
        parts = text[len("flag:"):].split(":", 1)
        group = build_root_system(parse_type(parts[0]))
        q: tuple[int, ...] = ()
        if len(parts) > 1:
            indices = parts[1][2:].split(",")
            if not parts[1].startswith("q=") or not all(
                i.isascii() and i.isdecimal() for i in indices
            ):
                raise CatalogError(f"bad flag specifier {name!r}")
            q = tuple(int(i) - 1 for i in indices)
        return flag_variety(group, q, name=text)
    raise CatalogError(f"unknown variety {name!r}")


#: names of the built-in catalog, in display order
CATALOG_NAMES = (
    "flag:A1",
    "flag:A1xA1",
    "flag:A2",
    "flag:B2",
    "group:A1",
    "group:A2",
    "PSO/PSO(2)",
    "PSO/PSO(3)",
    "PSO/PSO(4)",
    "Q(2)",
    "Q(3)",
    "SO7/G2",
    "Q7",
    "PGL/PSp(2)",
    "PGL/PSp(3)",
    "E6/F4",
)


def catalog() -> list[WonderfulVariety]:
    return [build_case(n) for n in CATALOG_NAMES]


def pic_box(X: WonderfulVariety, box: int):
    """(coords, weight) for every pic coordinate vector in [-box, box]^r,
    in itertools.product order."""
    for coords in itertools.product(range(-box, box + 1), repeat=len(X.pic_basis)):
        yield coords, X.weight_from_pic_coords(coords)


# ---------------------------------------------------------------------------
# descriptor files


def variety_from_dict(doc: dict, name: str = "") -> WonderfulVariety:
    """Build a descriptor from parsed file data; N and 2 rho_X are re-derived."""
    try:
        group = build_root_system([(f, _integer(r)) for f, r in doc["group"]])
        sigma = [tuple(_integer(x) for x in v) for v in doc.get("spherical_roots", [])]
        pic = [tuple(_integer(x) for x in v) for v in doc["pic_basis"]]
        q = tuple(_integer(i) - 1 for i in doc.get("q_simple_roots", []))
        sgamma = None
        if doc.get("sgamma"):
            sgamma = [
                (tuple(_integer(x) for x in a), tuple(_integer(x) for x in b))
                for a, b in doc["sgamma"]
            ]
        if type(doc.get("name", "")) is not str or not doc.get("name", "").isprintable():
            raise TypeError(f"name must be a printable string, got {doc['name']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CatalogError(f"malformed variety descriptor: {exc}")
    label = name or doc.get("name") or "custom"
    return _checked(
        WonderfulVariety(label, group, sigma, pic, q_simple_roots=q, sgamma_data=sgamma)
    )


def load_variety(path: str) -> WonderfulVariety:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return variety_from_dict(doc)
