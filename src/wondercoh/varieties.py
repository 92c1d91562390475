"""Descriptors of wonderful varieties of minimal rank.

A :class:`WonderfulVariety` packages exactly the combinatorial data the
cohomology formula consumes: the acting group, the spherical roots, a
lattice basis of the weights of line bundles, and the parabolic attached
to the closed orbit.  Catalog constructors ship the classical minimal
rank cases; every descriptor (built-in or user supplied) must pass
:func:`validate` before it is used.

Sign conventions: all weights live in the fundamental-weight basis of the
standard positive system of the group, pic basis vectors are oriented so
that they pair positively with their spherical roots, and the base point
of the Weyl chamber walk is the usual dominant cone.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import (
    Matrix,
    ScaledMatrix,
    dot,
    frac_matrix,
    int_scaled,
    ldl,
    mat_inverse,
    mat_vec,
    span_numerators,
    translate,
)
from .roots import RootSystem, Weight, build_root_system, parse_type


class CatalogError(ValueError):
    """A variety descriptor failed validation or could not be built."""


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
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


def _ldl_or_none(m: Matrix):
    try:
        return ldl(m)
    except ValueError:
        return None


def _left_inverse(gram_inv: Matrix, pairings: Sequence[Sequence[Fraction]]) -> ScaledMatrix:
    """gram_inv . pairings as integer (rows, den), pairings[j] = (., b_j): a left inverse of b."""
    return int_scaled([[dot(row, col) for col in zip(*pairings)] for row in gram_inv])


def _support(alpha: Sequence[int]) -> frozenset[int]:
    return frozenset(i for i, c in enumerate(alpha) if c)


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
        if any(len(v) != group.rank for v in (*spherical_roots, *pic_basis)):
            raise CatalogError(f"{name}: weight vectors need length {group.rank}")
        self.spherical_roots = tuple(group.check_weight(g) for g in spherical_roots)
        self.pic_basis = tuple(group.check_weight(w) for w in pic_basis)
        self.q_simple_roots = frozenset(int(i) for i in q_simple_roots)
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
        levi = sum(1 for a in group.positive_roots if _support(a) <= q)
        self.levi_positive_count = levi
        self.dimension_N = len(group.positive_roots) - levi + self.rank
        two_rho = [0] * group.rank
        for alpha, w in zip(group.positive_roots, group.positive_root_weights()):
            if not _support(alpha) <= q:
                for k, x in enumerate(w):
                    two_rho[k] += x
        self.two_rho_X: Weight = tuple(two_rho)

        self._init_lattice_caches()

    # -- construction-time caches (immutable afterwards) -----------------

    def _init_lattice_caches(self) -> None:
        g = self.group
        sigma = self.spherical_roots
        pic = self.pic_basis
        self.sigma_gram: Matrix = frac_matrix(
            [[g.inner_product(a, b) for b in sigma] for a in sigma]
        )
        self.pic_gram: Matrix = frac_matrix(
            [[g.inner_product(a, b) for b in pic] for a in pic]
        )
        # a Gram matrix is positive definite exactly when ldl succeeds
        self._sigma_ldl = _ldl_or_none(self.sigma_gram)
        self._sigma_pos_def = self._sigma_ldl is not None
        self._pic_independent = _ldl_or_none(self.pic_gram) is not None
        self.sigma_gram_inv = mat_inverse(self.sigma_gram) if self._sigma_pos_def else ()
        # spherical pairing rows: (v, gamma_i) = W_i . v / D with one common
        # integer D > 0, so W_i . v is exact and has the sign of (v, gamma_i)
        sigma_pairing = [mat_vec(g._fw_gram, gam) for gam in sigma]
        self._gamma_sign_rows, self._gamma_den = int_scaled(sigma_pairing)
        # integer left inverses of both bases, for lattice membership
        self._sigma_left_inv = _left_inverse(self.sigma_gram_inv, sigma_pairing)
        self._pic_left_inv = _left_inverse(
            mat_inverse(self.pic_gram) if self._pic_independent else (),
            [mat_vec(g._fw_gram, w) for w in pic],
        )
        # <gamma_i, alpha_k^vee> over the frozen positive root order
        self._gamma_coroot_rows = tuple(
            tuple(sum(r * x for r, x in zip(row, gam)) for row in g._coroot_rows)
            for gam in sigma
        )
        # signature increments: dot(W_i, gamma_j)
        self._gamma_sign_gram = tuple(
            tuple(sum(a * b for a, b in zip(w, gam)) for gam in sigma)
            for w in self._gamma_sign_rows
        )

    # -- lattice membership ----------------------------------------------

    def pic_contains(self, lam: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Integer coordinates of lam in the pic basis, or None."""
        lam = self.group.check_weight(lam)
        n = span_numerators(self.pic_basis, self._pic_left_inv, lam)
        den = self._pic_left_inv[1]
        return None if n is None or any(x % den for x in n) else tuple(x // den for x in n)

    def weight_from_pic_coords(self, coords: Sequence[int]) -> Weight:
        if len(coords) != len(self.pic_basis):
            raise ValueError(
                f"{self.name}: expected {len(self.pic_basis)} pic coordinates"
            )
        coeffs = [int(c) for c in coords]
        return translate((0,) * self.group.rank, coeffs, self.pic_basis)

    def sigma_coords(self, v: Sequence[int]) -> Optional[tuple[Fraction, ...]]:
        """Rational coordinates of v in the spherical root basis, or None."""
        n = span_numerators(self.spherical_roots, self._sigma_left_inv, v)
        den = self._sigma_left_inv[1]
        return None if n is None else tuple(Fraction(x, den) for x in n)

    # -- distinguished weights --------------------------------------------

    def lambda_zero(self) -> Weight:
        """Base point of the paper-style region figures (rank 1 and 2 only)."""
        coeffs = self.lambda_zero_coords()
        return self.weight_from_pic_coords(coeffs)

    def lambda_zero_coords(self) -> tuple[int, ...]:
        if self.rank not in (1, 2):
            raise CatalogError(f"{self.name}: lambda_zero needs rank 1 or 2")
        if len(self.pic_basis) != self.rank:
            raise CatalogError(f"{self.name}: pic basis rank differs from variety rank")
        g = self.group
        rho = g.rho()
        coeffs = []
        for i, (w, gam) in enumerate(zip(self.pic_basis, self.spherical_roots)):
            for j, other in enumerate(self.spherical_roots):
                pairing = g.inner_product(w, other)
                if i != j and pairing != 0:
                    raise CatalogError(
                        f"{self.name}: pic/spherical pairing matrix is not diagonal"
                    )
                if i == j and pairing <= 0:
                    raise CatalogError(
                        f"{self.name}: (pic_i, gamma_i) must be positive"
                    )
            ratio = g.inner_product(rho, gam) / g.inner_product(w, gam)
            if ratio.denominator != 1:
                raise CatalogError(
                    f"{self.name}: lambda_zero coefficient {ratio} is not integral"
                )
            coeffs.append(-(int(ratio) + 1))
        return tuple(coeffs)

    def serre_twist(self) -> Weight:
        """-2 rho_X - sum of spherical roots (the dualising shift on pic)."""
        return translate(
            [-x for x in self.two_rho_X], (-1,) * self.rank, self.spherical_roots
        )

    def sgamma_shifted(self, index: int, lam: Sequence[int]) -> Weight:
        """rho-shifted action of the spherical reflection s_gamma on lam."""
        if self.sgamma_data is None:
            raise CatalogError(f"{self.name} carries no sgamma data")
        alpha, beta = self.sgamma_data[index]
        g = self.group
        v = [x + 1 for x in g.check_weight(lam)]
        for root in (alpha, beta):  # orthogonal pair: order immaterial
            c = g.pair_coroot(v, root)
            w = g.root_as_weight(root)
            v = [a - c * b for a, b in zip(v, w)]
        return tuple(x - 1 for x in v)

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
        if self.rank in (1, 2) and len(self.pic_basis) == self.rank:
            try:
                coords = self.lambda_zero_coords()
                lines.append(
                    "lambda_0 = "
                    + " + ".join(f"{c}*pic[{i + 1}]" for i, c in enumerate(coords))
                    + f" = {list(self.lambda_zero())}"
                )
            except CatalogError:
                pass
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

    if X._sigma_pos_def and X.spherical_roots:
        bad = None
        for alpha_w in g.positive_root_weights():
            if X.sigma_coords(alpha_w) is not None:
                bad = alpha_w
                break
        add(
            "no root lies in the rational span of the spherical roots",
            bad is None,
            f"root {list(bad)} is spanned" if bad else "",
        )
    else:
        add("no root lies in the rational span of the spherical roots", not X.spherical_roots)

    bad_gamma = [x for x in X.spherical_roots if X.pic_contains(x) is None]
    add(
        "spherical roots lie in the pic lattice",
        not bad_gamma,
        f"{[list(x) for x in bad_gamma]} outside" if bad_gamma else "",
    )

    # needed for the degree-zero oracle bound: (mu, gamma) >= 0 for dominant mu
    neg_gamma = [
        x
        for x in X.spherical_roots
        if any(c < 0 for c in g.simple_root_coords(x))
    ]
    add(
        "spherical roots are nonnegative combinations of simple roots",
        not neg_gamma,
        f"{[list(x) for x in neg_gamma]}" if neg_gamma else "",
    )

    off_q = [
        (i, w)
        for w in X.pic_basis
        for i in sorted(X.q_simple_roots)
        if w[i] != 0
    ]
    add("pic basis weights are characters of Q", not off_q)

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

    if X.rank in (1, 2) and len(X.pic_basis) == X.rank:
        try:
            coords = X.lambda_zero_coords()
            add("lambda_zero has integral coordinates", True)
            if "lambda0" in X.expected:
                add(
                    f"lambda_zero = {list(X.expected['lambda0'])} in pic coordinates",
                    coords == tuple(X.expected["lambda0"]),
                    f"computed {list(coords)}",
                )
        except CatalogError as exc:
            add("lambda_zero has integral coordinates", False, str(exc))

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
        for w in X.pic_basis:
            if g.pair_coroot(w, alpha) != g.pair_coroot(w, beta):
                add(f"{tag}: pic weights pair equally with alpha and beta", False)
                break
        else:
            add(f"{tag}: pic weights pair equally with alpha and beta", True)
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
    ratio: Optional[Fraction] = None
    for a, b in zip(v, w):
        if b == 0:
            if a != 0:
                return None
            continue
        r = Fraction(a, b)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    if ratio is None:
        ratio = Fraction(0)
    return ratio


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


def flag_variety(group: RootSystem, q_simple_roots: Sequence[int] = (), name: str = "") -> WonderfulVariety:
    """G/Q with no spherical roots; pic is spanned by the non-Levi fundamental weights."""
    q = sorted(int(i) for i in q_simple_roots)
    pic = [
        tuple(int(k == i) for k in range(group.rank))
        for i in range(group.rank)
        if i not in q
    ]
    if not name:
        name = f"flag:{group.describe().replace(' x ', 'x')}"
        if q:
            name += ":q=" + ",".join(str(i + 1) for i in q)
    return _checked(
        WonderfulVariety(name, group, (), pic, q_simple_roots=q)
    )


_DYNKIN_INVOLUTION = {
    "A": lambda n: {i: n - 1 - i for i in range(n)},
    "D": lambda n: {n - 2: n - 1, n - 1: n - 2} if n % 2 else {},
    "E": lambda n: {0: 5, 5: 0, 2: 4, 4: 2} if n == 6 else {},
}


def _dynkin_involution(family: str, rank: int) -> dict[int, int]:
    table = _DYNKIN_INVOLUTION.get(family)
    swap = table(rank) if table else {}
    return {i: swap.get(i, i) for i in range(rank)}


def group_compactification(family: str, rank: int, name: str = "") -> WonderfulVariety:
    """Wonderful compactification of the adjoint group of simple type (family, rank).

    The acting group is the square of the simply connected cover; spherical
    roots pair each simple root with the image of its diagram dual in the
    second factor, so everything is expressed in the standard positive
    system of both factors.
    """
    single = build_root_system([(family, rank)])
    doubled = build_root_system([(family, rank), (family, rank)])
    inv = _dynkin_involution(single.components[0][0], rank)
    zero = (0,) * rank
    sigma = []
    pic = []
    sgamma = []
    for i in range(rank):
        alpha_i = single.root_as_weight(tuple(int(j == i) for j in range(rank)))
        alpha_star = single.root_as_weight(tuple(int(j == inv[i]) for j in range(rank)))
        sigma.append(alpha_i + alpha_star)
        pic.append(
            tuple(int(j == i) for j in range(rank))
            + tuple(int(j == inv[i]) for j in range(rank))
        )
        sgamma.append(
            (
                tuple(int(j == i) for j in range(rank)) + zero,
                zero + tuple(int(j == inv[i]) for j in range(rank)),
            )
        )
    dim_k = 2 * len(single.positive_roots) + rank
    if not name:
        name = f"group:{family}{rank}"
    expected = {"N": dim_k, "lambda0": (-2,) * rank if rank <= 2 else None}
    if expected["lambda0"] is None:
        del expected["lambda0"]
    return _checked(
        WonderfulVariety(
            name,
            doubled,
            sigma,
            pic,
            sgamma_data=sgamma,
            expected=expected,
            divisibility=(2, len(single.positive_roots)),
        )
    )


def _pso_pso(n: int, quadric: bool) -> WonderfulVariety:
    """Rank one D_n cases: the odd projective space and the odd quadric."""
    if n < 2:
        raise CatalogError("PSO/PSO and Q need n >= 2")
    group = build_root_system([("D", n)])
    if n == 2:
        alpha = (1, 0)
        beta = (0, 1)
        q: tuple[int, ...] = ()
    else:
        alpha = tuple(1 if i < n - 1 else 0 for i in range(n))
        beta = tuple(1 if i < n - 2 or i == n - 1 else 0 for i in range(n))
        q = tuple(range(1, n))
    aw = group.root_as_weight(alpha)
    bw = group.root_as_weight(beta)
    total = tuple(a + b for a, b in zip(aw, bw))
    if quadric:
        if any(x % 2 for x in total):
            raise CatalogError("quadric spherical root is not integral")
        gamma = tuple(x // 2 for x in total)
        name = f"Q({n})"
        multiple = 2 - 2 * n
    else:
        gamma = total
        name = f"PSO/PSO({n})"
        multiple = 1 - n
    pic = [tuple(int(i == 0) for i in range(n)) if n > 2 else (1, 1)]
    return _checked(
        WonderfulVariety(
            name,
            group,
            [gamma],
            pic,
            q_simple_roots=q,
            sgamma_data=[(alpha, beta)],
            expected={"N": 2 * n - 1, "lambda0": (-n,), "sgamma_rho_multiple": multiple},
            divisibility=(2 * n - 2, 1),
        )
    )


def _spin7(quadric: bool) -> WonderfulVariety:
    """Rank one B_3 cases: P^7 and Q^7 under the 8-dimensional spin action."""
    group = build_root_system([("B", 3)])
    alpha = (1, 1, 2)
    beta = (0, 1, 1)
    aw = group.root_as_weight(alpha)
    bw = group.root_as_weight(beta)
    total = tuple(a + b for a, b in zip(aw, bw))
    if quadric:
        gamma = tuple(x // 2 for x in total)
        name = "Q7"
        multiple = 2 - 2 * 4
    else:
        gamma = total
        name = "SO7/G2"
        multiple = 1 - 4
    return _checked(
        WonderfulVariety(
            name,
            group,
            [gamma],
            [(0, 0, 1)],
            q_simple_roots=(0, 1),
            sgamma_data=[(alpha, beta)],
            expected={"N": 7, "lambda0": (-4,), "sgamma_rho_multiple": multiple},
            divisibility=(6, 1),
        )
    )


def _pgl_psp(n: int) -> WonderfulVariety:
    """Compactification of PGL_{2n}/PSp_{2n} under SL_{2n} (type A_{2n-1})."""
    if n < 2:
        raise CatalogError("PGL/PSp needs n >= 2")
    rank = 2 * n - 1
    group = build_root_system([("A", rank)])
    sigma = []
    pic = []
    sgamma = []
    for i in range(n - 1):
        coeff = [0] * rank
        coeff[2 * i] = 1
        coeff[2 * i + 1] = 2
        coeff[2 * i + 2] = 1
        sigma.append(group.root_as_weight(tuple(coeff)))
        pic.append(tuple(int(k == 2 * i + 1) for k in range(rank)))
        a = [0] * rank
        a[2 * i] = a[2 * i + 1] = 1
        b = [0] * rank
        b[2 * i + 1] = b[2 * i + 2] = 1
        sgamma.append((tuple(a), tuple(b)))
    expected = {"N": 2 * n * n - n - 1}
    if n <= 3:
        expected["lambda0"] = (-3,) * (n - 1)
    return _checked(
        WonderfulVariety(
            f"PGL/PSp({n})",
            group,
            sigma,
            pic,
            q_simple_roots=tuple(range(0, rank, 2)),
            sgamma_data=sgamma,
            expected=expected,
            divisibility=(4, n * (n - 1) // 2),
        )
    )


def _e6_f4() -> WonderfulVariety:
    """Compactification of E6/F4; spherical roots from the rank two restriction."""
    group = build_root_system([("E", 6)])
    gamma1 = group.root_as_weight((2, 1, 2, 2, 1, 0))
    gamma2 = group.root_as_weight((0, 1, 1, 2, 2, 2))
    sgamma = [
        ((1, 1, 1, 1, 0, 0), (1, 0, 1, 1, 1, 0)),
        ((0, 1, 0, 1, 1, 1), (0, 0, 1, 1, 1, 1)),
    ]
    return _checked(
        WonderfulVariety(
            "E6/F4",
            group,
            [gamma1, gamma2],
            [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)],
            q_simple_roots=(1, 2, 3, 4),
            sgamma_data=sgamma,
            expected={"N": 26, "lambda0": (-5, -5)},
            divisibility=(8, 3),
        )
    )


@functools.cache
def build_case(name: str) -> WonderfulVariety:
    """Build a named catalog case, once per name (descriptors are immutable).

    Accepted names: ``PSO/PSO(n)``, ``Q(n)`` (the quadric of dimension
    2n-1, n >= 2), ``SO7/G2``, ``Q7``, ``PGL/PSp(n)`` (n >= 2, meaning
    PGL_{2n}/PSp_{2n}), ``E6/F4``, ``group:<simple type>`` and
    ``flag:<type>[:q=i,j]``.
    """
    text = name.strip()
    if text == "E6/F4":
        return _e6_f4()
    if text == "SO7/G2":
        return _spin7(quadric=False)
    if text == "Q7":
        return _spin7(quadric=True)
    for prefix, builder in (("PSO/PSO(", lambda n: _pso_pso(n, False)),
                            ("Q(", lambda n: _pso_pso(n, True)),
                            ("PGL/PSp(", _pgl_psp)):
        if text.startswith(prefix) and text.endswith(")"):
            try:
                n = int(text[len(prefix):-1])
            except ValueError:
                raise CatalogError(f"bad parameter in {name!r}")
            return builder(n)
    if text.startswith("group:"):
        comps = parse_type(text[len("group:"):])
        if len(comps) != 1:
            raise CatalogError("group compactification expects a simple type")
        return group_compactification(*comps[0])
    if text.startswith("flag:"):
        parts = text[len("flag:"):].split(":")
        group = build_root_system(parse_type(parts[0]))
        q: tuple[int, ...] = ()
        if len(parts) > 1:
            if not parts[1].startswith("q="):
                raise CatalogError(f"bad flag specifier {name!r}")
            q = tuple(int(i) - 1 for i in parts[1][2:].split(","))
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
        group = build_root_system([(f, int(r)) for f, r in doc["group"]])
        sigma = [tuple(int(x) for x in v) for v in doc.get("spherical_roots", [])]
        pic = [tuple(int(x) for x in v) for v in doc["pic_basis"]]
        q = tuple(int(i) - 1 for i in doc.get("q_simple_roots", []))
        sgamma = None
        if doc.get("sgamma"):
            sgamma = [
                (tuple(int(x) for x in a), tuple(int(x) for x in b))
                for a, b in doc["sgamma"]
            ]
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
