"""Shared helpers (weight translation, Picard boxes, the build_case memo,
lattice membership, a cold chamber table, product descriptors), the
Fraction linear algebra, reference evaluation, table grouping and JSON
document the engine is compared with, test-side references for the sign
cones R_J, spherical and simple reflections, the candidate list, the
H^0 box and the witnesses of each chamber stretch, the points of a ball,
and the number of evaluations each entry point makes."""

import functools
import itertools
import json
import math
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import CATALOG_NAMES, CatalogError, WonderfulVariety, build_case
from wondercoh import cohomology, oracles
from wondercoh.cohomology import CohomologyTable, Constituent, Contribution, DegreeGroup
from wondercoh.regions import region_plot
from wondercoh.exactalg import Matrix, lattice_coords, row_products, span_numerators, translate
from wondercoh.roots import RootSystem
from wondercoh.varieties import pic_box, variety_from_dict

NAMES = CATALOG_NAMES + ("group:A3", "group:B2", "group:G2", "PSO/PSO(5)", "PGL/PSp(4)")


def frac_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_inverse(m: Matrix) -> Matrix:
    """Invert a square matrix of Fractions (Gauss-Jordan, exact)."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def mat_vec(m: Matrix, v: Sequence) -> tuple[Fraction, ...]:
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def gram(g: RootSystem, basis: Sequence[Sequence[int]]) -> Matrix:
    """The Fraction Gram matrix ((a, b)) of a basis, by `g.inner_product`."""
    return tuple(tuple(g.inner_product(a, b) for b in basis) for a in basis)


def sigma_lattice_coords(X: WonderfulVariety, v: Sequence[int]) -> tuple[int, ...] | None:
    """Integer c with v = sum_i c_i gamma_i, or None off that lattice."""
    return lattice_coords(X.spherical_roots, X._sigma_left_inv, v)


def in_translated_R(X: WonderfulVariety, lam, mu, J) -> bool:
    """Whether mu lies in lam + R_J: mu - lam = sum_i c_i gamma_i with
    integer c, c_i >= 1 on J and c_i <= 0 off J."""
    c = sigma_lattice_coords(X, [a - b for a, b in zip(mu, lam)])
    return c is not None and all((x >= 1) if i in J else (x <= 0) for i, x in enumerate(c))


def sgamma_shifted(X: WonderfulVariety, index: int, lam: Sequence[int]) -> tuple[int, ...]:
    """s_gamma * lam = s_gamma(lam + rho) - rho for the spherical reflection
    s_gamma = s_alpha s_beta of the sgamma pair `index`."""
    g = X.group
    v = [x + 1 for x in lam]
    for root in X.sgamma_data[index]:  # orthogonal pair: order immaterial
        c = g.pair_coroot(v, root)
        v = [a - c * b for a, b in zip(v, g.root_as_weight(root))]
    return tuple(x - 1 for x in v)


def reflect_simple(g: RootSystem, i: int, lam: Sequence[int]) -> tuple[int, ...]:
    """s_i(lam) = lam - <lam, alpha_i^vee> alpha_i, alpha_i being column i
    of the Cartan matrix in fundamental-weight coordinates."""
    return tuple(x - lam[i] * row[i] for x, row in zip(lam, g.cartan))


def frac_isqrt_floor(x: Fraction) -> int:
    """Largest integer s with s*s <= x (x >= 0)."""
    if x < 0:
        raise ValueError("negative argument")
    # floor(sqrt(p/q)) = floor(sqrt(p*q)/q) and isqrt is exact on ints.
    p, q = x.numerator, x.denominator
    return math.isqrt(p * q) // q


def naive_contribution_scan(
    X: WonderfulVariety, lam: Sequence[int], box: int
) -> list[Contribution]:
    """Contributions found by scanning the axis-aligned coefficient box
    [-box, box]^r with the defining conditions spelled out directly
    (rational inner products, no candidate ball)."""
    g = X.group
    lam = g.check_weight(lam)
    r = X.rank
    out = []
    for c in itertools.product(range(-box, box + 1), repeat=r):
        mu = translate(lam, c, X.spherical_roots)
        if 0 in g.shifted_pairings(mu):
            continue
        shifted = [x + 1 for x in mu]
        jset = {
            i
            for i, gam in enumerate(X.spherical_roots)
            if g.inner_product(shifted, gam) < 0
        }
        if not all((ci >= 1) if i in jset else (ci <= 0) for i, ci in enumerate(c)):
            continue
        made = g.make_dominant_shifted(mu)
        mu_plus, length, _ = made
        out.append(
            Contribution(
                tuple(sorted(jset)), mu, length, mu_plus, length + len(jset),
                g.weyl_dimension(mu_plus),
            )
        )
    out.sort(key=lambda t: (t.degree, t.mu))
    return out


def tabulate(
    X: WonderfulVariety, lam: Sequence[int], conts: Sequence[Contribution]
) -> CohomologyTable:
    """The table of lam grouped from its contributions, in any order, by
    plain dicts: degree, then highest weight, each constituent's witnesses
    ordered by (J bitmask, mu)."""
    by_degree: dict[int, dict[tuple[int, ...], list[Contribution]]] = {}
    for t in conts:
        by_degree.setdefault(t.degree, {}).setdefault(t.mu_plus, []).append(t)
    groups = []
    for degree in sorted(by_degree):
        constituents = []
        for hw, wits in sorted(by_degree[degree].items()):
            wits = sorted(wits, key=lambda t: (t.j_bitmask(), t.mu))
            constituents.append(Constituent(hw, len(wits), wits[0].dimension, tuple(wits)))
        total = sum(c.multiplicity * c.dimension for c in constituents)
        groups.append(DegreeGroup(degree, tuple(constituents), total))
    return CohomologyTable(X.group.check_weight(lam), tuple(groups))


def table_to_dict(
    X: WonderfulVariety,
    table: CohomologyTable,
    lam_coords: Sequence[int],
    with_witnesses: bool = True,
) -> dict:
    groups = []
    for g in table.groups:
        constituents = []
        for c in g.constituents:
            entry = {
                "highest_weight": list(c.highest_weight),
                "multiplicity": c.multiplicity,
                "witnesses": [
                    {"J": list(t.J), "mu": list(t.mu), "length": t.length}
                    for t in c.witnesses
                ]
                if with_witnesses
                else [],
            }
            constituents.append(entry)
        groups.append(
            {
                "degree": g.degree,
                "dimension": str(g.dimension),
                "constituents": constituents,
            }
        )
    return {
        "variety": X.name,
        "lambda": [int(x) for x in lam_coords],
        "N": X.dimension_N,
        "groups": groups,
    }


def reference_json(X, table, coords, with_witnesses):
    """The bytes table_to_json must write: json.dumps of table_to_dict."""
    doc = table_to_dict(X, table, coords, with_witnesses)
    return json.dumps(doc, indent=2, separators=(",", ": ")) + "\n"


def draw_weight(data, X, lo, hi):
    """Pic coordinates drawn from [lo, hi] and the weight they give."""
    coords = data.draw(st.tuples(*(st.integers(lo, hi) for _ in X.pic_basis)))
    return coords, X.weight_from_pic_coords(coords)


def inline_translate(base, coeffs, vectors):
    """The loop that translate replaces."""
    out = list(base)
    for c, vec in zip(coeffs, vectors):
        for k, x in enumerate(vec):
            out[k] += c * x
    return tuple(out)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_translate_equals_inline_loop(data):
    X = build_case(data.draw(st.sampled_from(CATALOG_NAMES)))
    small = st.integers(-20, 20)
    base = data.draw(st.tuples(*(small for _ in range(X.group.rank))))
    for vectors in (X.spherical_roots, X.pic_basis):
        coeffs = data.draw(st.tuples(*(small for _ in vectors)))
        assert translate(base, coeffs, vectors) == inline_translate(base, coeffs, vectors)


def entrywise_translate(base, coeffs, vectors):
    """translate entry by entry: base[k] plus c vec[k] for each pair (c, vec)
    of zip(coeffs, vectors) with c != 0, or ValueError when the vector of
    such a pair has another length than base."""
    used = [(c, vec) for c, vec in zip(coeffs, vectors) if c]
    if any(len(vec) != len(base) for _, vec in used):
        raise ValueError("vector length differs from the base")
    return tuple(b + sum(c * vec[k] for c, vec in used) for k, b in enumerate(base))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_translate_equals_entrywise_reference(data):
    n = data.draw(st.integers(0, 5))
    small = st.integers(-6, 6)
    base = data.draw(st.lists(small, min_size=n, max_size=n))
    # mostly vectors of base's length; any length is read only under a
    # nonzero coefficient
    vector = st.one_of(
        st.tuples(*(small for _ in range(n))), st.lists(small, max_size=7).map(tuple)
    )
    vectors = data.draw(st.lists(vector, max_size=4))
    # as many coefficients as vectors or fewer, zero about half the time
    coeffs = data.draw(st.lists(st.one_of(st.just(0), small), max_size=len(vectors)))
    try:
        expected = entrywise_translate(base, coeffs, vectors)
    except ValueError:
        with pytest.raises(ValueError, match="length"):
            translate(base, coeffs, vectors)
    else:
        assert translate(base, coeffs, vectors) == expected
        assert translate(tuple(base), tuple(coeffs), vectors) == expected


@pytest.mark.parametrize(
    "base, coeffs, vectors, expected",
    [
        ((), (), (), ()),
        ((1, 2), (), ((5, 5),), (1, 2)),
        # fewer coefficients than vectors, as brion_h0 passes them
        ((1, 2), (3,), ((1, 0), (0, 1)), (4, 2)),
        # a zero coefficient leaves its vector unread, whatever its length
        ((1, 2), (0, 2), ((9,), (1, 1)), (3, 4)),
        ((1, 2), (1,), ((1, 1, 1),), ValueError),
        ((1, 2), (0, -1), ((), (1,)), ValueError),
    ],
)
def test_translate_cases(base, coeffs, vectors, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="length"):
            translate(base, coeffs, vectors)
    else:
        assert translate(base, coeffs, vectors) == entrywise_translate(base, coeffs, vectors) == expected


@pytest.mark.parametrize("name", ["flag:A1", "flag:A1xA1", "group:A2", "E6/F4"])
@pytest.mark.parametrize("box", [0, 1, 3])
def test_pic_box_is_product_order(name, box):
    X = build_case(name)
    axis = range(-box, box + 1)
    expected = [
        (c, X.weight_from_pic_coords(c))
        for c in itertools.product(axis, repeat=len(X.pic_basis))
    ]
    assert list(pic_box(X, box)) == expected


def test_build_case_is_memoised():
    for name in CATALOG_NAMES + ("group:A3", "PGL/PSp(4)"):
        assert build_case(name) is build_case(name)
    for _ in range(2):
        with pytest.raises(CatalogError):
            build_case("nosuch")


def cold_chambers(monkeypatch, X):
    """Give X's witness walk an empty chamber table for this test, so every
    inversion set its evaluations meet is walked afresh; the shared table
    comes back after the test."""
    table: dict = {}
    monkeypatch.setattr(X, "_walk", cohomology._walk(X)._replace(chambers=table))
    return table


def expand_stretches(X: WonderfulVariety, lam) -> dict[int, list[Contribution]]:
    """The witnesses of lam per degree, expanded from `_stretches` one
    witness at a time, each field stepped t times from the stretch's first
    witness and the dimension from the Weyl dimension formula: the
    reference for both expansion paths of `_witnesses_by_degree`.  At rank
    0, gamma_0 is () and every stretch one witness long."""
    mu_step = cohomology._walk(X).step[0]
    by_degree: dict[int, list[Contribution]] = {}
    for J, length, degree, mu, mu_plus, _, w_step, m in cohomology._stretches(X, lam):
        for t in range(m):
            mu_t = tuple(x + t * y for x, y in zip(mu, mu_step)) if t else mu
            plus_t = tuple(x + t * y for x, y in zip(mu_plus, w_step))
            dimension = X.group.weyl_dimension(plus_t)
            by_degree.setdefault(degree, []).append(
                Contribution(J, mu_t, length, plus_t, degree, dimension)
            )
    return by_degree


def product_variety(*names):
    """The product of catalog varieties as one descriptor: groups, bases
    and sgamma pairs placed block-diagonally."""
    parts = [build_case(n) for n in names]
    total = sum(X.group.rank for X in parts)
    doc = {"name": " x ".join(names), "group": [], "spherical_roots": [], "pic_basis": [],
           "q_simple_roots": [], "sgamma": []}
    offset = 0
    for X in parts:
        def pad(v, offset=offset, n=X.group.rank):
            return [0] * offset + list(v) + [0] * (total - offset - n)

        doc["group"] += [list(c) for c in X.group.components]
        doc["spherical_roots"] += [pad(v) for v in X.spherical_roots]
        doc["pic_basis"] += [pad(v) for v in X.pic_basis]
        doc["q_simple_roots"] += [offset + i + 1 for i in sorted(X.q_simple_roots)]
        doc["sgamma"] += [[pad(a), pad(b)] for a, b in X.sgamma_data or ()]
        offset += X.group.rank
    return variety_from_dict(doc)


#: group:A1 x group:A2, spherical roots in that order: gamma_1 is orthogonal
#: to gamma_0, so c_1 picks its own side (row j = i) and decides s_2 too.
#: Among the group compactifications only type E has a spherical root
#: orthogonal to all earlier ones, and group:E6 is too costly for the
#: unpruned reference of `test_pruned_walk`
PRODUCT = "group:A1 x group:A2"


@functools.cache
def variety(name):
    """`build_case(name)`, or for `PRODUCT` its product descriptor, built once."""
    return product_variety(*name.split(" x ")) if name == PRODUCT else build_case(name)


def reference_candidates(X: WonderfulVariety, lam) -> list[tuple[int, ...]]:
    """`enumerate_candidates` by one `translate` per point of the k = 2
    ball, in lexicographic order of c: the enumeration before the walk
    carried mu."""
    sigma = X.spherical_roots
    return [translate(lam, c, sigma) for c in ball_points(X, lam, 2)]


def ball_points(X: WonderfulVariety, lam, k: int) -> list[tuple[int, ...]]:
    """All integer c with c^T G c + k c^T b <= 0, with G the spherical Gram
    matrix and b_i = (lam + rho, gamma_i), in lexicographic order: the lines
    of `cohomology._ball_lines`, expanded and sorted.  k = 1 is the witness
    ball and k = 2 the candidate ball; c = 0 is on both."""
    if X.rank == 0:
        return [()]
    lines = cohomology._ball_lines(X, X.sign_pairings(lam), k)
    return sorted((c0, *rest) for (lo, *rest), n, _ in lines for c0 in range(lo, lo + n))


def h0_bounds(X: WonderfulVariety, lam) -> list[int]:
    """The bound on each d_i of `oracles.brion_h0`, from the simple-root
    coordinates of lam and of the spherical roots."""
    lam_a = row_products(X.group._cartan_inv_scaled[0], lam)
    return [
        min(la // ga for la, ga in zip(lam_a, gam_a) if ga > 0) for gam_a in X._gamma_simple
    ]


def box_scan_h0(X: WonderfulVariety, lam) -> list[tuple[int, ...]]:
    """`oracles.brion_h0` as a plain box scan: every d of the box of
    `h0_bounds`, mu = lam - sum d_i gamma_i by one `translate` each, kept
    when dominant."""
    found = []
    for minus_d in itertools.product(*(range(0, -b - 1, -1) for b in h0_bounds(X, lam))):
        mu = translate(lam, minus_d, X.spherical_roots)
        if all(x >= 0 for x in mu):
            found.append(mu)
    return sorted(found)


def count_calls(monkeypatch, holders, attr):
    """Wrap `attr` on every holder with one shared call counter."""
    calls = []
    original = getattr(holders[0], attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for holder in holders:
        monkeypatch.setattr(holder, attr, counted)
    return calls


@pytest.mark.parametrize("name, coords", [("E6/F4", (-7, 2)), ("group:A2", (-3, 1))])
def test_serre_check_evaluates_twice(monkeypatch, name, coords):
    # _witnesses_by_degree is the one walk under both the table and the dual
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    calls = count_calls(monkeypatch, [cohomology], "_witnesses_by_degree")
    assert oracles.serre_involution_check(X, lam)
    assert len(calls) == 2


def test_cohomology_table_checks_membership_once(monkeypatch):
    X = build_case("E6/F4")
    lam = X.weight_from_pic_coords((-10, -10))
    calls = count_calls(monkeypatch, [WonderfulVariety], "pic_contains")
    assert cohomology.cohomology_table(X, lam).dimensions_by_degree() == {26: 651}
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["PSO/PSO(3)", "E6/F4"])
def test_region_plot_checks_membership_once(monkeypatch, name):
    # lambda_0 is built from integer pic coordinates, so only a given base
    # is checked
    X = build_case(name)
    calls = count_calls(monkeypatch, [WonderfulVariety], "pic_contains")
    plot = region_plot(X, "Omega", -8, 8)
    assert len(plot.points) == 17**X.rank
    assert len(calls) == 0
    assert region_plot(X, "Omega", -8, 8, base=X.lambda_zero()) == plot
    assert len(calls) == 1


def solve_in_span(basis, gram_inv, gram_pair, target):
    """Coordinates of `target` in the span of `basis`, or None: the Fraction
    normal-equation solve that the integer left inverses replace.

    `gram_inv` is the inverse Gram matrix of the basis and `gram_pair(v)`
    returns the pairings (v, basis[i]); the coordinates are checked against
    the target exactly, so vectors outside the span are rejected.
    """
    coords = mat_vec(gram_inv, gram_pair(target))
    recon = inline_translate((0,) * len(target), coords, basis)
    if any(r != t for r, t in zip(recon, target)):
        return None
    return coords


def reference_coords(X, basis, v):
    if not basis:
        return () if not any(v) else None
    return solve_in_span(
        basis,
        mat_inverse(gram(X.group, basis)),
        lambda u: [X.group.inner_product(u, b) for b in basis],
        v,
    )


@functools.cache
def doubled(name):
    """`name` with both bases doubled, unvalidated: its lattice points have
    half-integer coordinates in the doubled bases."""
    X = build_case(name)
    sigma, pic = ([[2 * x for x in v] for v in vs] for vs in (X.spherical_roots, X.pic_basis))
    return WonderfulVariety(f"2*{name}", X.group, sigma, pic, X.q_simple_roots)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_membership_equals_fraction_solve(name, data):
    X = build_case(name)
    small = st.integers(-6, 6)
    on_pic = X.weight_from_pic_coords(data.draw(st.tuples(*(small for _ in X.pic_basis))))
    coeffs = data.draw(st.tuples(*(small for _ in X.spherical_roots)))
    on_sigma = translate((0,) * X.group.rank, coeffs, X.spherical_roots)
    off = data.draw(st.tuples(*(small for _ in range(X.group.rank))))
    weights = [on_pic, on_sigma, off]
    # halves of even weights: half-integer combinations that stay integral
    weights += [tuple(x // 2 for x in v) for v in weights if not any(x % 2 for x in v)]
    for Y in (X, doubled(name)):
        for v in weights:
            pic = reference_coords(Y, Y.pic_basis, v)
            if pic is not None and any(c.denominator != 1 for c in pic):
                pic = None
            assert Y.pic_contains(v) == (None if pic is None else tuple(map(int, pic)))
            sigma = reference_coords(Y, Y.spherical_roots, v)
            n = span_numerators(Y.spherical_roots, Y._sigma_left_inv, v)
            den = Y._sigma_left_inv[1]
            assert (None if n is None else tuple(Fraction(x, den) for x in n)) == sigma


def reference_span_numerators(basis, left_inverse, v):
    """The entry-by-entry rebuild of den * v that span_numerators replaces."""
    rows, den = left_inverse
    n = tuple(sum(r * x for r, x in zip(row, v)) for row in rows)
    if inline_translate((0,) * len(v), n, basis) != tuple(den * x for x in v):
        return None
    return n


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_span_numerators_equals_entry_rebuild(name, data):
    small = st.integers(-6, 6)
    for Y in (build_case(name), doubled(name)):
        rank = Y.group.rank
        bases = ((Y.pic_basis, Y._pic_left_inv), (Y.spherical_roots, Y._sigma_left_inv))
        for basis, inverse in bases:
            on = translate((0,) * rank, data.draw(st.tuples(*(small for _ in basis))), basis)
            off = data.draw(st.tuples(*(small for _ in range(rank))))
            # the zero vector, a unit vector (off every empty basis), lattice,
            # half-lattice and off-span points
            weights = [(0,) * rank, (1,) + (0,) * (rank - 1), on, off]
            weights += [tuple(x // 2 for x in v) for v in (on, off) if not any(x % 2 for x in v)]
            for v in weights:
                n = span_numerators(basis, inverse, v)
                assert n == reference_span_numerators(basis, inverse, v)
                assert n is None or all(type(x) is int for x in n)
            if not basis:
                assert span_numerators(basis, inverse, weights[1]) is None


@pytest.mark.parametrize(
    "name, coords", [("E6/F4", (-10, -10)), ("group:A3", (-4, -4, -4)), ("PGL/PSp(3)", (-6, -6))]
)
def test_no_fraction_pairings_after_build(monkeypatch, name, coords):
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    calls = count_calls(monkeypatch, [RootSystem], "inner_product")
    assert X.pic_contains(lam) == coords
    cohomology.omega_signature(X, lam)
    assert cohomology.contributions(X, lam)
    assert calls == []
