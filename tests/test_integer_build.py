"""Descriptor build in integers: `exactalg.int_inverse` against its defining
property, every derived table of `RootSystem` and `WonderfulVariety`
against the Fraction build it replaces (Gauss-Jordan, matrix-vector
products and LDL^T over `fractions.Fraction`, in `tests/test_helpers.py`),
and pinned `validate` reports."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import CATALOG_NAMES, CatalogError, WonderfulVariety, build_case
from wondercoh.cohomology import _walk
from wondercoh.exactalg import int_inverse, int_scaled, ldl
from wondercoh.roots import build_root_system
from wondercoh.varieties import validate, variety_from_dict

from test_helpers import doubled, dot, frac_matrix, mat_inverse, mat_vec, product_variety

EXTRA = (
    "group:A4", "group:D4", "group:F4", "group:E6", "group:E7", "group:E8",
    "PGL/PSp(5)", "flag:E6",
)

# -- int_inverse ---------------------------------------------------------------


def square(n, entries=st.integers(-4, 4)):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


def matrices():
    # mostly zeros too, so that pivots must be searched for and swapped
    return st.integers(0, 6).flatmap(lambda n: square(n, st.sampled_from((0, 0, 1, -1, 2, -3, 5))))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(m=matrices())
def test_int_inverse_is_the_least_scaled_inverse(m):
    n = len(m)
    try:
        reference = mat_inverse(frac_matrix(m))
    except ValueError:
        with pytest.raises(ValueError):
            int_inverse(m)
        return
    rows, den = int_inverse(m)
    assert den > 0 and all(type(x) is int for row in rows for x in row)
    product = [[sum(r * m[k][j] for k, r in enumerate(row)) for j in range(n)] for row in rows]
    assert product == [[den * int(i == j) for j in range(n)] for i in range(n)]
    assert math.gcd(den, *(x for row in rows for x in row)) == 1  # den is least
    assert (rows, den) == int_scaled(reference)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=st.integers(1, 5).flatmap(square), data=st.data())
def test_int_inverse_refuses_a_singular_matrix(m, data):
    # row i becomes an integer combination of the other rows
    n = len(m)
    i = data.draw(st.integers(0, n - 1))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    m[i] = [sum(c * m[k][j] for k, c in enumerate(coeffs) if k != i) for j in range(n)]
    with pytest.raises(ValueError):
        int_inverse(m)


def test_int_inverse_of_the_empty_matrix():
    assert int_inverse(()) == ((), 1)


# -- the Fraction reference build ------------------------------------------------


def reference_root_tables(cartan, d):
    """The derived tables of a root system with Cartan matrix `cartan` and
    symmetrizer d, built by the Fraction algorithm: reflection closure over
    the whole Cartan matrix, coroot rows 2 d_i alpha_i / (alpha, alpha),
    the Fraction inverse of A and the form d_i (A^-1)_ij (returned too)."""
    n = len(cartan)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, frontier = set(simple), set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(n):
                img = list(beta)
                img[i] -= sum(cartan[i][j] * beta[j] for j in range(n))
                if tuple(img) not in roots and min(img) >= 0:
                    new.add(tuple(img))
        roots |= new
        frontier = new
    positive = tuple(sorted(roots, key=lambda r: (sum(r), r)))
    coroot_rows = []
    for alpha in positive:
        norm = sum(alpha[i] * alpha[j] * d[i] * cartan[i][j] for i in range(n) for j in range(n))
        coroot_rows.append(tuple(Fraction(2 * x * di, norm) for x, di in zip(alpha, d)))
    assert all(x.denominator == 1 for row in coroot_rows for x in row)
    inverse = mat_inverse(frac_matrix(cartan))
    form = tuple(tuple(di * x for x in row) for di, row in zip(d, inverse))
    return {
        "positive_roots": positive,
        "_coroot_rows": tuple(tuple(map(int, row)) for row in coroot_rows),
        "_root_weights": tuple(tuple(map(int, mat_vec(cartan, a))) for a in positive),
        "_weyl_den": math.prod(sum(row) for row in coroot_rows),
        "_cartan_inv_scaled": int_scaled(inverse),
        "_fw_gram_scaled": int_scaled(form),
    }, form


def ldl_or_none(m):
    try:
        return ldl(m)
    except ValueError:
        return None


def reference_variety_tables(X, form):
    """The lattice tables of X from the Fraction form (u, v) = u . form v,
    through the Fraction Gram matrices, their inverses and LDL^T: the
    definiteness flags, sign rows, witness form and left inverses; and the
    pic sign rows and the spherical roots' simple-root coordinates through
    the Fraction pairings and the Fraction inverse of the Cartan matrix."""
    sigma, pic = X.spherical_roots, X.pic_basis
    cartan_inv = mat_inverse(frac_matrix(X.group.cartan))
    cartan_inv_den = int_scaled(cartan_inv)[1]
    sigma_gram = frac_matrix([[dot(a, mat_vec(form, b)) for b in sigma] for a in sigma])
    pic_gram = frac_matrix([[dot(a, mat_vec(form, b)) for b in pic] for a in pic])
    sigma_ldl, pic_ldl = ldl_or_none(sigma_gram), ldl_or_none(pic_gram)
    sigma_gram_inv = mat_inverse(sigma_gram) if sigma_ldl else ()
    sigma_pairing = [mat_vec(form, gam) for gam in sigma]
    sign_rows, D = int_scaled(sigma_pairing)
    witness_form = None
    if sigma_ldl is not None:
        L, d = sigma_ldl
        cols = list(zip(*L))
        M = [[x / 2 / D for x in mat_vec(sigma_gram_inv, c)] for c in cols]
        q = tuple(math.lcm(*(x.denominator for x in (*m, *c))) for m, c in zip(M, cols))
        e = [di / (qi * qi) for di, qi in zip(d, q)]
        S = math.lcm(*(x.denominator for x in e))
        witness_form = (
            tuple(tuple(int(qi * x) for x in m) for qi, m in zip(q, M)),
            q,
            tuple(tuple(int(qi * x) for x in c) for qi, c in zip(q, cols)),
            tuple(int(S * x) for x in e),
        )

    def left_inverse(gram_inv, pairings):
        return int_scaled([[dot(row, col) for col in zip(*pairings)] for row in gram_inv])

    pic_gram_inv = mat_inverse(pic_gram) if pic_ldl is not None else ()
    return {
        "_sigma_pos_def": sigma_ldl is not None,
        "_pic_independent": pic_ldl is not None,
        "_gamma_sign_rows": sign_rows,
        "_gamma_den": D,
        "_witness_form": witness_form,
        "_sigma_left_inv": left_inverse(sigma_gram_inv, sigma_pairing),
        "_pic_left_inv": left_inverse(pic_gram_inv, [mat_vec(form, w) for w in pic]),
        "_gamma_sign_gram": tuple(
            tuple(int(dot(w, gam)) for gam in sigma) for w in sign_rows
        ),
        "_pic_sign_rows": tuple(
            tuple(D * dot(w, mat_vec(form, gam)) for gam in sigma) for w in pic
        ),
        "_gamma_simple": tuple(
            tuple(cartan_inv_den * x for x in mat_vec(cartan_inv, gam)) for gam in sigma
        ),
    }


def assert_tables_equal(X, tables):
    """X's tables equal the reference `tables`; the sign Gram matrix is the
    first r columns of the witness walk's rows, and the witness form is the
    walk's quadric."""
    gram = tables.pop("_gamma_sign_gram")
    witness_form = tables.pop("_witness_form")
    for key, value in tables.items():
        assert getattr(X, key) == value, key
    walk = _walk(X)
    assert tuple(row[:X.rank] for row in walk.rows) == gram
    assert walk.form == witness_form


PRODUCT = ("group:B2", "group:G2", "PSO/PSO(3)")


def variety(name):
    if name == " x ".join(PRODUCT):
        return product_variety(*PRODUCT)
    if name.startswith("2*"):
        return doubled(name[2:])
    return build_case(name)


CASES = CATALOG_NAMES + EXTRA + (" x ".join(PRODUCT), "2*group:A3", "2*PGL/PSp(3)")


@pytest.mark.parametrize("name", CASES)
def test_tables_equal_the_fraction_build(name):
    X = variety(name)
    g = X.group
    # the Cartan matrix is block diagonal over the components, each block
    # that of the simple type, and d_i A_ij is symmetric
    offset = 0
    for family, rank in g.components:
        single = build_root_system([(family, rank)])
        block = slice(offset, offset + rank)
        for i, row in enumerate(g.cartan[block]):
            assert row == (0,) * offset + single.cartan[i] + (0,) * (g.rank - offset - rank)
        assert g.symmetrizer[block] == single.symmetrizer
        offset += rank
    n = range(g.rank)
    assert all(g.symmetrizer[i] * g.cartan[i][j] == g.symmetrizer[j] * g.cartan[j][i]
               for i in n for j in n)

    tables, form = reference_root_tables(g.cartan, g.symmetrizer)
    for key, value in tables.items():
        assert getattr(g, key) == value, key
    assert_tables_equal(X, reference_variety_tables(X, form))
    lam = tuple(k - g.rank // 2 for k in range(g.rank))
    for alpha, row in zip(tables["positive_roots"], tables["_coroot_rows"]):
        assert g.pair_coroot(lam, alpha) == sum(r * x for r, x in zip(row, lam))
        assert g.pair_coroot(lam, [-x for x in alpha]) == -g.pair_coroot(lam, alpha)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_tables_of_drawn_descriptors_equal_the_fraction_build(data):
    # unvalidated descriptors: dependent, repeated and zero vectors included;
    # the products' factors have Cartan inverses of different denominators
    g = build_root_system(data.draw(st.sampled_from(
        [[("A", 3)], [("B", 3)], [("G", 2)], [("C", 2), ("A", 1)], [("F", 4)],
         [("A", 2), ("A", 3)], [("B", 3), ("G", 2), ("A", 1)]]
    )))
    weight = st.tuples(*(st.integers(-3, 3) for _ in range(g.rank)))
    sigma = data.draw(st.lists(weight, max_size=3))
    pic = data.draw(st.lists(weight, max_size=g.rank))
    X = WonderfulVariety("drawn", g, sigma, pic)
    _, form = reference_root_tables(g.cartan, g.symmetrizer)
    assert_tables_equal(X, reference_variety_tables(X, form))
    assert (_walk(X).form is None) == (not X._sigma_pos_def)


def test_pair_coroot_refuses_a_non_root():
    g = build_case("group:A2").group
    with pytest.raises(ValueError):
        g.pair_coroot((1, 0, 0, 0), (1, 1, 1, 0))


# -- validate reports -------------------------------------------------------------


def report(X):
    return [(c.name, c.passed, c.detail) for c in validate(X).checks]


#: sha256 of repr(report(X)), first 16 hex digits, as the Fraction build gave
#: them; the reports hold no variety name, so all-pass reports of the same
#: shape share one digest
REPORT_DIGESTS = {
    "flag:A1": "9a1c441ab074749d",
    "flag:A1xA1": "9a1c441ab074749d",
    "flag:A2": "9a1c441ab074749d",
    "flag:B2": "9a1c441ab074749d",
    "group:A1": "c89883ffaf5e995e",
    "group:A2": "0c61c5251193812a",
    "PSO/PSO(2)": "bf42b1e02c6b76c4",
    "PSO/PSO(3)": "c0972d6d7886be91",
    "PSO/PSO(4)": "a175b7bc0f039f28",
    "Q(2)": "defd61ece5a414ec",
    "Q(3)": "91a9d2ecf0984b79",
    "SO7/G2": "ce85f2ad461accc1",
    "Q7": "a4215fe2ce177134",
    "PGL/PSp(2)": "5f60d61c37cadeb8",
    "PGL/PSp(3)": "9945d820a5f151f5",
    "E6/F4": "d8aaa65713fdde60",
    "group:A4": "326ff21e5e3e7b7b",
    "group:D4": "3f52675f234d541f",
    "group:F4": "da96b97208d5f1ef",
    "group:E6": "e7b160ada4ae17da",
    "group:E7": "adb7fa1ec12a5a33",
    "group:E8": "e3880f5f40126c6e",
    "PGL/PSp(5)": "26c63bef8b3d0411",
    "flag:E6": "9a1c441ab074749d",
    " x ".join(PRODUCT): "2a9a9581942f863a",
    "2*group:A3": "9a1c441ab074749d",
    "2*PGL/PSp(3)": "d7f9efdabc579def",
}


@pytest.mark.parametrize("name", CASES)
def test_validate_report_is_pinned(name):
    X = variety(name)
    assert all(passed for _, passed, _ in report(X))
    assert hashlib.sha256(repr(report(X)).encode()).hexdigest()[:16] == REPORT_DIGESTS[name]


SPANNED = "no root lies in the rational span of the spherical roots"
MULTIPLE = "sgamma[0]: alpha + beta is a positive multiple of gamma"
RHO_MULTIPLE = "sgamma[0]: s_gamma(rho) - rho is an integer multiple of gamma"
PAIR_EQUALLY = "sgamma[0]: pic weights pair equally with alpha and beta"
ORTHOGONAL = "sgamma[0]: <alpha, beta^vee> = 0"

#: (group, spherical roots, pic basis, sgamma pairs) and the failed checks
#: of its report, as the Fraction build gave them
BROKEN = [
    ([("A", 2)], [(2, -1)], [(1, 0), (0, 1)], None, [(SPANNED, "root [2, -1] is spanned")]),
    # lambda_0 is not defined here, as the pic/spherical pairing is not
    # diagonal, so it is not checked
    ([("A", 2)], [(1, 1), (2, 2)], [(1, 0), (0, 1)], None, [
        ("spherical root Gram matrix is positive definite", ""),
        (SPANNED, ""),
    ]),
    ([("A", 3)], [(-1, 2, -1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], None,
     [(SPANNED, "root [-1, 2, -1] is spanned")]),
    ([("A", 2)], [(1, 1)], [(1, 0), (2, 0)], None, [
        ("pic basis is linearly independent", ""),
        (SPANNED, "root [1, 1] is spanned"),
        ("spherical roots lie in the pic lattice", "[[1, 1]] outside"),
    ]),
    ([("A", 2)], [(-1, -1)], [(1, 0), (0, 1)], None, [
        (SPANNED, "root [1, 1] is spanned"),
        ("spherical roots are nonnegative combinations of simple roots", "[[-1, -1]]"),
    ]),
    ([("B", 2)], [(2, -2)], [(1, 0), (0, 1)], [((1, 0), (0, 1))], [
        (SPANNED, "root [2, -2] is spanned"),
        (ORTHOGONAL, ""),
        (MULTIPLE, "alpha+beta = [1, 0]"),
        (PAIR_EQUALLY, ""),
        (RHO_MULTIPLE, "got [-1, 0]"),
    ]),
    ([("G", 2)], [(1, 1)], [(1, 0), (0, 1)], [((1, 0), (1, 1))], [
        (ORTHOGONAL, ""),
        (MULTIPLE, "alpha+beta = [1, 0]"),
        ("sgamma[0]: <rho, alpha^vee> = <rho, beta^vee>", ""),
        (PAIR_EQUALLY, ""),
        (RHO_MULTIPLE, "got [2, -3]"),
    ]),
    ([("A", 1), ("A", 1)], [(4, 4)], [(1, 1)], [((1, 0), (0, 1))], [
        (MULTIPLE, "alpha+beta = [2, 2]"),
        (RHO_MULTIPLE, "got [-2, -2]"),
    ]),
    # gamma is 0 where alpha + beta is not: no multiple
    ([("A", 1), ("A", 1)], [(0, 2)], [(1, 1)], [((1, 0), (0, 1))], [
        (SPANNED, "root [0, 2] is spanned"),
        ("spherical roots lie in the pic lattice", "[[0, 2]] outside"),
        (MULTIPLE, "alpha+beta = [2, 2]"),
        (RHO_MULTIPLE, "got [-2, -2]"),
    ]),
    ([("A", 1), ("A", 1)], [(2, 2)], [(2, 0)], [((1, 0), (0, 1))], [
        ("spherical roots lie in the pic lattice", "[[2, 2]] outside"),
        (PAIR_EQUALLY, ""),
    ]),
]


@pytest.mark.parametrize("group, sigma, pic, sgamma, failed", BROKEN)
def test_validate_failures_are_pinned(group, sigma, pic, sgamma, failed):
    X = WonderfulVariety("custom", build_root_system(group), sigma, pic, sgamma_data=sgamma)
    assert [(name, detail) for name, passed, detail in report(X) if not passed] == failed
    with pytest.raises(CatalogError):
        variety_from_dict({"group": group, "spherical_roots": sigma, "pic_basis": pic,
                           "sgamma": sgamma})
