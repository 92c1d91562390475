"""Shared helpers (weight translation, Picard boxes, the build_case memo,
lattice membership) and the number of evaluations each entry point makes."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import CATALOG_NAMES, CatalogError, WonderfulVariety, build_case
from wondercoh import cohomology, oracles
from wondercoh.exactalg import mat_inverse, mat_vec, translate
from wondercoh.roots import RootSystem
from wondercoh.varieties import pic_box

NAMES = CATALOG_NAMES + ("group:A3", "group:B2", "group:G2", "PSO/PSO(5)", "PGL/PSp(4)")


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
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    calls = count_calls(monkeypatch, [cohomology, oracles], "contributions")
    assert oracles.serre_involution_check(X, lam)
    assert len(calls) == 2


def test_cohomology_table_checks_membership_once(monkeypatch):
    X = build_case("E6/F4")
    lam = X.weight_from_pic_coords((-10, -10))
    calls = count_calls(monkeypatch, [WonderfulVariety], "pic_contains")
    assert cohomology.cohomology_table(X, lam).dimensions_by_degree() == {26: 651}
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


def reference_coords(X, basis, gram, v):
    if not basis:
        return () if not any(v) else None
    return solve_in_span(
        basis, mat_inverse(gram), lambda u: [X.group.inner_product(u, b) for b in basis], v
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
            pic = reference_coords(Y, Y.pic_basis, Y.pic_gram, v)
            if pic is not None and any(c.denominator != 1 for c in pic):
                pic = None
            assert Y.pic_contains(v) == (None if pic is None else tuple(map(int, pic)))
            sigma = reference_coords(Y, Y.spherical_roots, Y.sigma_gram, v)
            assert Y.sigma_coords(v) == sigma


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
