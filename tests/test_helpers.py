"""Shared helpers (weight translation, Picard boxes, the build_case memo)
and the number of evaluations each entry point makes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import CATALOG_NAMES, CatalogError, WonderfulVariety, build_case
from wondercoh import cohomology, oracles
from wondercoh.exactalg import translate
from wondercoh.varieties import pic_box


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
