"""The coroot classes of the witness walk.

For mu in pic(X) + Z Sigma, <mu + rho, alpha^vee> is fixed by the
coroot's pairings with the spherical roots and the pic basis and by its
height, so `cohomology._walk` carries one entry per class of coroots that
agree on all three, with the class's size, and leaves out the inert
coroots, which pair to their height everywhere.  The checks below read
every coroot's pairing from `RootSystem.shifted_pairings` at drawn weights
of pic(X) + Z Sigma.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import WonderfulVariety, build_case, build_root_system
from wondercoh.cohomology import _class_pairings, _walk, contributions
from wondercoh.varieties import validate, variety_from_dict

from test_helpers import NAMES, PRODUCT, draw_weight, inline_translate, variety
from test_line_cut import per_point_contributions
from test_regions import LONG_PIC

#: PSO/PSO(3) with two pic weights for its one spherical root
LONG = "PSO/PSO(3), Q = B"


def descriptor(name):
    if name == LONG:
        return variety_from_dict({**LONG_PIC, "pic_basis": [[1, 1, 1], [0, 1, 1]]})
    return variety(name)


@pytest.mark.parametrize(
    "name", NAMES + ("group:D4", "group:F4", "group:E6", "PGL/PSp(5)", PRODUCT, LONG)
)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_coroot_pairs_like_its_class(name, data):
    X = descriptor(name)
    g, walk = X.group, _walk(X)
    carried = [k for ks in walk.classes for k in ks]
    sizes = tuple(map(len, walk.classes))
    assert sorted(carried) == sorted(set(carried)) and sizes == tuple(sorted(sizes))
    # the classes of size at least j begin at tails[j - 2]
    assert walk.tails == tuple(
        next(i for i, k in enumerate(sizes) if k >= j) for j in range(2, max(sizes, default=1) + 1)
    )
    inert = [k for k in range(len(g.positive_roots)) if k not in carried]
    assert walk.inert == math.prod(g._rho_pairings[k] for k in inert)
    _, lam = draw_weight(data, X, -12, 12)
    c = data.draw(st.tuples(*(st.integers(-6, 6) for _ in X.spherical_roots)))
    mu = inline_translate(lam, c, X.spherical_roots)
    full = g.shifted_pairings(mu)
    pairs = _class_pairings(X, mu)
    assert pairs == tuple(full[ks[0]] for ks in walk.classes)
    for p, ks in zip(pairs, walk.classes):
        assert [full[k] for k in ks] == [p] * len(ks)
    assert [full[k] for k in inert] == [g._rho_pairings[k] for k in inert]
    # the Weyl numerator at class width is the product over every coroot
    assert walk.inert * math.prod(map(pow, pairs, sizes)) == math.prod(full)


def a1_cubed(pic):
    """A1 x A1 x A1 with the one spherical root (2, 2, 2), which every simple
    coroot pairs to 2, and the pic basis `pic`."""
    A = build_root_system([("A", 1)] * 3)
    X = WonderfulVariety("drawn", A, [(2, 2, 2)], pic)
    assert validate(X).passed
    return X


@pytest.mark.parametrize(
    "pic, sizes",
    [
        ([(1, 1, 1)], (3,)),  # the three simple coroots pair alike: one class
        ([(1, 1, 1), (0, 0, 2)], (1, 2)),  # (0, 0, 2) splits alpha_3 off
    ],
)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_class_of_three_and_its_split_equal_the_per_point_filter(pic, sizes, data):
    X = a1_cubed(pic)
    walk = _walk(X)
    assert tuple(map(len, walk.classes)) == sizes and walk.inert == 1
    # from -14 down, the one stretch is long enough for the C-level expansion
    _, lam = draw_weight(data, X, -30, 6)
    assert contributions(X, lam) == per_point_contributions(X, lam)


@pytest.mark.parametrize("pic", [[(1, 1, 1)], [(1, 1, 1), (0, 0, 2)]])
def test_class_of_three_dimensions(pic):
    # (-9, 0, ...): the witnesses of H^4 are cubes, 6^3, 4^3 and 2^3
    X = a1_cubed(pic)
    lam = X.weight_from_pic_coords((-9,) + (0,) * (len(pic) - 1))
    conts = contributions(X, lam)
    assert [t.dimension for t in conts] == [216, 64, 8]
    assert conts == per_point_contributions(X, lam)


@pytest.mark.parametrize(
    "name, classes, inert",
    [
        ("group:A2", 3, 0),
        ("group:E7", 63, 0),
        ("E6/F4", 21, 12),
        ("PGL/PSp(4)", 18, 4),
    ],
)
def test_class_counts(name, classes, inert):
    X = build_case(name)
    walk = _walk(X)
    assert len(walk.classes) == classes
    assert len(X.group.positive_roots) - sum(map(len, walk.classes)) == inert
