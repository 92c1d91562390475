"""The engine against its independent oracles, as hypothesis properties over
the catalog and the larger groups it lacks: the Serre witness bijection,
the H^0 law against `brion_h0` (and its box against the norm bound it
replaced), Borel-Weil-Bott against `bwb_direct` on the flag varieties, and
the L(mu) x L(mu)^* shape of every constituent on the group
compactifications."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import build_case
from wondercoh.cohomology import cohomology_table
from test_helpers import frac_isqrt_floor
from wondercoh.oracles import brion_h0, bwb_direct, serre_involution_check
from wondercoh.roots import build_root_system
from wondercoh.varieties import pic_box

from test_helpers import NAMES, draw_weight, gram, inline_translate, mat_inverse

FLAGS = tuple(n for n in NAMES if build_case(n).rank == 0)
GROUPS = tuple(n for n in NAMES if n.startswith("group:"))
PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(data=st.data())
def test_serre_witness_bijection(name, data):
    X = build_case(name)
    r = 8 if X.rank < 3 else 4
    _, lam = draw_weight(data, X, -r, r)
    res = serre_involution_check(X, lam)
    assert res, res.detail


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(data=st.data())
def test_h0_law(name, data):
    X = build_case(name)
    # brion_h0 scans a box whose side grows with |lam|
    r = 6 if X.rank < 3 else 3
    _, lam = draw_weight(data, X, -r, r)
    table = cohomology_table(X, lam)
    h0 = table.constituents(0)
    assert sorted(c.highest_weight for c in h0) == brion_h0(X, lam)
    assert all(c.multiplicity == 1 for c in h0)
    if X.group.is_dominant(lam):
        assert table.nonzero_degrees() in ((), (0,))


def norm_bound_h0(X, lam):
    """The H^0 box scan with the norm bound d_i <= 2 |lam| sqrt((G^-1)_ii)
    that the simple-root bound of `brion_h0` replaces."""
    if X.rank == 0:
        return [lam] if X.group.is_dominant(lam) else []
    norm = X.group.inner_product(lam, lam)
    G_inv = mat_inverse(gram(X.group, X.spherical_roots))
    bounds = [frac_isqrt_floor(4 * norm * G_inv[i][i]) for i in range(X.rank)]
    found = []
    for d in itertools.product(*(range(b + 1) for b in bounds)):
        mu = inline_translate(lam, [-x for x in d], X.spherical_roots)
        if all(x >= 0 for x in mu):
            found.append(mu)
    return sorted(found)


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(data=st.data())
def test_h0_box_equals_norm_bound_scan(name, data):
    X = build_case(name)
    # mostly positive coordinates, where degree zero is not empty
    _, lam = draw_weight(data, X, -2, 6 if X.rank < 3 else 4)
    assert brion_h0(X, lam) == norm_bound_h0(X, lam)


@pytest.mark.parametrize("name", FLAGS)
@PROPERTY
@given(data=st.data())
def test_borel_weil_bott(name, data):
    X = build_case(name)
    _, lam = draw_weight(data, X, -20, 20)
    assert cohomology_table(X, lam) == bwb_direct(X, lam)


@pytest.mark.parametrize("name", GROUPS)
def test_group_constituents_pair_each_weight_with_its_dual(name):
    # every H^d of the group compactification is a sum of L(mu) x L(mu)^*,
    # so the second factor's weight is -w_0 of the first factor's; the
    # identity pairing breaks this wherever -w_0 is not the identity
    X = build_case(name)
    (factor, _) = X.group.components
    single = build_root_system([factor])
    rank = single.rank
    degrees = set()
    for _, lam in pic_box(X, {1: 12, 2: 6}.get(rank, 3)):
        for group in cohomology_table(X, lam).groups:
            degrees.add(group.degree)
            for c in group.constituents:
                mu_1, mu_2 = c.highest_weight[:rank], c.highest_weight[rank:]
                assert mu_2 == single.dual_weight(mu_1)
    assert degrees - {0}  # the box reaches past H^0
