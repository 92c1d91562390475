"""The engine against its independent oracles, as hypothesis properties over
the catalog and the larger groups it lacks: the Serre witness bijection,
the H^0 law against `brion_h0`, and Borel-Weil-Bott against `bwb_direct`
on the flag varieties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import build_case
from wondercoh.cohomology import cohomology_table
from wondercoh.oracles import brion_h0, bwb_direct, serre_involution_check

from test_helpers import NAMES, draw_weight

FLAGS = tuple(n for n in NAMES if build_case(n).rank == 0)
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


@pytest.mark.parametrize("name", FLAGS)
@PROPERTY
@given(data=st.data())
def test_borel_weil_bott(name, data):
    X = build_case(name)
    _, lam = draw_weight(data, X, -20, 20)
    assert cohomology_table(X, lam) == bwb_direct(X, lam)
