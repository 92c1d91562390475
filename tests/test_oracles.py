"""Oracle self-tests and small engine/oracle agreements."""

import inspect
import itertools
import math
import sys

import pytest

from wondercoh import build_case, build_root_system, oracles
from wondercoh.cohomology import cohomology_table, enumerate_candidates
from wondercoh.oracles import (
    OracleBudgetError,
    brion_h0,
    bwb_direct,
    projective_space_cohomology,
    quadric_cohomology,
    serre_involution_check,
    vanishing_profile,
    weyl_group_bruteforce,
)
from wondercoh.varieties import pic_box

from test_helpers import NAMES, box_scan_h0, count_calls, h0_bounds


def test_bwb_direct_examples():
    X = build_case("flag:A1")
    tab = bwb_direct(X, (3,))
    assert tab.nonzero_degrees() == (0,) and tab.dimension(0) == 4
    tab = bwb_direct(X, (-3,))
    assert tab.nonzero_degrees() == (1,) and tab.constituents(1)[0].highest_weight == (1,)
    X2 = build_case("flag:A2")
    tab = bwb_direct(X2, (-2, -2))
    assert tab.nonzero_degrees() == (3,)
    assert tab.constituents(3)[0].highest_weight == (0, 0)


def test_bwb_rejects_positive_rank():
    with pytest.raises(ValueError):
        bwb_direct(build_case("PSO/PSO(2)"), (0, 0))


def test_engine_matches_bwb_spot():
    for name in ["flag:A1", "flag:A2"]:
        X = build_case(name)
        rank = len(X.pic_basis)
        for coords in itertools.product(range(-4, 5), repeat=rank):
            lam = X.weight_from_pic_coords(coords)
            assert cohomology_table(X, lam) == bwb_direct(X, lam)


def test_projective_space_closed_form():
    assert projective_space_cohomology(3, 2) == {0: 10}
    assert projective_space_cohomology(3, -6) == {3: 10}
    assert projective_space_cohomology(3, -2) == {}
    assert projective_space_cohomology(5, 0) == {0: 1}
    with pytest.raises(ValueError):
        projective_space_cohomology(0, 1)


def test_quadric_closed_form():
    assert quadric_cohomology(3, 1) == {0: 5}  # hyperplanes of the ambient P^4
    assert quadric_cohomology(3, 0) == {0: 1}
    assert quadric_cohomology(3, -3) == {3: 1}  # canonical sheaf
    assert quadric_cohomology(3, -4) == {3: 5}
    assert quadric_cohomology(3, -1) == {}
    assert quadric_cohomology(7, 1) == {0: 9}


def test_engine_matches_quadric_closed_form():
    # the quadric entries (including the Spin_7 one) carry no spherical
    # machinery in this oracle: pure binomial arithmetic
    for name, m in [("Q(2)", 3), ("Q(3)", 5), ("Q7", 7)]:
        X = build_case(name)
        for k in range(-12, 13):
            lam = X.weight_from_pic_coords((k,))
            got = cohomology_table(X, lam).dimensions_by_degree()
            assert got == quadric_cohomology(m, k), (name, k, got)


def test_p7_entries_match_projective_closed_form():
    # PSO/PSO(4) and SO7/G2 are both P^7, for different groups: the
    # module structures differ but every total dimension must agree
    for name in ["PSO/PSO(4)", "SO7/G2"]:
        X = build_case(name)
        for k in range(-12, 13):
            lam = X.weight_from_pic_coords((k,))
            got = cohomology_table(X, lam).dimensions_by_degree()
            assert got == projective_space_cohomology(7, k), (name, k, got)


def test_pglpsp2_is_p5():
    # PGL_4/PSp_4 compactifies inside P(Lambda^2 k^4): the variety is P^5
    X = build_case("PGL/PSp(2)")
    for k in range(-10, 11):
        lam = X.weight_from_pic_coords((k,))
        got = cohomology_table(X, lam).dimensions_by_degree()
        assert got == projective_space_cohomology(5, k), (k, got)


def test_group_h0_constituents_are_square_dimensional():
    # functions on the group decompose as V (x) V^*: every degree-zero
    # constituent of a group compactification has square dimension
    import math

    X = build_case("group:A2")
    for a in range(0, 5):
        for b in range(0, 5):
            table = cohomology_table(X, X.weight_from_pic_coords((a, b)))
            for c in table.constituents(0):
                root = math.isqrt(c.dimension)
                assert root * root == c.dimension


def test_brion_h0_examples():
    X = build_case("PSO/PSO(2)")
    lam = X.weight_from_pic_coords((2,))
    assert brion_h0(X, lam) == [(0, 0), (2, 2)]
    assert brion_h0(X, X.weight_from_pic_coords((-1,))) == []
    assert brion_h0(X, (0, 0)) == [(0, 0)]


def test_brion_h0_flag():
    X = build_case("flag:A1")
    assert brion_h0(X, (4,)) == [(4,)]
    assert brion_h0(X, (-4,)) == []


@pytest.mark.parametrize("name", NAMES)
def test_brion_h0_equals_box_scan(name):
    # the scan cuts its last axis to the dominant interval; the reference
    # visits every point of the box
    X = build_case(name)
    for coords, lam in pic_box(X, 3):
        assert brion_h0(X, lam) == box_scan_h0(X, lam), coords


@pytest.mark.parametrize("name", NAMES + ("group:A4", "PGL/PSp(5)"))
def test_box_walks_step_by_rows(monkeypatch, name):
    # the candidate list takes each weight from the ball's walk, and
    # brion_h0 translates once per point of its box but the last axis,
    # along which it steps
    X = build_case(name)
    n = len(X.pic_basis)
    weights = [X.weight_from_pic_coords(c) for c in [(3,) * n, (-3,) * n, (2, -1, 1, -2)[:n]]]
    holders = [m for k, m in sorted(sys.modules.items())
               if k.startswith("wondercoh.") and hasattr(m, "translate")]
    calls = count_calls(monkeypatch, holders, "translate")
    for lam in weights:
        assert enumerate_candidates(X, lam) and calls == []
        *outer, _ = h0_bounds(X, lam) or [0]
        brion_h0(X, lam)
        assert len(calls) <= math.prod(max(b + 1, 0) for b in outer)
        calls.clear()


def test_weyl_bruteforce_orders():
    for spec, order in [
        ([("A", 2)], 6),
        ([("A", 1), ("A", 1)], 4),
        ([("B", 2)], 8),
        ([("G", 2)], 12),
        ([("A", 3)], 24),
    ]:
        assert len(weyl_group_bruteforce(build_root_system(spec))) == order


def test_weyl_bruteforce_rank_guard():
    with pytest.raises(ValueError):
        weyl_group_bruteforce(build_root_system([("D", 4)]))


def test_serre_check_examples():
    X = build_case("PSO/PSO(2)")
    assert serre_involution_check(X, X.weight_from_pic_coords((2,)))
    assert serre_involution_check(X, X.weight_from_pic_coords((-2,)))
    F = build_case("flag:A1")
    assert serre_involution_check(F, (3,))


def test_vanishing_profile_p3():
    X = build_case("PSO/PSO(2)")
    assert vanishing_profile(X, 10) <= {0, 3}
    assert vanishing_profile(X, 10) == {0, 3}


def test_vanishing_profile_budget():
    X = build_case("PSO/PSO(2)")
    with pytest.raises(OracleBudgetError):
        vanishing_profile(X, 10, candidate_cap=2)


@pytest.mark.parametrize(
    "function, parameter",
    [("capped_candidate_count", "cap"), ("scan", "candidate_cap"),
     ("vanishing_profile", "candidate_cap")],
)
def test_every_capped_scan_defaults_to_the_one_candidate_cap(function, parameter):
    default = inspect.signature(getattr(oracles, function)).parameters[parameter].default
    assert default == oracles.CANDIDATE_CAP == 200_000
