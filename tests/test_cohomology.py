"""Engine tests: candidate enumeration, contributions, tables, Serre duality."""

import random

import pytest

from wondercoh import build_case
from wondercoh.cohomology import (
    _ball_coefficients,
    cohomology_table,
    contributions,
    enumerate_candidates,
    omega_signature,
    serre_dual_weight,
)
from test_helpers import naive_contribution_scan, sigma_lattice_coords
from wondercoh.serialize import table_to_json
from wondercoh.varieties import pic_box


def pic(X, *coords):
    return X.weight_from_pic_coords(coords)


def test_omega_signature_p3():
    X = build_case("PSO/PSO(2)")
    assert omega_signature(X, pic(X, 2)) == ()
    assert omega_signature(X, pic(X, -4)) == (0,)
    assert omega_signature(X, X.lambda_zero()) == (0,)
    with pytest.raises(ValueError):
        omega_signature(X, (1, 0))


def test_enumerate_candidates_p3():
    X = build_case("PSO/PSO(2)")
    cands = enumerate_candidates(X, pic(X, 2))
    assert sorted(X.pic_contains(m)[0] for m in cands) == [-4, -2, 0, 2]
    cands = enumerate_candidates(X, X.lambda_zero())
    assert sorted(X.pic_contains(m)[0] for m in cands) == [-2, 0]


def test_candidate_zero_always_present():
    for name in ["group:A2", "E6/F4", "PGL/PSp(3)"]:
        X = build_case(name)
        lam = pic(X, *([-1] * len(X.pic_basis)))
        assert lam in enumerate_candidates(X, lam)


def test_contributions_p3_positive():
    X = build_case("PSO/PSO(2)")
    conts = contributions(X, pic(X, 2))
    assert [(t.J, X.pic_contains(t.mu)[0], t.length, t.degree) for t in conts] == [
        ((), 0, 0, 0),
        ((), 2, 0, 0),
    ]


def test_contributions_p3_negative():
    X = build_case("PSO/PSO(2)")
    conts = contributions(X, pic(X, -6))
    assert len(conts) == 2
    for t in conts:
        assert t.J == (0,) and t.degree == 3 and t.length == 2
    assert sorted(X.pic_contains(t.mu)[0] for t in conts) == [-4, -2]
    assert sorted(X.pic_contains(t.mu_plus) for t in conts) == [(0,), (2,)]


def test_contributions_singular_lambda_empty():
    X = build_case("flag:A1")
    assert contributions(X, (-1,)) == []


def test_table_flag_borel_weil():
    X = build_case("flag:A1")
    tab = cohomology_table(X, (3,))
    assert tab.nonzero_degrees() == (0,)
    assert tab.dimension(0) == 4
    tab = cohomology_table(X, (-3,))
    assert tab.nonzero_degrees() == (1,)
    assert tab.constituents(1)[0].highest_weight == (1,)


def test_table_p3_dimensions():
    X = build_case("PSO/PSO(2)")
    assert cohomology_table(X, pic(X, 2)).dimension(0) == 10
    assert cohomology_table(X, pic(X, -6)).dimension(3) == 10
    assert cohomology_table(X, pic(X, -2)).groups == ()


def test_e6f4_lambda0_degrees():
    X = build_case("E6/F4")
    degrees = set(cohomology_table(X, X.lambda_zero()).nonzero_degrees())
    assert degrees <= {0, 9, 17, 26}


def test_e6f4_interesting_degrees():
    X = build_case("E6/F4")
    # top degree dual to H^0(lambda*) = L(omega_1 + omega_6) + L(0)
    tab = cohomology_table(X, pic(X, -10, -10))
    assert tab.nonzero_degrees() == (26,)
    assert tab.dimension(26) == 651
    # a middle degree with the trivial and the 27-dimensional module
    assert cohomology_table(X, pic(X, -10, 5)).dimensions_by_degree() == {9: 1}
    assert cohomology_table(X, pic(X, -10, 6)).dimensions_by_degree() == {9: 27}
    # its Serre partner carries the complementary middle degree 17 = 26 - 9
    dual = serre_dual_weight(X, pic(X, -10, 5))
    assert X.pic_contains(dual) == (1, -14)
    assert cohomology_table(X, dual).dimensions_by_degree() == {17: 1}


def test_serre_dual_examples():
    X = build_case("PSO/PSO(2)")
    assert X.pic_contains(serre_dual_weight(X, pic(X, 2))) == (-6,)
    assert X.pic_contains(serre_dual_weight(X, pic(X, -2))) == (-2,)


def test_serre_dual_involution():
    rng = random.Random(5)
    for name in ["PSO/PSO(3)", "group:A2", "E6/F4", "PGL/PSp(2)"]:
        X = build_case(name)
        for _ in range(20):
            coords = tuple(rng.randint(-9, 9) for _ in X.pic_basis)
            lam = X.weight_from_pic_coords(coords)
            assert serre_dual_weight(X, serre_dual_weight(X, lam)) == lam


def test_degree_range_and_multiplicity_bound():
    rng = random.Random(9)
    # the bound is |W| of the acting group: A2 x A2, A3 and B3
    for name, bound in [("group:A2", 36), ("PGL/PSp(2)", 24), ("SO7/G2", 48)]:
        X = build_case(name)
        for _ in range(25):
            coords = tuple(rng.randint(-6, 6) for _ in X.pic_basis)
            tab = cohomology_table(X, X.weight_from_pic_coords(coords))
            for g in tab.groups:
                assert 0 <= g.degree <= X.dimension_N
                for c in g.constituents:
                    assert 1 <= c.multiplicity <= bound
                    assert c.multiplicity == len(c.witnesses)


def test_dominant_vanishing_and_h0_multiplicity():
    rng = random.Random(13)
    for name in ["group:A2", "E6/F4", "Q(3)"]:
        X = build_case(name)
        for _ in range(15):
            coords = tuple(rng.randint(0, 6) for _ in X.pic_basis)
            lam = X.weight_from_pic_coords(coords)
            if not X.group.is_dominant(lam):
                continue
            tab = cohomology_table(X, lam)
            assert all(g.degree == 0 for g in tab.groups)
            for c in tab.constituents(0):
                assert c.multiplicity == 1


def test_ball_enumeration_complete_vs_box_scan():
    # nothing contributes outside the quadratic-form ball: a wide direct
    # box scan must find exactly the same contributions
    rng = random.Random(21)
    for name in ["PSO/PSO(2)", "Q(2)", "group:A1", "group:A2", "PGL/PSp(2)"]:
        X = build_case(name)
        for _ in range(6):
            coords = tuple(rng.randint(-5, 5) for _ in X.pic_basis)
            lam = X.weight_from_pic_coords(coords)
            ball = enumerate_candidates(X, lam)
            radius = 0
            for mu in ball:
                diff = tuple(a - b for a, b in zip(mu, lam))
                cs = sigma_lattice_coords(X, diff)
                radius = max(radius, max((abs(c) for c in cs), default=0))
            box = 2 * radius + 1
            assert contributions(X, lam) == naive_contribution_scan(X, lam, box)


@pytest.mark.parametrize(
    "name, coords, ball, witness_ball, witnesses",
    [
        ("group:A3", (-8, -8, -8), 8128, 1020, 158),
        ("PGL/PSp(4)", (-8, -8, -8), 5089, 682, 49),
        ("E6/F4", (-30, -30), 2455, 613, 242),
    ],
)
def test_anchor_counts(name, coords, ball, witness_ball, witnesses):
    # machine-independent work counts: the |mu + rho| <= |lam + rho| ball,
    # the witness ball that contributions walks, and the witnesses found
    X = build_case(name)
    lam = pic(X, *coords)
    assert len(enumerate_candidates(X, lam)) == ball
    assert len(_ball_coefficients(X, lam, 1)) == witness_ball
    assert len(contributions(X, lam)) == witnesses


def test_serialization_deterministic():
    X = build_case("PSO/PSO(2)")
    lam = pic(X, -6)
    a = table_to_json(X, cohomology_table(X, lam), (-6,))
    b = table_to_json(X, cohomology_table(X, lam), (-6,))
    assert a == b
    assert '"dimension": "10"' in a


@pytest.mark.parametrize("name", ["PSO/PSO(2)", "Q(3)", "group:A2", "PGL/PSp(3)", "E6/F4"])
def test_witness_J_is_the_positive_support(name):
    X = build_case(name)
    for _, lam in pic_box(X, 2):
        for t in contributions(X, lam):
            coords = sigma_lattice_coords(X, [a - b for a, b in zip(t.mu, lam)])
            assert t.J == tuple(i for i, c in enumerate(coords) if c > 0)
            assert omega_signature(X, t.mu) == t.J
