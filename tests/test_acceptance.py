"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value here is exact; there are no tolerances to
tune.
"""

import itertools
import random
import time

from wondercoh import build_case
from wondercoh.cohomology import cohomology_table, contributions
from wondercoh.degrees import rule_for
from wondercoh.oracles import (
    brion_h0,
    bwb_direct,
    projective_space_cohomology,
    serre_involution_check,
    vanishing_profile,
    weyl_group_bruteforce,
)
from wondercoh.regions import region_plot
from wondercoh.roots import build_root_system
from wondercoh.varieties import CATALOG_NAMES

from test_helpers import sgamma_shifted


def report(num, text):
    print(f"ACCEPTANCE {num:>2} PASS: {text}")


def box_weights(X, box):
    axes = [range(-box, box + 1)] * len(X.pic_basis)
    for coords in itertools.product(*axes):
        yield coords, X.weight_from_pic_coords(coords)


def test_criterion_01_borel_weil_bott_equivalence():
    start = time.monotonic()
    for name in ["flag:A1", "flag:A2", "flag:B2", "flag:A1xA1"]:
        X = build_case(name)
        for _, lam in box_weights(X, 6):
            assert cohomology_table(X, lam) == bwb_direct(X, lam), (name, lam)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(1, f"engine equals Borel-Weil-Bott on flag varieties ({elapsed:.2f}s)")


def test_criterion_02_projective_space_dimensions():
    start = time.monotonic()
    for name, m in [("PSO/PSO(2)", 3), ("PSO/PSO(3)", 5)]:
        X = build_case(name)
        for k in range(-12, 13):
            lam = X.weight_from_pic_coords((k,))
            got = cohomology_table(X, lam).dimensions_by_degree()
            assert got == projective_space_cohomology(m, k), (name, k, got)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    report(2, f"P^3 and P^5 dimensions match the closed forms ({elapsed:.2f}s)")


def test_criterion_03_vanishing_tables():
    start = time.monotonic()
    for name, box in [("group:A1", 5), ("group:A2", 5)]:
        X = build_case(name)
        realized = vanishing_profile(X, box)
        n = X.dimension_N
        banned = {d for d in range(n + 1) if d in {1, 2, 4} or n - d in {1, 2, 4}}
        assert not realized & banned, (name, sorted(realized))

    realized = vanishing_profile(build_case("E6/F4"), 8)
    assert realized <= {0, 9, 17, 26}, sorted(realized)

    X = build_case("PGL/PSp(3)")
    realized = vanishing_profile(X, 6)
    n = X.dimension_N
    banned = {
        d
        for d in range(n + 1)
        if d in {1, 2, 3, 4, 6, 7, 8} or n - d in {1, 2, 3, 4, 6, 7, 8}
    }
    assert not realized & banned, sorted(realized)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(3, f"vanishing tables hold over the test boxes ({elapsed:.2f}s)")


def test_criterion_04_lambda_zero_fixtures():
    fixtures = {
        "PSO/PSO(2)": (-2,),
        "PSO/PSO(3)": (-3,),
        "PSO/PSO(4)": (-4,),
        "SO7/G2": (-4,),
        "group:A2": (-2, -2),
        "PGL/PSp(3)": (-3, -3),
        "E6/F4": (-5, -5),
    }
    for name, coords in fixtures.items():
        assert build_case(name).lambda_zero_coords() == coords, name
    report(4, "lambda_0 values match the printed list")


def test_criterion_05_dimension_fixtures():
    fixtures = {
        "group:A1": 3,
        "group:A2": 8,
        "PGL/PSp(2)": 5,
        "PGL/PSp(3)": 14,
        "PSO/PSO(2)": 3,
        "PSO/PSO(3)": 5,
        "PSO/PSO(4)": 7,
        "E6/F4": 26,
    }
    for name, n in fixtures.items():
        assert build_case(name).dimension_N == n, name
    report(5, "dimensions N match dim K, 2n^2-n-1, 2n-1 and 26")


def test_criterion_06_h0_law():
    for name in CATALOG_NAMES:
        X = build_case(name)
        for coords, lam in box_weights(X, 5):
            table = cohomology_table(X, lam)
            got = sorted(c.highest_weight for c in table.constituents(0))
            assert got == brion_h0(X, lam), (name, coords)
            assert all(c.multiplicity == 1 for c in table.constituents(0))
            if X.group.is_dominant(lam):
                assert table.nonzero_degrees() in ((), (0,)), (name, coords)
    report(6, "degree zero equals the dominant-cone scan on every entry")


def test_criterion_07_serre_involution():
    rng = random.Random(2024)
    for name in CATALOG_NAMES:
        X = build_case(name)
        for _ in range(200):
            coords = tuple(rng.randint(-8, 8) for _ in X.pic_basis)
            lam = X.weight_from_pic_coords(coords)
            res = serre_involution_check(X, lam)
            assert res, (name, coords, res.detail)
    report(7, "Serre witness bijection holds for 200 random weights per entry")


def test_criterion_08_length_gap():
    rng = random.Random(99)
    rank_one = [
        "PSO/PSO(2)", "PSO/PSO(3)", "PSO/PSO(4)", "Q(2)", "Q(3)",
        "SO7/G2", "Q7", "group:A1", "PGL/PSp(2)",
    ]
    for name in rank_one:
        X = build_case(name)
        assert X.rank == 1 and X.sgamma_data is not None
        checked = 0
        while checked < 500:
            coords = (rng.randint(-25, 25),)
            lam = X.weight_from_pic_coords(coords)
            made = X.group.make_dominant_shifted(lam)
            if made is None:
                continue
            moved = sgamma_shifted(X, 0, lam)
            other = X.group.make_dominant_shifted(moved)
            assert other is not None
            assert abs(made[1] - other[1]) >= 2, (name, coords)
            checked += 1
    # the reflection moves rho by the tabulated multiple of gamma
    fixtures = {
        "PSO/PSO(2)": -1, "PSO/PSO(3)": -2, "PSO/PSO(4)": -3,
        "Q(2)": -2, "Q(3)": -4, "SO7/G2": -3, "Q7": -6,
    }
    for name, mult in fixtures.items():
        X = build_case(name)
        zero = (0,) * X.group.rank
        moved = sgamma_shifted(X, 0, zero)
        assert moved == tuple(mult * x for x in X.spherical_roots[0]), name
    report(8, "spherical reflections jump the length by at least 2")


def test_criterion_09_divisibility():
    cases = [
        ("group:A1", 5, 2),
        ("group:A2", 5, 2),
        ("PGL/PSp(2)", 6, 4),
        ("PGL/PSp(3)", 6, 4),
        ("E6/F4", 8, 8),
        ("PSO/PSO(2)", 6, 2),
        ("PSO/PSO(3)", 6, 4),
        ("PSO/PSO(4)", 6, 6),
    ]
    for name, box, modulus in cases:
        X = build_case(name)
        rule = rule_for(X)
        assert rule is not None and rule.modulus == modulus
        for coords, lam in box_weights(X, box):
            for t in contributions(X, lam):
                assert t.length % modulus == 0, (name, coords, t.length)
    report(9, "witness lengths honour the per-family modulus")


def test_criterion_10_kernel_oracle_and_multiplicities():
    rng = random.Random(7_000)
    systems = [
        [("A", 1)], [("A", 1), ("A", 1)], [("A", 2)], [("B", 2)],
        [("G", 2)], [("A", 3)], [("B", 3)],
    ]
    for spec in systems:
        system = build_root_system(spec)
        brute = weyl_group_bruteforce(system)
        for _ in range(1000):
            lam = tuple(rng.randint(-10, 10) for _ in range(system.rank))
            fast = system.make_dominant_shifted(lam)
            slow = brute.make_dominant_shifted(lam)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert slow == (fast[0], fast[1])
    # the bound is |W| of the acting group: A2 x A2, B3 and A3
    for name, bound in [("group:A2", 36), ("SO7/G2", 48), ("PGL/PSp(2)", 24)]:
        X = build_case(name)
        for _, lam in box_weights(X, 4):
            for g in cohomology_table(X, lam).groups:
                for c in g.constituents:
                    assert c.multiplicity <= bound
    report(10, "chamber walk equals brute force; multiplicities below |W|")


def test_criterion_11_region_classification():
    for name in ["PSO/PSO(3)", "SO7/G2", "group:A2", "PGL/PSp(3)", "E6/F4"]:
        X = build_case(name)
        plot = region_plot(X, "Omega", -5, 5)
        for coords, mask in plot.points:
            expected = sum(1 << i for i, n in enumerate(coords) if n <= 0)
            assert mask == expected, (name, coords, mask)
    report(11, "Omega sidecars reproduce J = {gamma_i : n_i <= 0} pointwise")
