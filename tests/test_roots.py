"""Kernel tests: exact root system arithmetic and chamber walks."""

import itertools
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import build_root_system
from wondercoh.roots import InvariantError
from wondercoh.oracles import weyl_group_bruteforce

from test_helpers import reflect_simple


def test_positive_root_counts():
    assert len(build_root_system([("A", 1)]).positive_roots) == 1
    assert len(build_root_system([("G", 2)]).positive_roots) == 6
    assert len(build_root_system([("B", 3)]).positive_roots) == 9
    assert len(build_root_system([("D", 4)]).positive_roots) == 12
    assert len(build_root_system([("F", 4)]).positive_roots) == 24
    assert len(build_root_system([("E", 6)]).positive_roots) == 36


def test_product_system():
    sys = build_root_system([("A", 1), ("A", 1)])
    assert sys.cartan == ((2, 0), (0, 2))
    assert len(sys.positive_roots) == 2


@pytest.mark.parametrize("bad", [("E", 9), ("A", 0), ("F", 5), ("H", 3), ("G", 3)])
def test_invalid_types_rejected(bad):
    with pytest.raises(ValueError):
        build_root_system([bad])


@pytest.mark.parametrize("family, rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 1), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2),
])
def test_invalid_type_message(family, rank):
    with pytest.raises(ValueError) as info:
        build_root_system([("A", 2), (family, rank)])
    assert str(info.value) == f"invalid Dynkin type {family}{rank}"


def test_pair_coroot_examples():
    a2 = build_root_system([("A", 2)])
    assert a2.pair_coroot((1, 0), (1, 0)) == 1  # <omega_1, alpha_1^vee>
    assert a2.pair_coroot((1, 0), (0, 1)) == 0
    assert a2.pair_coroot(a2.rho(), (1, 1)) == 2  # coroot of the highest root
    a1 = build_root_system([("A", 1)])
    assert a1.pair_coroot((-3,), (1,)) == -3


def test_inner_product_examples():
    a1 = build_root_system([("A", 1)])
    assert a1.inner_product((1,), (1,)) == Fraction(1, 2)
    prod = build_root_system([("A", 1), ("A", 1)])
    # (omega_1 + omega_2, alpha_1 + alpha_2) with orthogonal factors
    alpha_sum = tuple(
        a + b
        for a, b in zip(prod.root_as_weight((1, 0)), prod.root_as_weight((0, 1)))
    )
    assert prod.inner_product((1, 1), alpha_sum) == 2
    a2 = build_root_system([("A", 2)])
    assert a2.inner_product(a2.rho(), (0, 0)) == 0


def test_rho_and_symmetrizer():
    for spec in [[("A", 2)], [("B", 2)], [("G", 2)], [("B", 3)]]:
        sys = build_root_system(spec)
        assert sys.rho() == (1,) * sys.rank
        for i in range(sys.rank):
            simple = tuple(int(j == i) for j in range(sys.rank))
            assert sys.inner_product(sys.rho(), sys.root_as_weight(simple)) \
                == sys.symmetrizer[i]


def test_root_as_weight_examples():
    a1 = build_root_system([("A", 1)])
    assert a1.root_as_weight((1,)) == (2,)
    a2 = build_root_system([("A", 2)])
    assert a2.root_as_weight((1, 0)) == (2, -1)
    assert a2.root_as_weight((1, 1)) == (1, 1)


def test_root_weight_representations_agree():
    b2 = build_root_system([("B", 2)])
    lam = (3, -2)
    for alpha in b2.positive_roots:
        aw = b2.root_as_weight(alpha)
        assert b2.pair_coroot(aw, alpha) == 2
        lhs = b2.inner_product(lam, aw)
        assert b2.pair_coroot(lam, alpha) * b2.inner_product(aw, aw) == 2 * lhs


def test_dominance_and_regularity():
    a1 = build_root_system([("A", 1)])
    assert a1.is_dominant((3,))
    assert 0 in a1.shifted_pairings((-1,))
    a2 = build_root_system([("A", 2)])
    assert 0 not in a2.shifted_pairings((-2, -2))
    assert not a2.is_dominant((-2, -2))


@pytest.mark.parametrize("lam", [(), (1,), (1, 0, 5)])
def test_shifted_pairings_refuse_a_weight_of_the_wrong_length(lam):
    # a short weight used to pair as if padded with zeros, a long one as if cut
    a2 = build_root_system([("A", 2)])
    with pytest.raises(ValueError, match="length"):
        a2.shifted_pairings(lam)


def test_make_dominant_shifted_examples():
    a1 = build_root_system([("A", 1)])
    assert a1.make_dominant_shifted((-3,)) == ((1,), 1, (0,))
    assert a1.make_dominant_shifted((-1,)) is None
    a2 = build_root_system([("A", 2)])
    plus, length, word = a2.make_dominant_shifted((-2, -2))
    assert plus == (0, 0) and length == 3 and len(word) == 3


def test_make_dominant_idempotent():
    a2 = build_root_system([("A", 2)])
    plus, _, _ = a2.make_dominant_shifted((-4, 1))
    assert a2.make_dominant_shifted(plus) == (plus, 0, ())


def test_orbit_property_simple_reflections():
    rng = random.Random(7)
    for spec in [[("A", 2)], [("B", 2)], [("A", 1), ("A", 1)]]:
        sys = build_root_system(spec)
        for _ in range(60):
            lam = tuple(rng.randint(-6, 6) for _ in range(sys.rank))
            made = sys.make_dominant_shifted(lam)
            if made is None:
                continue
            for i in range(sys.rank):
                # s_i * lam = s_i(lam + rho) - rho
                shifted = tuple(x + 1 for x in lam)
                reflected = tuple(x - 1 for x in reflect_simple(sys, i, shifted))
                other = sys.make_dominant_shifted(reflected)
                assert other is not None and other[0] == made[0]


def test_inner_product_weyl_invariance():
    rng = random.Random(11)
    for spec in [[("B", 2)], [("G", 2)], [("A", 2)]]:
        sys = build_root_system(spec)
        for _ in range(40):
            lam = tuple(rng.randint(-5, 5) for _ in range(sys.rank))
            mu = tuple(rng.randint(-5, 5) for _ in range(sys.rank))
            base = sys.inner_product(lam, mu)
            for i in range(sys.rank):
                assert sys.inner_product(
                    reflect_simple(sys, i, lam), reflect_simple(sys, i, mu)
                ) == base


def test_dual_weight_examples():
    a1 = build_root_system([("A", 1)])
    assert a1.dual_weight((3,)) == (3,)
    a2 = build_root_system([("A", 2)])
    assert a2.dual_weight((1, 0)) == (0, 1)
    assert a2.dual_weight((1, 1)) == (1, 1)
    with pytest.raises(ValueError):
        a2.dual_weight((-1, 0))


def test_weyl_dimension_examples():
    a1 = build_root_system([("A", 1)])
    assert a1.weyl_dimension((3,)) == 4
    a2 = build_root_system([("A", 2)])
    assert a2.weyl_dimension((1, 1)) == 8
    assert a2.weyl_dimension((2, 0)) == 6
    b3 = build_root_system([("B", 3)])
    assert b3.weyl_dimension((1, 0, 0)) == 7
    assert b3.weyl_dimension((0, 0, 1)) == 8  # spin representation
    e6 = build_root_system([("E", 6)])
    assert e6.weyl_dimension((1, 0, 0, 0, 0, 0)) == 27
    assert e6.weyl_dimension((1, 0, 0, 0, 0, 1)) == 650


def test_weyl_dimension_dual_invariance():
    rng = random.Random(3)
    a2 = build_root_system([("A", 2)])
    for _ in range(50):
        mu = (rng.randint(0, 6), rng.randint(0, 6))
        assert a2.weyl_dimension(mu) == a2.weyl_dimension(a2.dual_weight(mu))


def test_weyl_orders():
    # the enumerated group has the classical order, up to rank 3
    for spec, order in [
        ([("A", 1)], 2), ([("A", 2)], 6), ([("A", 3)], 24), ([("B", 2)], 8), ([("B", 3)], 48),
        ([("C", 3)], 48), ([("G", 2)], 12), ([("A", 1), ("A", 1)], 4),
        ([("A", 1), ("B", 2)], 16), ([("A", 1), ("A", 1), ("A", 1)], 8),
    ]:
        assert len(weyl_group_bruteforce(build_root_system(spec))) == order


def test_chamber_walk_matches_bruteforce():
    rng = random.Random(42)
    for spec in [[("A", 2)], [("B", 2)], [("A", 1), ("A", 1)], [("G", 2)], [("A", 3)]]:
        sys = build_root_system(spec)
        brute = weyl_group_bruteforce(sys)
        for _ in range(200):
            lam = tuple(rng.randint(-8, 8) for _ in range(sys.rank))
            fast = sys.make_dominant_shifted(lam)
            slow = brute.make_dominant_shifted(lam)
            if fast is None:
                assert slow is None
            else:
                assert slow == (fast[0], fast[1])


@pytest.mark.parametrize("spec", [[("A", 2)], [("B", 2)], [("G", 2)], [("A", 3)]])
def test_walk_takes_one_step_per_negative_pairing(spec):
    g = build_root_system(spec)
    for mu in itertools.product(range(-3, 4), repeat=g.rank):
        v = list(mu)
        word = g._walk(v)
        negative = sum(1 for row in g._coroot_rows if sum(r * x for r, x in zip(row, mu)) < 0)
        assert len(word) == negative
        assert min(v) >= 0
        assert tuple(v) == g.dominant_representative(mu)


def test_walk_longer_than_positive_root_count_raises():
    g = build_root_system([("A", 2)])
    g.positive_roots = g.positive_roots[:2]  # (-1, -1) needs all three steps
    with pytest.raises(InvariantError):
        g.dominant_representative((-1, -1))
    with pytest.raises(InvariantError):
        g.make_dominant_shifted((-2, -2))


def row_form_pairings(g, lam):
    """<lam + rho, alpha^vee> by one dot product per positive root: the row
    form that the column form of `RootSystem.shifted_pairings` replaces."""
    v = [x + 1 for x in lam]
    return tuple(sum(map(mul, row, v)) for row in g._coroot_rows)


@pytest.mark.parametrize(
    "spec", [[("G", 2)], [("F", 4)], [("E", 6)], [("E", 8)], [("A", 2), ("B", 3)]]
)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_shifted_pairings_equal_row_form(spec, data):
    g = build_root_system(spec)
    # zero entries skip their column; large ones leave the machine word
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**30), 10**30))
    lam = data.draw(st.tuples(*(entry for _ in range(g.rank))))
    got = g.shifted_pairings(lam)
    assert type(got) is tuple and got == row_form_pairings(g, lam)
    assert g.shifted_pairings(list(lam)) == got
    zero, minus_rho = (0,) * g.rank, (-1,) * g.rank
    assert g.shifted_pairings(zero) == row_form_pairings(g, zero) == g._rho_pairings
    assert g.shifted_pairings(minus_rho) == (0,) * len(g.positive_roots)
