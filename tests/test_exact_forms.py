"""Exact forms scaled to integers once per root system or variety: the
inner product against its Fraction reference, and no Fraction built while
a weight is evaluated."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import build_case
from wondercoh import cohomology

from test_helpers import NAMES, dot, frac_matrix, mat_inverse, mat_vec


def reference_inner_product(g, lam, mu):
    """(lam, mu) = lam . F mu with (omega_i, omega_j) = F_ij = d_i (A^-1)_ij,
    from the Cartan matrix A and the symmetrizer d by the Fraction inverse."""
    inverse = mat_inverse(frac_matrix(g.cartan))
    form = [[d * x for x in row] for d, row in zip(g.symmetrizer, inverse)]
    return dot(lam, mat_vec(form, mu))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_inner_product_equals_fraction_reference(name, data):
    g = build_case(name).group
    weight = st.tuples(*(st.integers(-40, 40) for _ in range(g.rank)))
    lam, mu = data.draw(weight), data.draw(weight)
    value = g.inner_product(lam, mu)
    assert type(value) is Fraction
    assert value == reference_inner_product(g, lam, mu)


def count_fractions(monkeypatch):
    """Record every Fraction construction until the monkeypatch is undone.

    Up to Python 3.11 Fraction arithmetic builds its results through
    __new__ as well; from 3.12 it uses _from_coprime_ints, wrapped too.
    """
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if "_from_coprime_ints" in vars(Fraction):
        coprime = Fraction._from_coprime_ints

        def counted_coprime(cls, numerator, denominator):
            made.append((numerator, denominator))
            return coprime(numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return made


@pytest.mark.parametrize("name", NAMES)
def test_no_fraction_work_per_weight(monkeypatch, name):
    X = build_case(name)
    r = len(X.pic_basis)
    coords = [(-3,) * r, (1,) * r, tuple((-1) ** i * (i + 2) for i in range(r))]
    weights = [X.weight_from_pic_coords(c) for c in coords]
    made = count_fractions(monkeypatch)
    for lam in weights:
        for k in (1, 2):
            assert cohomology._ball_coefficients(X, lam, k)
        cohomology.contributions(X, lam)
        assert cohomology.enumerate_candidates(X, lam)
    assert made == []
