"""Property tests for the candidate enumerator.

Both balls are checked against direct Fraction box scans of their own
inequality, the candidate list against one `translate` per point of its
ball, the contributions against the witness ball, and the contributions
against the naive box scan of the defining conditions.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh.cohomology import _ball_coefficients, contributions, enumerate_candidates
from test_helpers import (
    NAMES,
    PRODUCT,
    frac_isqrt_floor,
    gram,
    mat_inverse,
    naive_contribution_scan,
    reference_candidates,
    sigma_lattice_coords,
    variety,
)

PROPERTY = settings(max_examples=5, deadline=None, derandomize=True)


def draw_weight(data, X):
    # the naive scan's box grows like |lam + rho|^rank; deep negative weights,
    # where witnesses with J nonempty live, are affordable at low rank only
    lo, hi = {0: (-6, 6), 1: (-10, 4), 2: (-6, 2)}.get(X.rank, (-3, 0))
    coords = data.draw(st.tuples(*(st.integers(lo, hi) for _ in X.pic_basis)))
    return X.weight_from_pic_coords(coords)


def quadric_box_scan(X, lam, k):
    """Integer c with c^T G c + k c^T b <= 0, b_i = (lam + rho, gamma_i),
    by a Fraction scan of a box that holds the k = 2 ball."""
    g = X.group
    shifted = [x + 1 for x in lam]
    b = [g.inner_product(shifted, gam) for gam in X.spherical_roots]
    G = gram(g, X.spherical_roots)
    G_inv = mat_inverse(G)
    r = X.rank
    # Cauchy-Schwarz: |c|_G <= 2 |lam + rho| on the k = 2 ball, which holds
    # the k = 1 ball, and |c_i| <= sqrt((G^-1)_ii) |c|_G
    norm = g.inner_product(shifted, shifted)
    radii = [frac_isqrt_floor(4 * norm * G_inv[i][i]) for i in range(r)]
    found = []
    for c in itertools.product(*(range(-R, R + 1) for R in radii)):
        quad = sum(c[i] * c[j] * G[i][j] for i in range(r) for j in range(r))
        if quad + k * sum(ci * bi for ci, bi in zip(c, b)) <= 0:
            found.append(c)
    return found


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(data=st.data())
def test_balls_equal_box_scan(name, data):
    X = variety(name)
    lam = draw_weight(data, X)
    for k in (1, 2):
        assert _ball_coefficients(X, lam, k) == quadric_box_scan(X, lam, k)


@pytest.mark.parametrize("name", NAMES + ("group:A4", "group:D4", "PGL/PSp(5)", PRODUCT))
@PROPERTY
@given(data=st.data())
def test_candidates_equal_one_translate_per_point(name, data):
    # the walk carries mu down to each line and steps it along c_0; the
    # reference translates every point of the ball from lam, order included
    X = variety(name)
    lam = draw_weight(data, X)
    assert enumerate_candidates(X, lam) == reference_candidates(X, lam)


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(data=st.data())
def test_contributions_in_witness_ball(name, data):
    X = variety(name)
    g = X.group
    lam = draw_weight(data, X)
    ball = set(_ball_coefficients(X, lam, 1))
    for t in contributions(X, lam):
        diff = tuple(a - b for a, b in zip(t.mu, lam))
        c = sigma_lattice_coords(X, diff)
        assert c in ball
        assert g.inner_product([x + 1 for x in t.mu], diff) <= 0


@pytest.mark.parametrize("name", NAMES)
@PROPERTY
@given(data=st.data())
def test_contributions_equal_naive_scan(name, data):
    X = variety(name)
    lam = draw_weight(data, X)
    box = 0
    for mu in enumerate_candidates(X, lam):
        diff = tuple(a - b for a, b in zip(mu, lam))
        box = max([box, *map(abs, sigma_lattice_coords(X, diff))])
    assert contributions(X, lam) == naive_contribution_scan(X, lam, box)
