"""The line cut of `contributions` against the per-point filter it replaces.

`contributions` walks the witness ball line by line along c_0, cuts each
line to the run of c_0 that keeps the sign pattern and steps through the
run by fixed rows.  The reference below is the loop it replaces: every
point of the witness ball, the sign pattern, the singular skip and a
fresh chamber walk per point.
"""

import os
import subprocess
import sys
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wondercoh
from wondercoh import build_case
from wondercoh import cohomology, oracles
from wondercoh.cli import main
from wondercoh.cohomology import (
    Contribution,
    _ball_coefficients,
    _class_pairings,
    _sign_runs,
    _walk,
    contributions,
)
from wondercoh.exactalg import negative_interval
from wondercoh.roots import InvariantError

from test_helpers import NAMES, draw_weight, inline_translate


def per_point_contributions(X, lam):
    """Every point of the witness ball through the sign pattern, the
    singular skip and its own chamber walk, in canonical order."""
    g = X.group
    out = []
    for c in _ball_coefficients(X, lam, 1):
        mu = inline_translate(lam, c, X.spherical_roots)
        if any((s < 0) != (ci > 0) for s, ci in zip(X.sign_pairings(mu), c)):
            continue
        made = g.make_dominant_shifted(mu)
        if made is None:
            continue  # mu + rho singular
        mu_plus, length, _ = made
        J = tuple(i for i, ci in enumerate(c) if ci > 0)
        out.append(
            Contribution(J, mu, length, mu_plus, length + len(J), g.weyl_dimension(mu_plus))
        )
    out.sort(key=lambda t: (t.degree, t.mu))
    return out


#: deepest Picard coordinate per rank: the reference visits every ball
#: point, about |lam + rho|^rank of them, so the depth falls with the rank
DEPTH = {1: -60, 2: -30}


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_deep_weights_equal_per_point_filter(name, data):
    X = build_case(name)
    _, lam = draw_weight(data, X, DEPTH.get(X.rank, -8), 4)
    assert contributions(X, lam) == per_point_contributions(X, lam)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_cut_line_equals_pointwise_signs(data):
    # level 0 of the descent cuts the line c = (c_0, *rest) by every sign
    # row; the catalog's Gram rows are never positive off the diagonal, so
    # small integers stand in for a line with every sign of G_0i
    r = data.draw(st.integers(1, 4))
    row = [data.draw(st.integers(1, 6))] + [data.draw(st.integers(-4, 4)) for _ in range(r - 1)]
    # s_i = a_i + c_0 row_i changes sign near c_0 = z, and is 0 there when e = 0
    a = tuple(-data.draw(st.integers(-10, 10)) * g + data.draw(st.integers(-2, 2)) for g in row)
    rest = tuple(data.draw(st.integers(-2, 2)) for _ in range(r - 1))
    centre, s = data.draw(st.integers(-8, 6)), data.draw(st.integers(0, 8))
    # q_0 = e_0 = 1, a zero A row and base_0 = -centre bound c_0 by
    # (c_0 - centre)^2 <= s^2, the window [centre - s, centre + s]
    lines = []
    walk = (lines, [0, *rest], [-centre], [1], [(0,) * r], [1], [row], [tuple(range(r))])
    cohomology._descend(walk, 0, s * s, a)
    kept = [
        c0
        for c0 in range(centre - s, centre + s + 1)
        if all((ai + c0 * gi < 0) == (ci > 0) for ai, gi, ci in zip(a, row, (c0, *rest)))
    ]
    if not kept:
        assert lines == []
    else:
        v = tuple(ai + kept[0] * gi for ai, gi in zip(a, row))
        assert lines == [((kept[0], *rest), len(kept), v)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    d=st.integers(-5, 5),
    z=st.integers(-12, 12),
    e=st.just(0) | st.integers(-4, 4),
    lo=st.integers(-10, 10),
    width=st.integers(-3, 16),
)
@example(d=3, z=2, e=0, lo=-4, width=10)  # x + t d is 0 at t = 2
@example(d=-3, z=2, e=0, lo=-4, width=10)
@example(d=0, z=0, e=0, lo=-4, width=10)  # 0 everywhere: never negative
@example(d=0, z=0, e=-1, lo=-4, width=10)  # negative everywhere
@example(d=2, z=0, e=-1, lo=3, width=-1)  # [lo, hi] empty
def test_negative_interval_equals_pointwise_filter(d, z, e, lo, width):
    # x + t d changes sign near t = z, and is 0 there when e = 0
    x = -z * d + e
    hi = lo + width
    start, end = negative_interval(x, d, lo, hi)
    assert list(range(start, end + 1)) == [t for t in range(lo, hi + 1) if x + t * d < 0]
    # the complement x + t d >= 0 is the same call on (-x - 1, -d)
    start, end = negative_interval(-x - 1, -d, lo, hi)
    assert list(range(start, end + 1)) == [t for t in range(lo, hi + 1) if x + t * d >= 0]


@pytest.mark.parametrize("name", [n for n in NAMES if build_case(n).rank == 0])
def test_rank_zero_is_one_point_run(name):
    # no spherical roots: the sign cone is the one point c = ()
    X = build_case(name)
    for coords in [(0,) * len(X.pic_basis), (-3,) * len(X.pic_basis)]:
        lam = X.weight_from_pic_coords(coords)
        base_pair = _class_pairings(X, lam)
        assert list(_sign_runs(X, lam)) == [((), 1, [], base_pair, lam)]
        # the walk's one line, of one point, for either ball
        start = (*base_pair, *lam)
        sig = X.sign_pairings(lam)
        for k in (1, 2):
            assert cohomology._ball_lines(X, sig, k, start) == [((), 1, start)]
        assert oracles.capped_candidate_count(X, coords, lam) == 1


def zero_endpoints(X, lam):
    """(c, i, J) for each end c of a run at which s_i = 0: a cut endpoint
    that is an exact division."""
    found = []
    row = _walk(X)[0][0][:X.rank]
    for c, n, sig, _, _ in _sign_runs(X, lam):
        J = tuple(i for i, ci in enumerate(c) if ci > 0)
        for end in {0, n - 1}:
            s = [x + end * y for x, y in zip(sig, row)]
            found += [((c[0] + end, *c[1:]), i, J) for i, si in enumerate(s) if si == 0]
    return found


@pytest.mark.parametrize(
    "name, coords, zero_at",
    [
        ("PSO/PSO(2)", (1,), {0}),
        ("Q7", (-2,), {0}),
        ("group:A2", (-8, 2), {1}),
        ("E6/F4", (-7, 2), {0, 1}),
        ("group:A3", (-4, -1, 1), {1, 2}),
        ("PGL/PSp(4)", (-4, -1, 2), {0, 1, 2}),
    ],
)
def test_exact_division_endpoints(name, coords, zero_at):
    # found by scanning Picard boxes for runs that end where some s_i = 0
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    ends = zero_endpoints(X, lam)
    assert {i for _, i, _ in ends} == zero_at
    for c, i, J in ends:
        assert i not in J and c[i] <= 0  # a zero pairing keeps i out of J
    assert contributions(X, lam) == per_point_contributions(X, lam)


def keys_along_runs(X, lam):
    """Per run, the inversion key of each point, None where mu + rho is
    singular."""
    row = _walk(X)[2][1]
    runs = []
    for _, n, _, pair, _ in _sign_runs(X, lam):
        points = ([p + step * y for p, y in zip(pair, row)] for step in range(n))
        runs.append([None if 0 in p else tuple(x < 0 for x in p) for p in points])
    return runs


@pytest.mark.parametrize(
    "name, coords",
    [("group:A2", (-8, 4)), ("group:G2", (-8, 4)), ("group:A3", (-8, -7, 4))],
)
def test_singular_point_mid_run(name, coords):
    # mu^+ is stepped by w(gamma_0) while the key holds; across a singular
    # point the key changes, and stepping on would keep a stale w
    X = build_case(name)
    lam = X.weight_from_pic_coords(coords)
    crossings = [
        (keys[i - 1], keys[i + 1])
        for keys in keys_along_runs(X, lam)
        for i in range(1, len(keys) - 1)
        if keys[i] is None and None not in (keys[i - 1], keys[i + 1])
    ]
    assert crossings and all(before != after for before, after in crossings)
    assert contributions(X, lam) == per_point_contributions(X, lam)


def widened(ball_lines, side):
    """`_ball_lines` with one point too many at the `side` end of every
    line it returns (0: below, 1: above), its carried state moved with it."""

    def patched(X, *args):
        lines = ball_lines(X, *args)
        if side == 1:
            return [(c, n + 1, v) for c, n, v in lines]
        step = _walk(X)[0][0]
        return [
            ((c0 - 1, *rest), n + 1, tuple(map(sub, v, step))) for (c0, *rest), n, v in lines
        ]

    return patched


@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("name, coords", [("PSO/PSO(2)", (-6,)), ("E6/F4", (-7, 2))])
def test_sign_recheck_catches_a_wide_cut(capsys, monkeypatch, side, name, coords):
    monkeypatch.setattr(cohomology, "_ball_lines", widened(cohomology._ball_lines, side))
    X = build_case(name)
    with pytest.raises(InvariantError, match="sign pattern"):
        contributions(X, X.weight_from_pic_coords(coords))
    assert main(["cohomology", name, "--lambda", *map(str, coords)]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "sign pattern" in out.err


def test_sign_recheck_catches_a_run_across_zero(monkeypatch):
    # a run [m, 0] let on to c_0 = 1: that point breaks the c_0 rule, which a
    # check against the J of the run's first point alone would miss
    ball_lines = cohomology._ball_lines

    def across_zero(*args):
        return [(c, n + 1 if c[0] + n == 1 else n, v) for c, n, v in ball_lines(*args)]

    monkeypatch.setattr(cohomology, "_ball_lines", across_zero)
    X = build_case("PSO/PSO(2)")
    with pytest.raises(InvariantError, match="sign pattern"):
        contributions(X, X.weight_from_pic_coords((4,)))  # its one run is [-2, 0]


def test_sign_recheck_fires_under_optimize():
    # `assert` statements vanish under -O; the sign recheck must not
    script = "\n".join([
        "import sys",
        "from wondercoh import cohomology",
        "from wondercoh.cli import main",
        "from tests.test_line_cut import widened",
        "print(sys.flags.optimize)",
        "cohomology._ball_lines = widened(cohomology._ball_lines, 1)",
        "sys.exit(main(['cohomology', 'PSO/PSO(2)', '--lambda', '-6']))",
    ])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(wondercoh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, root, os.path.join(root, "tests")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, cwd=root, timeout=60,
    )
    assert proc.stdout == "1\n"
    assert proc.returncode == 3, proc.stderr
    assert "sign pattern" in proc.stderr
