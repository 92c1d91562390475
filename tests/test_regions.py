"""Region classification and figure emission."""

import functools
import itertools
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wondercoh import WonderfulVariety, build_case
from wondercoh.cohomology import omega_signature
from wondercoh.regions import _MARKERS_RANK1, _MARKERS_RANK2, MAX_POINTS, _markers, region_plot
from wondercoh.varieties import variety_from_dict

from test_exact_forms import count_fractions
from test_helpers import NAMES, draw_weight, in_translated_R, inline_translate

FIGURE_CASES = ["PSO/PSO(3)", "SO7/G2", "group:A2", "PGL/PSp(3)", "E6/F4"]
PLOTTED = [name for name in NAMES if build_case(name).rank in (1, 2)]


def test_omega_classification_rule():
    # around lambda_0 the subset J is read off the coordinate signs:
    # J = {gamma_i : n_i <= 0}
    for name in FIGURE_CASES:
        X = build_case(name)
        plot = region_plot(X, "Omega", -3, 3)
        for coords, mask in plot.points:
            expected = sum(1 << i for i, n in enumerate(coords) if n <= 0)
            assert mask == expected, (name, coords)


def test_r_classification():
    X = build_case("PSO/PSO(3)")
    plot = region_plot(X, "R", -3, 3, base=X.weight_from_pic_coords((2,)))
    by_coords = dict(plot.points)
    assert by_coords[(0,)] == 0  # zero coefficient lies in R_empty
    assert by_coords[(1,)] == 1
    assert by_coords[(-2,)] == 0


def test_r_classification_matches_engine_membership():
    X = build_case("group:A2")
    base = X.weight_from_pic_coords((1, -2))
    plot = region_plot(X, "R", -3, 3, base=base)
    for coords, mask in plot.points:
        mu = list(base)
        for n, gam in zip(coords, X.spherical_roots):
            for k, x in enumerate(gam):
                mu[k] += n * x
        J = tuple(i for i in range(X.rank) if mask >> i & 1)
        assert in_translated_R(X, base, tuple(mu), J)
        # and in no other sign cone
        others = [
            tuple(i for i in range(X.rank) if other >> i & 1)
            for other in range(4)
            if other != mask
        ]
        assert not any(in_translated_R(X, base, tuple(mu), J2) for J2 in others)


def test_sidecar_format():
    X = build_case("group:A2")
    plot = region_plot(X, "Omega", -1, 1)
    lines = plot.sidecar().strip().split("\n")
    assert len(lines) == 9
    assert lines[0].split() == ["-1", "-1", "3"]


def test_svg_deterministic_and_marker_classes():
    X = build_case("PGL/PSp(3)")
    a = region_plot(X, "Omega", -2, 2)
    b = region_plot(X, "Omega", -2, 2)
    assert a.svg() == b.svg()
    svg = a.svg()
    for mask in (0, 1, 2, 3):
        assert f'id="J-{mask}"' in svg


def test_region_plot_rank_guard():
    with pytest.raises(ValueError):
        region_plot(build_case("flag:A2"), "Omega", -2, 2)


def test_rank_one_omega_rule():
    X = build_case("PSO/PSO(4)")
    plot = region_plot(X, "Omega", -5, 5)
    for (n,), mask in plot.points:
        assert mask == (1 if n <= 0 else 0)


FIGURES = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "figures")
FIGURE_STEMS = {
    "PSO/PSO(3)": "pso_pso_3",
    "SO7/G2": "so7_g2",
    "group:A2": "pgl3_pgl3",
    "PGL/PSp(3)": "pgl6_psp6",
    "E6/F4": "e6_f4",
}


@pytest.mark.parametrize("name", FIGURE_CASES)
@pytest.mark.parametrize("kind", ["Omega", "R"])
def test_demo_figures_are_golden(name, kind):
    # demos/04_region_figures.py writes these; regenerate them in memory
    plot = region_plot(build_case(name), kind, -4, 4)
    stem = os.path.join(FIGURES, f"{FIGURE_STEMS[name]}_{kind.lower()}")
    for text, suffix in ((plot.svg(), ".svg"), (plot.sidecar(), ".cls")):
        with open(stem + suffix, "rb") as fh:
            assert fh.read() == text.encode(), stem + suffix


def reference_omega_mask(X, mu):
    """J bitmask of mu from the Fraction pairings (mu + rho, gamma_i) < 0."""
    shifted = [x + 1 for x in mu]
    return sum(
        1 << i
        for i, gam in enumerate(X.spherical_roots)
        if X.group.inner_product(shifted, gam) < 0
    )


def reference_sidecar(plot):
    """The sidecar written point by point, one str.format field per value."""
    line = " ".join(["{}"] * (len(plot.points[0][0]) + 1)) + "\n"
    fields = itertools.chain.from_iterable([(*c, mask) for c, mask in plot.points])
    return (line * len(plot.points)).format(*fields)


def reference_svg(plot):
    """The SVG with its marker centres grouped point by point; the marker
    shapes are the library's own `_markers`."""
    n_min, n_max = plot.n_range
    span = n_max - n_min
    cell = 24
    pad = 30
    size = span * cell + 2 * pad
    rank = len(plot.points[0][0])
    height = size if rank == 2 else 2 * pad
    markers = _MARKERS_RANK2 if rank == 2 else _MARKERS_RANK1
    x0 = pad - n_min * cell
    y0, dy = (pad + n_max * cell, cell) if rank == 2 else (pad, 0)
    by_mask = {}
    for coords, mask in plot.points:
        by_mask.setdefault(mask, []).append((x0 + coords[0] * cell, y0 - coords[-1] * dy))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {height}">',
        f"<!-- {plot.kind} regions for {plot.variety}, "
        f"grid [{n_min}, {n_max}], base {list(plot.base)} -->",
    ]
    for mask in sorted(by_mask):
        shape = markers.get(mask, "dot")
        parts.append(f'<g id="J-{mask}" class="{shape}">')
        parts += _markers(shape, by_mask[mask])
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def check_grid(X, n_min, n_max, base):
    """Both kinds of plot on [n_min, n_max]^r against their rules, and
    their figures against the point-by-point writers."""
    grid = list(itertools.product(range(n_min, n_max + 1), repeat=X.rank))
    omega = region_plot(X, "Omega", n_min, n_max, base)
    start = X.lambda_zero() if base is None else base
    expected = [(c, reference_omega_mask(X, inline_translate(start, c, X.pic_basis))) for c in grid]
    assert list(omega.points) == expected
    r = region_plot(X, "R", n_min, n_max, base)
    assert list(r.points) == [(c, sum(1 << i for i, n in enumerate(c) if n >= 1)) for c in grid]
    for plot in (omega, r):
        text = plot.sidecar()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert len(lines) == len(grid)
        assert lines == [" ".join(map(str, (*c, mask))) for c, mask in plot.points]
        assert text == reference_sidecar(plot)
        assert plot.svg() == reference_svg(plot)


@functools.cache
def sheared(name):
    """`name` with pic basis (-p_0) in rank 1 or (p_0, p_1 - p_0) in rank 2,
    unvalidated: the same lattice, but (pic_{r-1}, gamma_0) < 0, so the
    pairings fall along each grid line."""
    X = build_case(name)
    pic = [tuple(-x for x in X.pic_basis[0])]
    if X.rank == 2:
        pic = [X.pic_basis[0], tuple(a - b for a, b in zip(X.pic_basis[1], X.pic_basis[0]))]
    return WonderfulVariety(f"{name} sheared", X.group, X.spherical_roots, pic, X.q_simple_roots)


@pytest.mark.parametrize("name", PLOTTED)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_grid_classes_equal_fraction_pairings(name, data):
    n_min = data.draw(st.integers(-10, 4), label="n_min")
    n_max = n_min + data.draw(st.integers(0, 5), label="width")
    shear = data.draw(st.booleans(), label="sheared")
    X = sheared(name) if shear else build_case(name)
    base = None
    # a sheared basis has no lambda_0: its pairing matrix is not diagonal
    if shear or data.draw(st.booleans(), label="own base"):
        _, base = draw_weight(data, X, -6, 6)
    check_grid(X, n_min, n_max, base)


@pytest.mark.parametrize("name", PLOTTED)
def test_single_point_grids(name):
    X = build_case(name)
    for n in (-9, 0, 3):
        check_grid(X, n, n, None)
        check_grid(X, n, n, X.weight_from_pic_coords((2,) * len(X.pic_basis)))


def test_unknown_kind_is_refused():
    X = build_case("group:A2")
    for base in (None, X.lambda_zero()):
        with pytest.raises(ValueError, match="unknown region kind 'omega'"):
            region_plot(X, "omega", -1, 1, base)


@pytest.mark.parametrize("name", ["group:A1", "PSO/PSO(3)", "group:A2", "E6/F4"])
def test_default_omega_plot_builds_no_fraction(monkeypatch, name):
    X = build_case(name)
    made = count_fractions(monkeypatch)
    plot = region_plot(X, "Omega", -8, 8)
    plot.svg()
    plot.sidecar()
    assert made == []


#: PSO/PSO(3) with a pic basis of two weights for its one spherical root,
#: which `validate` accepts; the grid steps along pic_0 alone
LONG_PIC = {
    "name": "PSO/PSO(3), Q = B",
    "group": [["D", 3]],
    "spherical_roots": [[2, 0, 0]],
    "q_simple_roots": [],
    "sgamma": [[[1, 1, 0], [1, 0, 1]]],
}


@pytest.mark.parametrize(
    "pic, n_range", [([[1, 1, 1], [0, 1, 1]], (-3, 3)), ([[1, 0, 0], [1, 1, 1]], (-6, 6))]
)
def test_omega_plot_of_a_longer_pic_basis_equals_the_signature(pic, n_range):
    X = variety_from_dict({**LONG_PIC, "pic_basis": pic})
    for coords in ((0, 0), (1, -2), (-3, 2)):
        base = X.weight_from_pic_coords(coords)
        plot = region_plot(X, "Omega", *n_range, base)
        for (n,), mask in plot.points:
            mu = inline_translate(base, (n,), X.pic_basis)
            assert mask == sum(1 << i for i in omega_signature(X, mu)), (coords, n)


def test_r_plot_checks_its_base():
    X = build_case("group:A2")
    for base, message in (
        ((1, 2, 3), "weight has length 3"),
        (("a", None), "invalid literal"),
        ((1, 2, 3, 4), r"\[1, 2, 3, 4\] is not in pic\(group:A2\)"),
    ):
        with pytest.raises(ValueError, match=message):
            region_plot(X, "R", 0, 1, base=base)
    # a base in pic(X) is drawn as given, and the default stays 0
    assert region_plot(X, "R", 0, 1, base=[1, 0, 0, 1]).base == (1, 0, 0, 1)
    assert region_plot(X, "R", 0, 1).base == (0, 0, 0, 0)


@pytest.mark.parametrize("name, n_range, points", [
    ("group:A2", (-10**5, 10**5), 40000400001),
    ("PSO/PSO(3)", (0, MAX_POINTS), MAX_POINTS + 1),
])
@pytest.mark.parametrize("kind", ["Omega", "R"])
def test_an_oversized_grid_is_refused_before_any_work(name, n_range, points, kind):
    X = build_case(name)
    message = f"a grid of {points} points exceeds the region plot limit of {MAX_POINTS}"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        region_plot(X, kind, *n_range)
    assert time.perf_counter() - start < 0.5
