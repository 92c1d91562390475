"""Region classification and figure emission."""

import os

import pytest

from wondercoh import build_case
from wondercoh.regions import region_plot

FIGURE_CASES = ["PSO/PSO(3)", "SO7/G2", "group:A2", "PGL/PSp(3)", "E6/F4"]


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
    from wondercoh.cohomology import in_translated_R

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
