"""Weight-region figures: Omega and R classifications on the pic lattice.

The drawing is plain SVG written by hand so output is byte-stable; the
classification that matters for testing goes to a machine-readable
sidecar, one line per lattice point: the grid coordinates followed by the
subset J encoded as a bitmask.

The Omega class of grid point n is the set of i with
(base + sum_j n_j pic_j + rho, gamma_i) < 0.  Scaled by the common
denominator D of the integer sign rows, these pairings are
s + sum_j n_j P_j, with s = D (base + rho, gamma_.) and the integer step
rows P_j = D (pic_j, gamma_.): s is taken once per plot, and the P_j
are the pic sign rows the descriptor takes once at build.  Along a grid
line only the last coordinate moves, by the fixed row P_{r-1}, so each
pairing is affine on the line and is negative on a prefix or a suffix of
it; one `exactalg.negative_interval` call per pairing and line finds
that interval, and one slice assignment ORs the pairing's bit into it.
In rank 2 each line starts where the previous one started, moved by the
row P_0, so no weight or pairing is computed per point.  The R class of
n is {i : n_i >= 1}, the negative set of the pairings -n_i, so the same
fill draws it, from -n_min in every coordinate by the steps -e_j.  The
sidecar is one `%` over a flat tuple of every point's fields, and each
SVG marker shape is one f-string applied to the pixel centres of its
group.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from operator import add, or_
from typing import NamedTuple, Optional, Sequence

from .exactalg import negative_interval, translate
from .roots import Weight
from .varieties import WonderfulVariety

#: marker styles per J bitmask in rank 2 (matches the figure legend:
#: filled dot for the full set, open circle for the empty set, plus and
#: small dot for the two singletons)
_MARKERS_RANK2 = {0b11: "dot", 0b00: "circle", 0b01: "plus", 0b10: "tick"}
_MARKERS_RANK1 = {0b1: "dot", 0b0: "circle"}

#: the most grid points `region_plot` draws.  Time and memory grow linearly
#: with the point count: through the CLI, an Omega plot of 250,000 points
#: took 0.56-0.97 s and 137-139 MiB at peak in rank 1 and 2 (Python 3.11.7,
#: shared 2-vCPU host)
MAX_POINTS = 250_000


class RegionPlot(NamedTuple):
    variety: str
    kind: str  # "Omega" | "R"
    base: Weight
    n_range: tuple[int, int]
    points: tuple[tuple[tuple[int, ...], int], ...]  # (grid coords, J bitmask)

    def sidecar(self) -> str:
        # %s prints each field as str(), and the (mask,) rows of zip
        # append each mask to its coordinates
        line = " ".join(["%s"] * (len(self.points[0][0]) + 1)) + "\n"
        coords, masks = zip(*self.points)
        fields = tuple(itertools.chain.from_iterable(map(add, coords, zip(masks))))
        return (line * len(self.points)) % fields

    def svg(self) -> str:
        return _render_svg(self)


def _sign_masks(start: Sequence[int], steps: Sequence[Sequence[int]], n: int) -> list[int]:
    """J bitmasks of an n^r grid, r = len(steps), in itertools.product
    order: bit i is set where pairing i is negative, the pairings being
    `start` at the grid's first point and moving by steps[j] per unit of
    grid coordinate j."""
    masks = [0] * n ** len(steps)
    # start holds the pairings at the first point of the current line; in
    # rank 2 the next line starts one step of the first coordinate further on
    for first in range(0, len(masks), n):
        for i, (x, d) in enumerate(zip(start, steps[-1])):
            lo, hi = negative_interval(x, d, 0, n - 1)
            # an empty interval may end below -1, which a slice reads from the end
            if lo <= hi:
                cut = slice(first + lo, first + hi + 1)
                masks[cut] = map(or_, masks[cut], itertools.repeat(1 << i))
        start = tuple(map(add, start, steps[0]))
    return masks


def region_plot(
    X: WonderfulVariety,
    kind: str,
    n_min: int,
    n_max: int,
    base: Optional[Weight] = None,
) -> RegionPlot:
    """Classify the grid [n_min, n_max]^r around the base point.

    For Omega plots the base defaults to lambda_0, for R plots to 0; a
    given base must lie in pic(X).  Grid point n marks base + sum n_i pic_i
    (Omega) or the coefficient vector n itself (R).  A grid of more than
    `MAX_POINTS` points is refused before any work.
    """
    if X.rank not in (1, 2):
        raise ValueError("region plots are drawn for rank 1 and 2 only")
    if n_min > n_max:
        raise ValueError("empty range")
    if kind not in ("Omega", "R"):
        raise ValueError(f"unknown region kind {kind!r}")
    axis = range(n_min, n_max + 1)
    size = len(axis) ** X.rank
    if size > MAX_POINTS:
        raise ValueError(f"a grid of {size} points exceeds the region plot limit of {MAX_POINTS}")
    if base is not None:
        base = X.require_pic(base)
    elif kind == "Omega":
        base = X.lambda_zero()
    else:
        base = (0,) * X.group.rank
    r = X.rank
    if kind == "Omega":
        # the grid stays in pic(X) once base is, as lambda_0 is by
        # construction; of a longer pic basis only the first r vectors step it
        steps = X._pic_sign_rows[:r]
        start = translate(X.sign_pairings(base), (n_min,) * r, steps)
    else:
        # J is read off the coefficient sign pattern, strictly positive on J:
        # the pairing of coordinate i is -n_i, negative exactly when n_i >= 1
        steps = [[-int(i == j) for i in range(r)] for j in range(r)]
        start = (-n_min,) * r
    grid = itertools.product(axis, repeat=r)
    points = zip(grid, _sign_masks(start, steps, len(axis)))
    return RegionPlot(X.name, kind, tuple(base), (n_min, n_max), tuple(points))


def _markers(shape: str, centres: list[tuple[int, int]]) -> list[str]:
    """One SVG element of the given marker shape per pixel centre."""
    if shape == "dot":
        return [f'<circle cx="{x}" cy="{y}" r="4" fill="black"/>' for x, y in centres]
    if shape == "circle":
        return [
            f'<circle cx="{x}" cy="{y}" r="4" fill="none" stroke="black"/>'
            for x, y in centres
        ]
    if shape == "plus":
        return [
            f'<path d="M {x - 4} {y} H {x + 4} M {x} {y - 4} V {y + 4}" stroke="black"/>'
            for x, y in centres
        ]
    return [f'<circle cx="{x}" cy="{y}" r="1.5" fill="black"/>' for x, y in centres]  # tick


def _render_svg(plot: RegionPlot) -> str:
    n_min, n_max = plot.n_range
    span = n_max - n_min
    cell = 24
    pad = 30
    size = span * cell + 2 * pad
    rank = len(plot.points[0][0])
    height = size if rank == 2 else 2 * pad
    markers = _MARKERS_RANK2 if rank == 2 else _MARKERS_RANK1

    # pixel centres: x = pad + (n_0 - n_min) cell, and y = pad + (n_max - n_1) cell
    # in rank 2 or y = pad in rank 1
    x0 = pad - n_min * cell
    y0, dy = (pad + n_max * cell, cell) if rank == 2 else (pad, 0)
    by_mask: defaultdict[int, list] = defaultdict(list)
    for coords, mask in plot.points:
        by_mask[mask].append((x0 + coords[0] * cell, y0 - coords[-1] * dy))

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
