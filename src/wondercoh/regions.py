"""Weight-region figures: Omega and R classifications on the pic lattice.

The drawing is plain SVG written by hand so output is byte-stable; the
classification that matters for testing goes to a machine-readable
sidecar, one line per lattice point: the grid coordinates followed by the
subset J encoded as a bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .cohomology import _omega_signature, _require_pic
from .exactalg import translate
from .roots import Weight
from .varieties import WonderfulVariety

#: marker styles per J bitmask in rank 2 (matches the figure legend:
#: filled dot for the full set, open circle for the empty set, plus and
#: small dot for the two singletons)
_MARKERS_RANK2 = {0b11: "dot", 0b00: "circle", 0b01: "plus", 0b10: "tick"}
_MARKERS_RANK1 = {0b1: "dot", 0b0: "circle"}


@dataclass(frozen=True)
class RegionPlot:
    variety: str
    kind: str  # "Omega" | "R"
    base: Weight
    n_range: tuple[int, int]
    points: tuple[tuple[tuple[int, ...], int], ...]  # (grid coords, J bitmask)

    def sidecar(self) -> str:
        lines = [
            " ".join(str(c) for c in coords) + f" {mask}"
            for coords, mask in self.points
        ]
        return "\n".join(lines) + "\n"

    def svg(self) -> str:
        return _render_svg(self)


def _classify_point(
    X: WonderfulVariety, kind: str, base: Weight, coords: Sequence[int]
) -> int:
    """J bitmask of one grid point; an Omega base must already be in pic(X)."""
    if kind == "Omega":
        mu = translate(base, coords, X.pic_basis)
        return sum(1 << i for i in _omega_signature(X, mu))
    if kind == "R":
        # J is read off the coefficient sign pattern: strictly positive on J
        return sum(1 << i for i, n in enumerate(coords) if n >= 1)
    raise ValueError(f"unknown region kind {kind!r}")


def region_plot(
    X: WonderfulVariety,
    kind: str,
    n_min: int,
    n_max: int,
    base: Optional[Weight] = None,
) -> RegionPlot:
    """Classify the grid [n_min, n_max]^r around the base point.

    For Omega plots the base defaults to lambda_0, for R plots to 0, and
    grid point n marks base + sum n_i pic_i (Omega) or the coefficient
    vector n itself (R).
    """
    if X.rank not in (1, 2):
        raise ValueError("region plots are drawn for rank 1 and 2 only")
    if n_min > n_max:
        raise ValueError("empty range")
    if base is None:
        base = X.lambda_zero() if kind == "Omega" else (0,) * X.group.rank
    if kind == "Omega":
        # every grid point base + sum n_i pic_i is in pic(X) once base is
        base = _require_pic(X, base)
    axis = range(n_min, n_max + 1)
    points = []
    if X.rank == 1:
        grid = [(n,) for n in axis]
    else:
        grid = [(a, b) for a in axis for b in axis]
    for coords in grid:
        points.append((coords, _classify_point(X, kind, base, coords)))
    return RegionPlot(X.name, kind, tuple(base), (n_min, n_max), tuple(points))


def _render_svg(plot: RegionPlot) -> str:
    n_min, n_max = plot.n_range
    span = n_max - n_min
    cell = 24
    pad = 30
    size = span * cell + 2 * pad
    rank = len(plot.points[0][0])
    height = size if rank == 2 else 2 * pad
    markers = _MARKERS_RANK2 if rank == 2 else _MARKERS_RANK1

    def xy(coords):
        x = pad + (coords[0] - n_min) * cell
        if rank == 1:
            return x, pad
        return x, pad + (n_max - coords[1]) * cell

    by_mask: dict[int, list] = {}
    for coords, mask in plot.points:
        by_mask.setdefault(mask, []).append(xy(coords))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {height}">',
        f"<!-- {plot.kind} regions for {plot.variety}, "
        f"grid [{n_min}, {n_max}], base {list(plot.base)} -->",
    ]
    for mask in sorted(by_mask):
        shape = markers.get(mask, "dot")
        parts.append(f'<g id="J-{mask}" class="{shape}">')
        for x, y in by_mask[mask]:
            if shape == "dot":
                parts.append(f'<circle cx="{x}" cy="{y}" r="4" fill="black"/>')
            elif shape == "circle":
                parts.append(
                    f'<circle cx="{x}" cy="{y}" r="4" fill="none" stroke="black"/>'
                )
            elif shape == "plus":
                parts.append(
                    f'<path d="M {x - 4} {y} H {x + 4} M {x} {y - 4} V {y + 4}" stroke="black"/>'
                )
            else:  # tick
                parts.append(f'<circle cx="{x}" cy="{y}" r="1.5" fill="black"/>')
        parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
