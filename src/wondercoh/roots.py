"""Exact root system arithmetic and Weyl group operations.

Weights are plain tuples of integers in the fundamental-weight basis of a
fixed :class:`RootSystem`.  All operations are pure and use exact integer
or rational arithmetic: chamber membership is a sign decision and must
never go through floating point.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import prod
from operator import mul
from typing import Iterable, Optional, Sequence

from .exactalg import Matrix, frac_matrix, int_scaled, mat_inverse, mat_vec

Weight = tuple[int, ...]


class InvariantError(RuntimeError):
    """An internal invariant of the engine failed: a bug, never bad input.

    Raised explicitly, so it still fires under ``python -O``.
    """


def _integer(x) -> int:
    """x as an int; a number that int() would truncate, or a string, is refused."""
    n = int(x)
    if n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


#: classical positive root counts per simple family, None at a rank it lacks
_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2 if n >= 1 else None,
    "B": lambda n: n * n if n >= 2 else None,
    "C": lambda n: n * n if n >= 2 else None,
    "D": lambda n: n * (n - 1) if n >= 2 else None,
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": {4: 24}.get,
    "G": {2: 6}.get,
}


def _simple_edges(family: str, rank: int) -> list[tuple[int, int, int, int]]:
    """Edges (i, j, a_ij, a_ji) of the Dynkin diagram, 0-based."""
    chain = [(i, i + 1, -1, -1) for i in range(rank - 1)]
    if family == "A":
        return chain
    if family == "B":
        # last node short: <alpha_{n-1}, alpha_n^vee> = -2
        return chain[:-1] + [(rank - 2, rank - 1, -1, -2)]
    if family == "C":
        return chain[:-1] + [(rank - 2, rank - 1, -2, -1)]
    if family == "D":
        if rank == 2:
            return []
        return [(i, i + 1, -1, -1) for i in range(rank - 2)] + [(rank - 3, rank - 1, -1, -1)]
    if family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (1, 3)] + [(i, i + 1) for i in range(4, rank - 1)]
        return [(i, j, -1, -1) for i, j in edges]
    if family == "F":
        return [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
    # G: alpha_1 short, alpha_2 long (Bourbaki)
    return [(0, 1, -3, -1)]


def _component_cartan(family: str, rank: int) -> list[list[int]]:
    a = [[2 * int(i == j) for j in range(rank)] for i in range(rank)]
    for i, j, aij, aji in _simple_edges(family, rank):
        a[i][j] = aij
        a[j][i] = aji
    return a


def _component_symmetrizer(family: str, rank: int) -> list[int]:
    """Positive integers d_i with d_i * A_ij symmetric, min d_i = 1."""
    if family == "B":
        return [2] * (rank - 1) + [1]
    if family == "C":
        return [1] * (rank - 1) + [2]
    if family == "F":
        return [2, 2, 1, 1]
    if family == "G":
        return [1, 3]
    return [1] * rank


class RootSystem:
    """Cartan data of a product of simple root systems.

    Built once from a list of (family, rank) pairs; immutable afterwards.
    Positive roots are generated by reflection closure and frozen in a
    deterministic order (height, then lexicographic), so scans over them
    are reproducible.
    """

    def __init__(self, components: Sequence[tuple[str, int]]):
        components = tuple((str(f).upper(), _integer(n)) for f, n in components)
        if not components:
            raise ValueError("empty component list")
        counts = [_POSITIVE_ROOT_COUNT.get(f, lambda n: None)(n) for f, n in components]
        for (family, rank), count in zip(components, counts):
            if count is None:
                raise ValueError(f"invalid Dynkin type {family}{rank}")
        self.components = components
        self.rank = sum(n for _, n in components)

        cartan = [[0] * self.rank for _ in range(self.rank)]
        symmetrizer: list[int] = []
        offset = 0
        for family, rank in components:
            block = _component_cartan(family, rank)
            for i in range(rank):
                for j in range(rank):
                    cartan[offset + i][offset + j] = block[i][j]
            symmetrizer.extend(_component_symmetrizer(family, rank))
            offset += rank
        self.cartan = tuple(tuple(row) for row in cartan)
        self.symmetrizer = tuple(symmetrizer)

        self.positive_roots = self._generate_positive_roots()
        if len(self.positive_roots) != sum(counts):
            raise InvariantError("positive root closure has the wrong size")

        # (omega_i, omega_j) = d_i * (A^-1)_ij; short roots have length^2 = 2
        self._cartan_inv = mat_inverse(frac_matrix(self.cartan))
        # (rows, den): rows . lam is den times the simple-root coordinates of lam
        self._cartan_inv_scaled = int_scaled(self._cartan_inv)
        self._fw_gram: Matrix = tuple(
            tuple(self.symmetrizer[i] * self._cartan_inv[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )
        self._fw_gram_scaled = int_scaled(self._fw_gram)
        # row k: integer vector p with <lam, alpha_k^vee> = p . lam
        self._coroot_rows = tuple(
            self._coroot_pairing_row(alpha) for alpha in self.positive_roots
        )
        self._weyl_den = prod(sum(row) for row in self._coroot_rows)  # prod <rho, alpha^vee>
        self._root_weights = tuple(self.root_as_weight(a) for a in self.positive_roots)

    # -- construction helpers -------------------------------------------

    def _generate_positive_roots(self) -> tuple[tuple[int, ...], ...]:
        simple = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        roots = set(simple)
        frontier = set(simple)
        while frontier:
            new = set()
            for beta in frontier:
                pair = [sum(self.cartan[i][j] * beta[j] for j in range(self.rank))
                        for i in range(self.rank)]
                for i in range(self.rank):
                    img = list(beta)
                    img[i] -= pair[i]
                    timg = tuple(img)
                    if timg not in roots and all(x >= 0 for x in timg):
                        new.add(timg)
            roots |= new
            frontier = new
        return tuple(sorted(roots, key=lambda r: (sum(r), r)))

    def _coroot_pairing_row(self, alpha: Sequence[int]) -> tuple[int, ...]:
        n = range(self.rank)
        d, a = self.symmetrizer, self.cartan
        norm = sum(alpha[i] * alpha[j] * d[i] * a[i][j] for i in n for j in n)
        row = [2 * x * di for x, di in zip(alpha, d)]
        if any(x % norm for x in row):
            raise InvariantError("coroot pairing row is not integral")
        return tuple(x // norm for x in row)

    # -- basic operations ------------------------------------------------

    def check_weight(self, lam: Sequence[int]) -> Weight:
        lam = tuple(map(_integer, lam))
        if len(lam) != self.rank:
            raise ValueError(f"weight has length {len(lam)}, expected rank {self.rank}")
        return lam

    def rho(self) -> Weight:
        return (1,) * self.rank

    def pair_coroot(self, lam: Sequence[int], alpha: Sequence[int]) -> int:
        """<lam, alpha^vee> for a root alpha given in simple-root coordinates."""
        row = self._coroot_pairing_row(alpha)
        return sum(r * x for r, x in zip(row, lam))

    def inner_product(self, lam: Sequence[int], mu: Sequence[int]) -> Fraction:
        """W-invariant scalar product (short roots of each component have norm 2)."""
        rows, den = self._fw_gram_scaled
        return Fraction(sum(x * g * y for x, row in zip(lam, rows) for g, y in zip(row, mu)), den)

    def root_as_weight(self, alpha: Sequence[int]) -> Weight:
        """Convert simple-root coordinates to fundamental-weight coordinates."""
        return tuple(
            sum(self.cartan[i][j] * alpha[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def simple_root_coords(self, lam: Sequence[int]) -> tuple[Fraction, ...]:
        """Expansion of a weight over the simple roots (rational in general)."""
        return mat_vec(self._cartan_inv, self.check_weight(lam))

    def positive_root_weights(self) -> tuple[Weight, ...]:
        return self._root_weights

    def is_dominant(self, lam: Sequence[int]) -> bool:
        return all(x >= 0 for x in self.check_weight(lam))

    def shifted_pairings(self, lam: Sequence[int]) -> tuple[int, ...]:
        """<lam + rho, alpha^vee> over all positive roots, in the frozen order."""
        v = [x + 1 for x in lam]
        return tuple(sum(map(mul, row, v)) for row in self._coroot_rows)

    def is_regular_shifted(self, lam: Sequence[int]) -> bool:
        """Whether lam + rho pairs nonzero with every positive coroot."""
        self.check_weight(lam)
        return all(p != 0 for p in self.shifted_pairings(lam))

    def make_dominant_shifted(
        self, lam: Sequence[int]
    ) -> Optional[tuple[Weight, int, tuple[int, ...]]]:
        """Dominant representative of lam under the rho-shifted action.

        Returns (lam_plus, length, word) with word a reduced expression for
        the minimising Weyl element (simple reflection indices, applied to
        the weight left to right), or None when lam + rho is singular.
        The greedy reflection count is cross-checked against the inversion
        count of lam + rho; the two must agree.
        """
        lam = self.check_weight(lam)
        v = [x + 1 for x in lam]  # lam + rho in fundamental coordinates
        inversions = sum(1 for p in self.shifted_pairings(lam) if p < 0)
        word = self._walk(v)
        if any(x == 0 for x in v):
            return None  # lam + rho is singular
        if len(word) != inversions:
            raise InvariantError("reflection count disagrees with inversion count")
        lam_plus = tuple(x - 1 for x in v)
        return lam_plus, len(word), tuple(word)

    def dominant_representative(self, mu: Sequence[int]) -> Weight:
        """Unique dominant weight in the (unshifted) W-orbit of mu."""
        v = list(self.check_weight(mu))
        self._walk(v)
        return tuple(v)

    def _walk(self, v: list[int]) -> list[int]:
        """Reflect v in place on its first negative coordinate until v is
        dominant; returns the word of simple reflections used.

        Each step turns exactly one positive coroot pairing from negative to
        positive, so the walk takes as many steps as v has negative
        pairings, at most |Phi+|.
        """
        word: list[int] = []
        while True:
            neg = next((i for i in range(self.rank) if v[i] < 0), None)
            if neg is None:
                return word
            if len(word) == len(self.positive_roots):
                raise InvariantError("chamber walk is longer than |Phi+|")
            c = v[neg]
            for i in range(self.rank):
                v[i] -= c * self.cartan[i][neg]
            word.append(neg)

    def dual_weight(self, mu: Sequence[int]) -> Weight:
        """-w_0 mu for dominant mu (highest weight of the dual module)."""
        mu = self.check_weight(mu)
        if not self.is_dominant(mu):
            raise ValueError("dual_weight expects a dominant weight")
        return self.dominant_representative(tuple(-x for x in mu))

    def weyl_dimension(self, mu: Sequence[int]) -> int:
        """dim L(mu) by the Weyl dimension formula, as an exact integer."""
        mu = self.check_weight(mu)
        if not self.is_dominant(mu):
            raise ValueError("weyl_dimension expects a dominant weight")
        q, rem = divmod(prod(self.shifted_pairings(mu)), self._weyl_den)
        if rem:
            raise InvariantError("Weyl dimension is not integral")
        return q

    def weyl_order(self) -> int:
        """|W| = prod (m + 1) over the exponents m (Kostant): h[k] positive
        roots have height k, and h[k] - h[k + 1] exponents equal k."""
        h = Counter(map(sum, self.positive_roots))
        return prod((k + 1) ** (h[k] - h[k + 1]) for k in h)

    def reflect_simple(self, i: int, lam: Sequence[int]) -> Weight:
        """Image of a weight under the simple reflection s_i (unshifted)."""
        lam = self.check_weight(lam)
        c = lam[i]
        return tuple(lam[j] - c * self.cartan[j][i] for j in range(self.rank))

    def describe(self) -> str:
        return " x ".join(f"{f}{n}" for f, n in self.components)

    def __repr__(self) -> str:  # pragma: no cover
        return f"RootSystem({self.describe()})"


def build_root_system(spec: Iterable[tuple[str, int]]) -> RootSystem:
    """Build the root system of a product of simple types, e.g. [("A", 2)]."""
    return RootSystem(tuple(spec))


def parse_type(text: str) -> tuple[tuple[str, int], ...]:
    """Parse 'A2', 'A1xA1', 'D4' ... into a component list."""
    parts = text.replace("*", "x").split("x")
    comps = []
    for part in parts:
        part = part.strip()
        if len(part) < 2 or not part[0].isalpha():
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        comps.append((part[0].upper(), int(part[1:])))
    return tuple(comps)
