"""Exact root system arithmetic and Weyl group operations.

Weights are plain tuples of integers in the fundamental-weight basis of a
fixed :class:`RootSystem`.  All operations are pure and use exact integer
or rational arithmetic: chamber membership is a sign decision and must
never go through floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import mul
from typing import Iterable, Optional, Sequence

from .exactalg import ScaledMatrix, int_inverse, least_scaled, row_products, translate

Weight = tuple[int, ...]


class InvariantError(RuntimeError):
    """An internal invariant of the engine failed: a bug, never bad input.

    Raised explicitly, so it still fires under ``python -O``.
    """


def _integer(x) -> int:
    """x as an int; a number that int() would truncate, a string or a bool
    (JSON true and false) is refused."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not an integer")
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
    The Cartan matrix and symmetrizer are block diagonal over the simple
    factors, and the positive roots, coroot rows and integer Cartan
    inverse are computed on them in one pass, as for a simple type.
    Positive roots are frozen in a deterministic order (height, then
    lexicographic), so scans over them are reproducible.
    """

    def __init__(self, components: Sequence[tuple[str, int]]):
        components = tuple((str(f).upper(), _integer(n)) for f, n in components)
        if not components:
            raise ValueError("empty component list")
        for family, rank in components:
            if _POSITIVE_ROOT_COUNT.get(family, lambda n: None)(rank) is None:
                raise ValueError(f"invalid Dynkin type {family}{rank}")
        self.components = components
        self.rank = n = sum(rank for _, rank in components)
        a = [[2 * int(i == j) for j in range(n)] for i in range(n)]
        d: list[int] = []
        for family, rank in components:
            offset = len(d)
            for i, j, aij, aji in _simple_edges(family, rank):
                a[offset + i][offset + j] = aij
                a[offset + j][offset + i] = aji
            d += _component_symmetrizer(family, rank)
        self.cartan = cartan = tuple(map(tuple, a))
        self.symmetrizer = tuple(d)

        # the positive roots: reflection closure of the simple roots, each
        # with A alpha, its fundamental-weight coordinates
        weights: dict[Weight, Weight] = {}
        frontier = {tuple(int(i == j) for j in range(n)) for i in range(n)}
        while frontier:
            new = set()
            for beta in frontier:
                weights[beta] = w = row_products(cartan, beta)
                for i, p in enumerate(w):
                    img = list(beta)
                    img[i] -= p
                    if img[i] >= 0:
                        new.add(tuple(img))
            frontier = new.difference(weights)
        # each factor's block meets exactly its own count of roots, and no
        # root meets two blocks
        meets, offset = [], 0
        for _, rank in components:
            meets.append(sum(1 for r in weights if any(r[offset:offset + rank])))
            offset += rank
        expected = [_POSITIVE_ROOT_COUNT[f](rank) for f, rank in components]
        if meets != expected or len(weights) != sum(expected):
            raise InvariantError("positive root closure has the wrong size")
        self.positive_roots = tuple(sorted(weights, key=lambda r: (sum(r), r)))
        self._root_weights = tuple(map(weights.get, self.positive_roots))
        coroot_rows = []
        for alpha, w in zip(self.positive_roots, self._root_weights):
            # (alpha, alpha) = sum_i alpha_i d_i (A alpha)_i, and the row is
            # 2 d_i alpha_i / (alpha, alpha)
            norm = sum(map(mul, alpha, map(mul, d, w)))
            row = [2 * x * di for x, di in zip(alpha, d)]
            if any(x % norm for x in row):
                raise InvariantError("coroot pairing row is not integral")
            coroot_rows.append(tuple(x // norm for x in row))
        self._coroot_rows = tuple(coroot_rows)
        # (rows, den): rows . lam is den times the simple-root coordinates of lam
        self._cartan_inv_scaled: ScaledMatrix = int_inverse(cartan)
        inv_rows, inv_den = self._cartan_inv_scaled
        # (omega_i, omega_j) = d_i * (A^-1)_ij; short roots have length^2 = 2
        self._fw_gram_scaled = least_scaled(
            [[di * x for x in row] for di, row in zip(d, inv_rows)], inv_den
        )
        self._coroot_row_of = dict(zip(self.positive_roots, self._coroot_rows))
        # <rho, alpha_k^vee> per positive root and the coroot rows as
        # columns: the base and columns of `shifted_pairings`
        self._rho_pairings = tuple(map(sum, self._coroot_rows))
        self._coroot_columns = tuple(zip(*self._coroot_rows))
        self._weyl_den = prod(self._rho_pairings)

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
        alpha = tuple(alpha)
        row = self._coroot_row_of.get(alpha)
        if row is not None:
            return sum(map(mul, row, lam))
        row = self._coroot_row_of.get(tuple(-x for x in alpha))  # a negative root
        if row is None:
            raise ValueError(f"{list(alpha)} is not a root")
        return -sum(map(mul, row, lam))

    def inner_product(self, lam: Sequence[int], mu: Sequence[int]) -> Fraction:
        """W-invariant scalar product (short roots of each component have norm 2)."""
        rows, den = self._fw_gram_scaled
        return Fraction(sum(x * g * y for x, row in zip(lam, rows) for g, y in zip(row, mu)), den)

    def root_as_weight(self, alpha: Sequence[int]) -> Weight:
        """Convert simple-root coordinates to fundamental-weight coordinates."""
        return row_products(self.cartan, alpha)

    def positive_root_weights(self) -> tuple[Weight, ...]:
        return self._root_weights

    def is_dominant(self, lam: Sequence[int]) -> bool:
        return all(x >= 0 for x in self.check_weight(lam))

    def shifted_pairings(self, lam: Sequence[int]) -> tuple[int, ...]:
        """<lam + rho, alpha^vee> over all positive roots, in the frozen order:
        `exactalg.translate` in its column form.  Only the length of lam is
        checked; a weight of another length raises ValueError."""
        if len(lam) != self.rank:
            raise ValueError(f"weight has length {len(lam)}, expected rank {self.rank}")
        return translate(self._rho_pairings, lam, self._coroot_columns)

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
        family, rank = part[:1], part[1:]
        if not family.isalpha() or not (rank.isascii() and rank.isdecimal()):
            raise ValueError(f"cannot parse Dynkin type {text!r}")
        comps.append((family.upper(), int(rank)))
    return tuple(comps)
