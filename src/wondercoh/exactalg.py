"""Small exact helpers: linear algebra over the rationals, and signs on a line.

The matrices of this package are tiny (at most the rank of the ambient
group), so Gauss-Jordan elimination and LDL^T with `fractions.Fraction`
entries are exact and cheap for set-up work, done once per root system or
variety.  `Fraction` is far too slow for per-call work, so each form is
scaled to integers once (mostly by `int_scaled`): `RootSystem.inner_product`,
the witness-ball quadric of the enumeration, the omega signature and lattice
membership (integer left inverses of the Picard and spherical bases) run on
`int` alone, and the inner product builds one Fraction, its value.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]
ScaledMatrix = tuple[tuple[tuple[int, ...], ...], int]


def frac_matrix(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mat_inverse(m: Matrix) -> Matrix:
    """Invert a square matrix of Fractions (Gauss-Jordan, exact)."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def int_scaled(m: Sequence[Sequence[Fraction]]) -> ScaledMatrix:
    """m as (rows, den) with integer rows, den the least common denominator
    of all entries (1 for an empty matrix)."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in m), den


def mat_vec(m: Matrix, v: Sequence) -> tuple[Fraction, ...]:
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def ldl(m: Matrix) -> tuple[Matrix, tuple[Fraction, ...]]:
    """Exact LDL^T decomposition of a positive definite matrix.

    Returns (L, diag) with L unit lower triangular so that
    m = L @ diag(d) @ L^T.
    """
    n = len(m)
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    for j in range(n):
        d[j] = m[j][j] - sum(L[j][k] * L[j][k] * d[k] for k in range(j))
        if d[j] <= 0:
            raise ValueError("matrix is not positive definite")
        for i in range(j + 1, n):
            L[i][j] = (m[i][j] - sum(L[i][k] * L[j][k] * d[k] for k in range(j))) / d[j]
    return tuple(tuple(row) for row in L), tuple(d)


def translate(base: Sequence, coeffs: Sequence, vectors: Sequence[Sequence]) -> tuple:
    """base + sum_i coeffs[i] * vectors[i], entry by entry."""
    out = list(base)
    for c, vec in zip(coeffs, vectors):
        if c:
            for k, x in enumerate(vec):
                out[k] += c * x
    return tuple(out)


def negative_interval(x: int, d: int, lo: int, hi: int) -> tuple[int, int]:
    """The t in [lo, hi] with x + t d < 0, as an interval (lo, hi) that is
    empty when lo > hi.  x + t d is monotone in t, so one floor division
    cuts one end; d = 0 keeps all of [lo, hi] or none of it.  The t with
    x + t d >= 0 are negative_interval(-x - 1, -d, lo, hi)."""
    if d > 0:
        return lo, min(hi, -(x // d) - 1)  # t < -x / d
    if d < 0:
        return max(lo, x // -d + 1), hi  # t > x / -d
    return (lo, hi) if x < 0 else (lo, lo - 1)


def span_numerators(
    basis: Sequence[Sequence[int]], left_inverse: ScaledMatrix, v: Sequence[int]
) -> tuple[int, ...] | None:
    """n with v = sum_i (n_i / den) basis[i], or None outside the span.

    `left_inverse` = (rows, den) is a left inverse of the basis scaled to
    integers, rows . basis[j] = den e_j.  Off the span rows . v is only a
    projection, so rebuilding den * v exactly is the membership check: entry
    k of sum_i n_i basis[i] is n . (column k of the basis), and an empty
    basis rebuilds the zero vector.
    """
    rows, den = left_inverse
    n = tuple([sum(map(mul, row, v)) for row in rows])
    for column, x in zip(zip(*basis) if basis else itertools.repeat(()), v):
        if sum(map(mul, n, column)) != den * x:
            return None
    return n


def lattice_coords(
    basis: Sequence[Sequence[int]], left_inverse: ScaledMatrix, v: Sequence[int]
) -> tuple[int, ...] | None:
    """Integer c with v = sum_i c_i basis[i], or None off that lattice."""
    n = span_numerators(basis, left_inverse, v)
    den = left_inverse[1]
    return None if n is None or any(x % den for x in n) else tuple(x // den for x in n)
