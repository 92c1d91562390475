"""Small exact linear algebra helpers over the rationals.

Everything in this package works with integer weight vectors and
Fraction-valued bilinear forms; the matrices involved are tiny (at most
the rank of the ambient group), so plain Gauss-Jordan elimination with
`fractions.Fraction` entries is exact and cheap for set-up work done a
few times per call.  `Fraction` is far too slow for per-call work: the
candidate enumeration, the omega signature and lattice membership (the
integer left inverses of the Picard and spherical bases) run on `int`
alone, on data that `int_scaled` turns into integers once.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def frac_isqrt_floor(x: Fraction) -> int:
    """Largest integer s with s*s <= x (x >= 0)."""
    if x < 0:
        raise ValueError("negative argument")
    # floor(sqrt(p/q)) = floor(sqrt(p*q)/q) and isqrt is exact on ints.
    p, q = x.numerator, x.denominator
    return math.isqrt(p * q) // q


def span_numerators(
    basis: Sequence[Sequence[int]], left_inverse: ScaledMatrix, v: Sequence[int]
) -> tuple[int, ...] | None:
    """n with v = sum_i (n_i / den) basis[i], or None outside the span.

    `left_inverse` = (rows, den) is a left inverse of the basis scaled to
    integers, rows . basis[j] = den e_j.  Off the span rows . v is only a
    projection, so rebuilding den * v exactly is the membership check.
    """
    rows, den = left_inverse
    n = tuple(sum(r * x for r, x in zip(row, v)) for row in rows)
    if translate((0,) * len(v), n, basis) != tuple(den * x for x in v):
        return None
    return n
