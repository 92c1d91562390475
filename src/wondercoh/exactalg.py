"""Small exact linear algebra helpers over the rationals.

Everything in this package works with integer weight vectors and
Fraction-valued bilinear forms; the matrices involved are tiny (at most
the rank of the ambient group), so plain Gauss-Jordan elimination with
`fractions.Fraction` entries is exact and cheap for set-up work done a
few times per call.  `Fraction` is far too slow for inner loops that run
once per lattice point: those, such as the candidate enumeration in
`cohomology`, scale their rational data to integers once and then run on
`int` alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


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


def solve_in_span(
    basis: Sequence[Sequence[int]],
    gram_inv: Matrix,
    gram_pair,
    target: Sequence[int],
) -> tuple[Fraction, ...] | None:
    """Coordinates of `target` in the span of `basis`, or None.

    `gram_inv` is the inverse Gram matrix of the basis and `gram_pair(v)`
    must return the vector of pairings (v, basis[i]).  The candidate
    coordinates from the normal equations are verified against the target
    exactly, so vectors outside the span are rejected.
    """
    coords = mat_vec(gram_inv, gram_pair(target))
    recon = translate((0,) * len(target), coords, basis)
    if any(r != t for r, t in zip(recon, target)):
        return None
    return coords
