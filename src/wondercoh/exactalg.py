"""Small exact helpers: integer linear algebra, `translate`, signs on a line.

The matrices of this package are tiny (at most the rank of the ambient
group) and every one of them is integral or a `ScaledMatrix`: integer rows
over one positive common denominator.  `int_inverse` inverts an integer
matrix by fraction-free Gauss-Jordan elimination (Bareiss), so descriptor
build stays in `int` from the Cartan matrix to the integer left inverses
of the Picard and spherical bases.  No Gram matrix is stored with
`fractions.Fraction` entries: only the LDL^T of the r x r integer sign
Gram matrix runs on Fractions, once per variety, when `cohomology._walk`
builds the witness ball's quadric on the first walk, and it scales its
result to integers.  `RootSystem.inner_product`, the witness-ball quadric
of the enumeration, the omega signature and lattice membership run on
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


def row_products(rows: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    """The integer matrix `rows` applied to v: row . v for each row."""
    return tuple([sum(map(mul, row, v)) for row in rows])


def least_scaled(rows: Sequence[Sequence[int]], den: int) -> ScaledMatrix:
    """rows / den (den != 0) as (rows, den) with the least positive den."""
    g = math.gcd(den, *itertools.chain.from_iterable(rows))
    g = g if den > 0 else -g
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def int_inverse(m: Sequence[Sequence[int]]) -> ScaledMatrix:
    """The inverse of a square integer matrix as (rows, den), den least.

    Fraction-free Gauss-Jordan elimination on [m | I] (Bareiss 1968):
    each step scales every other row by the pivot and divides by the
    previous pivot, and Sylvester's identity makes that division exact,
    so the entries stay minors of [m | I].  At the end the left block is
    the last pivot p = +-det m times I and the right block is p m^-1.
    Raises ValueError on a singular matrix.
    """
    n = len(m)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[k], aug[pivot] = aug[pivot], aug[k]
        pivot_row = aug[k]
        p = pivot_row[k]
        for i, row in enumerate(aug):
            if i != k:
                a = row[k]
                aug[i] = [(p * x - a * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return least_scaled([row[n:] for row in aug], prev)


def int_scaled(m: Sequence[Sequence[Fraction]]) -> ScaledMatrix:
    """m as (rows, den) with integer rows, den the least common denominator
    of all entries (1 for an empty matrix)."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in m), den


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
    """base + sum_i coeffs[i] * vectors[i] as a tuple, skipping zero
    coefficients; fewer coefficients than vectors use the first vectors.
    Column form: with the columns of a matrix A as vectors it is
    base + A coeffs, so <lam + rho, alpha^vee> is <rho, alpha^vee> plus
    lam_j times column j of the coroot rows.  A vector read with another
    length than base raises ValueError.  The plain loop measured faster
    than chained lazy `map`s at 3 to 126 entries."""
    out = list(base)
    for c, vec in zip(coeffs, vectors):
        if c:
            if len(vec) != len(out):
                raise ValueError(f"vector has length {len(vec)}, expected {len(out)}")
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
    n = row_products(rows, v)
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
