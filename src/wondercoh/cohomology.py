"""Evaluation of the cohomology decomposition for minimal rank wonderful varieties.

For a weight lam in pic(X) the degree-d cohomology of the line bundle
L_lam splits into irreducibles L(mu^+), one summand for every pair (J, mu)
with J a subset of the spherical roots, mu in the translated sign cone
(strictly positive multiples of J, nonpositive off J), mu + rho regular,
the negative-pairing set of mu + rho equal to J, and l(mu) + |J| = d.

Enumeration is exact.  Write mu = lam + sum c_i gamma_i.  The sign cone
makes J the positive support {i : c_i > 0} of c, and the omega condition
asks for that same set, so a point c contributes exactly when
(mu + rho, gamma_i) < 0 iff c_i > 0, for every i.  For a
contributing pair the two sign conditions give c_i (mu + rho, gamma_i) <= 0
for every i: on J, c_i >= 1 and the pairing is negative; off J, c_i <= 0
and the pairing is nonnegative.  Summed over i this is

    (mu + rho, mu - lam) <= 0,

the witness ball: mu + rho lies in the ball whose diameter is the segment
from 0 to lam + rho.  In the coefficients it reads c^T G c + c^T b <= 0,
with G the spherical Gram matrix and b_i = (lam + rho, gamma_i);
`contributions` searches its integer points.
Adding |mu - lam|^2 >= 0 gives the weaker |mu + rho| <= |lam + rho|, i.e.
c^T G c + 2 c^T b <= 0, a ball of twice the radius and about 2^r times the
points; `enumerate_candidates` keeps returning that superset.

The search walks the ball as lines along c_0.  `_ball_lines` peels
c_{r-1}, ..., c_1 off by branch and bound and gives one line per fixed
c_1..c_{r-1}: its first point c and its number n of points along c_0.
Its bounds read the ball's quadric, which `_walk` scales to integers once
per variety, on the first walk, from the LDL^T of the integer sign Gram
matrix and the inverse that the descriptor solved at build; a descriptor
that is never walked never builds it.
The descent carries the state of the walk, which `_sign_runs` alone
builds and slices: the sign pairings s_i = D (mu + rho, gamma_i) with
D = X._gamma_den, the class pairings of mu + rho (below; at lam,
`exactalg.translate` in column form) and mu are affine in c, so fixing
c_i adds c_i times a fixed row of `_walk`, built once per variety, and
each later c_i adds the row once more; no point is rebuilt from lam.
The sign conditions are cut in the same descent, each at one level: when
G_jk = 0 for every k < i, with G the integer sign Gram matrix, c_i fixes
both s_j and c_j, and s_j < 0 iff c_j > 0 cuts the range of c_i to an
interval, one call of `exactalg.negative_interval` per row decided at
level i.  As G_ii > 0, the condition on c_i itself can hold on c_i >= 1
only if s_i < 0 at c_i = 1, and else only on c_i <= 0.  A c_i cut off above
the line heads only lines off the sign pattern, and its subtree is never
walked; level 0 cuts c_0 by the rows that move with it, so each line keeps
one run of consecutive c_0 with one J, and off the run no point is visited
at all.
The candidate ball of `enumerate_candidates` takes the same descent with
nothing cut, carrying mu alone: each line hands over its first weight
already translated, and the rest of the line follows by adding gamma_0.
`_sign_runs` yields the runs, each certified at its ends.  With no
spherical roots the sign cone is the one point c = (), and rank zero is
the walk's one line, of one point.

The walk carries one coroot pairing per class.  For mu in
pic(X) + Z Sigma, <mu + rho, alpha^vee> is fixed by the coroot's pairings
with each gamma_i and each pic_j and by its height <rho, alpha^vee>.
`_walk` groups the positive coroots by these three, once per variety, and
carries each class as its first coroot, with its size m_c, the classes
ordered by size.  A class whose
gamma and pic pairings are all 0 is inert: it pairs to its height > 0 at
every mu, so it never inverts and never makes mu + rho singular, and it
leaves the walk.  A group compactification carries one class for each
pair alpha x 1, 1 x alpha*, half its coroots; E6/F4 carries 21 of 36.

Along a run, mu, the spherical pairings s and the class pairings
p_c = <mu + rho, alpha_c^vee> move by fixed rows per step of c_0.
The sign vector of the class pairings, the key, fixes the inversion set of
mu + rho, and with it the Weyl element w with w(mu + rho) dominant.  So
the chamber walk runs once per distinct key and variety in a process; its
word, replayed on the identity, gives the integer matrix of w, kept with
l(mu) = the sum of m_c over the negative classes and the vector w(gamma_0)
in the chamber table of the variety's walk.  An entry joins the table only
after the first stretch that used it passed the checks below, and later
evaluations of that variety reuse it.  Along a run the key holds over
stretches of consecutive witnesses, and `_stretches` yields one record
per stretch.  Each class pairing is affine along the run,
p_c + t <gamma_0, alpha_c^vee>, so the stretch ends in closed form:
where the first pairing that moves toward 0 would reach or cross it, one
floor division per such pairing.  Only the classes with
<gamma_0, alpha_c^vee> != 0 move, and one moves toward 0 when its pairing
and its step have opposite signs.  A point where some pairing is 0 is
singular and is skipped; the next regular point starts a new stretch, and
so does a point where a pairing stepped across 0 without touching it.  A
class that does not move keeps its pairing over the whole run, so when
such a pairing is 0 every point of the run is singular, and the run is
dropped at once instead of being stepped through.  As
w permutes the positive coroots up to sign, the product of the inert
heights times |prod_c p_c^{m_c}| is the Weyl dimension numerator of mu^+,
and dim L(mu^+) is that over prod_k <rho, alpha_k^vee>, with no second
pass over the roots.

The checks are made per run and per stretch.  An affine form is
nonnegative (or negative) on a segment exactly when it is so at the
segment's two ends, and everything checked here is affine along a
run: the spherical pairings s_i, the class pairings and, within a
stretch where w is fixed, mu^+ = w(mu + rho) - rho.  So `_sign_runs`
checks the sign pattern at the two ends of each run; the key is fixed by
construction over a stretch; min(mu^+) >= 0 is checked at its two ends.
As only the right w makes w(mu + rho) strictly dominant, that last check
also certifies every mu^+ of the stretch, and a stretch that ran one
point too far lands in a singular or wrong chamber and fails it; the
same check certifies each reused table entry on every stretch that reads
it.  The degree l(mu) + |J| is range-checked once per stretch (J is fixed
for the whole run), and the divisibility of the pairing product once per
witness.

`cohomology_table` is the one result every check reads: the witnesses
of each constituent are the local terms that sum to it.  One pass expands
the stretches into witnesses, kept in one list per degree, and each degree
is sorted once by mu^+, so the witnesses of a constituent are adjacent.
Along a stretch every field of a witness steps by a fixed row, so a
stretch of at least `_C_STRETCH` (7) witnesses is expanded by C-level
iterators, one `count` per entry and one `map` for its records; a shorter
one takes one Python step per witness, which is faster below that length.
Both check every pairing product for divisibility before its dimension.
Where every mu^+ of a degree is distinct, the usual case, its one-witness
constituents are built by one `map`; otherwise the witnesses that share a
mu^+ make one constituent, ordered by (J bitmask, mu).  `contributions`
and `CohomologyTable.witnesses` list the same witnesses sorted by degree,
then by mu, the order in which the checks name a failing witness.

The checks of one weight share its table.  The module keeps one slot, the
table the last `cohomology_table` built with its variety, and a call for
the same variety (the same object) and the same lam returns that table
without walking; tables are tuples all the way down, so sharing one is
safe, and every check of the walk certified it.  Only `cohomology_table`
writes the slot: `contributions` reads it, so the Serre check's walk of
the dual weight does not evict the weight whose checks are still running,
and a scan of a box evaluates each weight as before.  A miss empties the
slot before it walks and stores the table once it is complete, so an
evaluation that raises leaves the slot empty.  Keeping the old table
alive through the next walk instead made perfbench's deep-cohomology,
one wide table per operation, 6% slower (544 against 577 ops/s, 6
alternating 15 s pairs, CPython 3.11 on a shared 2-CPU host): the old
table's records stay live while the new ones are allocated, which the
cyclic collector and the allocator pay for.  A concurrent caller reads
the slot once and finds either a complete table or none, so sharing can
only make it miss.  The slot keeps its variety and table alive until the
next miss or `clear_last_table()`; after one very wide weight that is
every record of its table.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from fractions import Fraction
from itertools import count, islice, repeat
from operator import add, eq, itemgetter, mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .exactalg import ScaledMatrix, int_scaled, ldl, negative_interval, row_products, translate
from .roots import InvariantError, RootSystem, Weight
from .varieties import CatalogError, WonderfulVariety


class Contribution(NamedTuple):
    """One summand L(mu_plus) of H^degree, with its certifying pair (J, mu)."""

    J: tuple[int, ...]
    mu: Weight
    length: int
    mu_plus: Weight
    degree: int
    dimension: int  # dim L(mu_plus)

    def j_bitmask(self) -> int:
        return sum(1 << i for i in self.J)


class Constituent(NamedTuple):
    highest_weight: Weight
    multiplicity: int
    dimension: int
    witnesses: tuple[Contribution, ...]


# a record from the tuple of its fields, without the Python-level
# NamedTuple.__new__: `_witnesses_by_degree` makes one Contribution per
# witness, and a `map` over a degree's records stays in C
_new_contribution = functools.partial(tuple.__new__, Contribution)
_new_constituent = functools.partial(tuple.__new__, Constituent)


class DegreeGroup(NamedTuple):
    degree: int
    constituents: tuple[Constituent, ...]
    dimension: int


class CohomologyTable(NamedTuple):
    lam: Weight
    groups: tuple[DegreeGroup, ...]

    def nonzero_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.groups)

    def dimension(self, degree: int) -> int:
        return self.dimensions_by_degree().get(degree, 0)

    def constituents(self, degree: int) -> tuple[Constituent, ...]:
        for g in self.groups:
            if g.degree == degree:
                return g.constituents
        return ()

    def dimensions_by_degree(self) -> dict[int, int]:
        return {g.degree: g.dimension for g in self.groups}

    def witnesses(self) -> list[Contribution]:
        """Every witness, in the order of `contributions`: by degree, then by mu."""
        out: list[Contribution] = []
        for g in self.groups:
            out += sorted((t for c in g.constituents for t in c.witnesses), key=itemgetter(1))
        return out


def omega_signature(X: WonderfulVariety, mu: Sequence[int]) -> tuple[int, ...]:
    """Indices i with (mu + rho, gamma_i) < 0; zero pairings stay out."""
    return tuple(i for i, s in enumerate(X.sign_pairings(X.require_pic(mu))) if s < 0)


def _ball_lines(
    X: WonderfulVariety,
    sig: Sequence[int],
    k: int,
    start: Sequence[int] = (),
    rows: Sequence[Sequence[int]] | None = None,
    decided: Sequence[Sequence[int]] | None = None,
) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The integer points of the ball of `_ball_coefficients` for k, as
    lines along c_0: one (c, n, v) per fixed c_1..c_{r-1} whose line meets
    the ball, holding exactly the n >= 1 points from its first point c on
    along c_0.  sig is s = D b, `X.sign_pairings(lam)`.  Rank 0 has
    one line, ((), 1, start).

    v is `start` carried down the descent to the line's first point,
    start + sum_i c_i rows[i]: fixing c_i adds c_i rows[i] at the first c_i
    and rows[i] once more for each later one.  `decided` cuts the sign
    pattern, and then v starts with the sign pairings s and rows[i] with
    row i of the integer sign Gram matrix G, D times the ball's Gram
    matrix and symmetric.
    decided[i] lists the rows j whose s_j = v_j + c_i G_ji is fixed once
    c_i is (G_jk = 0 for k < i), and with it c_j (j >= i); every row is
    in exactly one list.  At level i, the range of c_i keeps the c_i with
    s_j < 0 iff c_j > 0, one `exactalg.negative_interval` per row; for
    j = i, c_i itself picks the side c_i >= 1 or c_i <= 0.  A line is then
    the run of c_0 that keeps the whole sign pattern, and a line or
    subtree cut empty is not returned.  With no `decided`, nothing is cut;
    with no rows either (the default), v is () on every line at rank 1 and
    up, as v keeps only as many entries as rows[i] has, and rank 0's one
    line keeps `start`.

    Times D the ball reads c^T G c + k c^T s <= 0.  Completing the square
    with z = (k/2) G^-1 s and G = L diag(d) L^T turns it into
    sum_i d_i (c_i + o_i)^2 <= z^T G z with o_i = u_i + sum_{j>i} L_ji c_j
    and u = L^T z = k M s, where M = L^T G^-1 / 2.  Once per variety the
    `form` of `_walk` fixes q_i, the least integer clearing row i of M and
    column i of L, with form_i = q_i M_i, A_ij = q_i L_ji and
    e_i = S d_i / q_i^2 (S clears all d_i / q_i^2).  Per weight,
    base_i = q_i u_i = k form_i . s and t_i = q_i (c_i + o_i) =
    q_i c_i + base_i + sum_{j>i} A_ij c_j are integers, and as
    z^T G z = sum_i d_i u_i^2 the quadric reads
    sum_i e_i t_i^2 <= sum_i e_i base_i^2.  The branch and bound peels
    c_{r-1}, ..., c_1 off with int arithmetic and math.isqrt only, and the
    same bound at c_0 is the line's first point and length; every bound is
    exact, so points on the boundary are always kept.
    """
    r = X.rank
    if not r:
        return [((), 1, tuple(start))]
    quadric = _walk(X).form
    if quadric is None:  # G is singular, which validation rejects
        check = "spherical root Gram matrix is positive definite"
        raise CatalogError(f"descriptor {X.name} fails validation: {check}")
    form, q, A, e = quadric
    base = [k * sum(map(mul, row, sig)) for row in form]
    none = ((),) * r
    lines: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
    walk = (lines, [0] * r, base, q, A, e, rows or none, decided or none)
    _descend(walk, r - 1, sum(ei * bi * bi for ei, bi in zip(e, base)), tuple(start))
    return lines


def _descend(walk: tuple, i: int, remaining: int, v: tuple[int, ...]) -> None:
    """Level i of `_ball_lines`' branch and bound: c_{i+1}..c_{r-1} are
    fixed in c, v is carried up to them, and e_i t_i^2 <= remaining bounds
    c_i, which decided[i] then cuts; level 0 records the cut line.  A plain
    function of its arguments, so a walk leaves no cycle for the
    collector."""
    lines, c, base, q, A, e, rows, decided = walk
    # e_i t^2 <= remaining  <=>  |t| <= isqrt(remaining // e_i) for int t
    qi, ei, a_row = q[i], e[i], A[i]
    p = base[i] + sum(map(mul, a_row[i + 1:], c[i + 1:]))
    s = math.isqrt(remaining // ei)
    lo, hi = -((s + p) // qi), (s - p) // qi
    row = rows[i]
    for j in decided[i]:
        if lo > hi:
            return
        x, d = v[j], row[j]
        if j == i:
            # G_ii > 0, so s_i < 0 can hold on c_i >= 1 only if it holds at
            # c_i = 1, and else s_i >= 0 only on c_i <= 0
            positive = x + d < 0
            lo, hi = (max(lo, 1), hi) if positive else (lo, min(hi, 0))
        else:
            positive = c[j] > 0
        if positive:  # s_j < 0
            lo, hi = negative_interval(x, d, lo, hi)
        else:  # s_j >= 0, that is -s_j - 1 < 0
            lo, hi = negative_interval(-x - 1, -d, lo, hi)
    if lo > hi:
        return
    # tuples, so that the candidate ball's empty vector is always the one ()
    v = tuple([x + lo * y for x, y in zip(v, row)])
    if i == 0:
        c[0] = lo
        lines.append((tuple(c), hi - lo + 1, v))
        return
    for ci in range(lo, hi + 1):
        if ci > lo:
            v = tuple(map(add, v, row))
        c[i] = ci
        t = qi * ci + p
        _descend(walk, i - 1, remaining - ei * t * t, v)


def _ball_coefficients(
    X: WonderfulVariety, lam: Weight, k: int
) -> list[tuple[int, ...]]:
    """All integer c with c^T G c + k c^T b <= 0, where G is the spherical
    Gram matrix and b_i = (lam + rho, gamma_i), in lexicographic order: the
    points of `_ball_lines`, expanded and sorted.

    k = 1 is the witness ball (mu + rho, mu - lam) <= 0 that holds every
    contributing pair; k = 2 is the ball |mu + rho| <= |lam + rho| that
    `enumerate_candidates` returns (see the module docstring).  c = 0 is on
    the boundary of both, so the result is never empty.
    """
    if X.rank == 0:
        return [()]
    lines = _ball_lines(X, X.sign_pairings(lam), k)
    return sorted((c0, *rest) for (lo, *rest), n, _ in lines for c0 in range(lo, lo + n))


def enumerate_candidates(X: WonderfulVariety, lam: Sequence[int]) -> list[Weight]:
    """All mu = lam + sum c_i gamma_i (c integral) with |mu + rho| <= |lam + rho|:
    a finite superset of the contributing weights (see the module docstring),
    in lexicographic order of c."""
    lam = X.require_pic(lam)
    sigma = X.spherical_roots
    if not sigma:
        return [tuple(lam)]
    step = sigma[0]
    lines = _ball_lines(X, X.sign_pairings(lam), 2, lam, sigma)
    # lexicographic in c: the lines in order of c_1..c_{r-1}, each dealt
    # into one column per c_0, stepping mu by gamma_0
    lines.sort(key=lambda line: line[0][1:])
    first = min(c[0] for c, _, _ in lines)
    end = max(c[0] + n for c, n, _ in lines)
    columns: list[list[Weight]] = [[] for _ in range(first, end)]
    for (lo, *_), n, mu in lines:
        for column in columns[lo - first:lo - first + n]:
            column.append(mu)
            mu = tuple(map(add, mu, step))
    return list(itertools.chain.from_iterable(columns))


def _chamber(g: RootSystem, mu: Weight, inversions: int) -> tuple[int, tuple[Weight, ...]]:
    """(length, matrix rows) of the Weyl element w taking the regular mu + rho
    into the dominant chamber: one chamber walk, its word applied to the
    identity.  The walk's length must equal the inversion count of mu + rho."""
    made = g.make_dominant_shifted(mu)
    if made is None:
        raise InvariantError("chamber walk calls a regular mu + rho singular")
    _, length, word = made
    if length != inversions:
        raise InvariantError("length mismatch between pairing rows and walk")
    simple = tuple(zip(*g.cartan))  # alpha_i: column i of the Cartan matrix
    cols = [tuple(int(i == j) for i in range(g.rank)) for j in range(g.rank)]
    for i in word:  # s_i v = v - v_i alpha_i
        cols = [translate(v, (-v[i],), (simple[i],)) for v in cols]
    return length, tuple(zip(*cols))


class Walk(NamedTuple):
    """The tables of a variety's witness walk; see `_walk`."""

    rows: tuple[tuple[int, ...], ...]
    decided: tuple[tuple[int, ...], ...]
    step: tuple[Weight, tuple[int, ...]]
    moving: tuple[int, ...]
    fixed: tuple[int, ...]
    chambers: dict
    form: Optional[tuple]  # (form, q, A, e) of `_ball_lines`
    classes: tuple[tuple[int, ...], ...]  # positive coroot indices per carried class
    tails: tuple[int, ...]  # tails[j - 2]: the first class of size >= j
    inert: int  # the product of the inert coroots' heights
    heights: tuple[int, ...]  # <rho, alpha_c^vee> per carried class
    columns: tuple[tuple[int, ...], ...]  # column i: <omega_i, alpha_c^vee> per class


def _walk(X: WonderfulVariety) -> Walk:
    """The tables of X's witness walk, built in integers on X's first
    evaluation into `X._walk`.

    classes lists, by index in the frozen order of the roots, the positive
    coroots of each class the walk carries: those that agree in their
    pairings with every gamma_i and pic_j and in their height, and so pair
    alike with every mu + rho, mu in pic(X) + Z Sigma (see the module
    docstring).  The classes are ordered by size, then by first coroot, so
    the classes of size at least j are the entries from tails[j - 2] on,
    j = 2 up to the largest size; inert is the product of the heights of
    the inert coroots, which leave the walk.  heights and columns hold the
    height and the coroot row of each class's first coroot, the rows as
    columns, which `_class_pairings` reads.

    One unit of c_i adds rows[i] = (G_i, <gamma_i, alpha_c^vee>_c, gamma_i)
    to the state (s, class pairings, mu) of `_ball_lines`, G being the
    symmetric integer sign Gram matrix.  decided[i] lists the sign rows j
    that c_i moves first (G_jk = 0 for k < i), so c_i fixes s_j and c_j
    (j >= i, as G_jj > 0); a zero row, which validation rejects, goes to
    level 0.  step is one step of c_0, (gamma_0, <gamma_0, alpha_c^vee>_c),
    ((), ()) at rank 0; only the classes in `moving`, whose pairings it
    moves, can end a stretch of `_stretches`, and `fixed` holds the rest.
    chambers maps an inversion set of the class pairings of mu + rho to
    (length, matrix of w, w(gamma_0)) for the w making mu + rho dominant;
    `_stretches` fills it.  form is the witness ball's quadric
    (form, q, A, e) of `_ball_lines`, from G and its inverse, and None when
    G is singular, which validation rejects."""
    walk = X._walk
    if walk is None:
        g, sigma, gram = X.group, X.spherical_roots, X._gamma_sign_gram
        by_key: dict[tuple, list[int]] = {}
        for k, (a, height) in enumerate(zip(g._coroot_rows, g._rho_pairings)):
            key = (row_products(sigma, a), row_products(X.pic_basis, a), height)
            by_key.setdefault(key, []).append(k)
        classes, inert = [], 1
        for (on_sigma, on_pic, height), ks in by_key.items():
            if any(on_sigma) or any(on_pic):
                classes.append(tuple(ks))
            else:
                inert *= height ** len(ks)
        classes.sort(key=len)
        sizes = list(map(len, classes))
        tails = tuple(bisect.bisect_left(sizes, j) for j in range(2, max(sizes, default=1) + 1))
        coroots = [g._coroot_rows[ks[0]] for ks in classes]
        coroot = [row_products(coroots, gam) for gam in sigma]
        decided: list[list[int]] = [[] for _ in sigma]
        for j, g_row in enumerate(gram):
            decided[next((k for k, x in enumerate(g_row) if x), 0)].append(j)
        step = next(zip(sigma, coroot), ((), ()))
        rows = tuple((*g_row, *pair_row, *gam) for g_row, pair_row, gam in zip(gram, coroot, sigma))
        moving = tuple(k for k, d in enumerate(step[1]) if d)
        fixed = tuple(k for k, d in enumerate(step[1]) if not d)
        form = _ball_form(gram, X._gamma_sign_gram_inv) if X._sigma_pos_def else None
        walk = X._walk = Walk(
            rows, tuple(map(tuple, decided)), step, moving, fixed, {}, form,
            tuple(classes), tails, inert,
            tuple(g._rho_pairings[ks[0]] for ks in classes), tuple(zip(*coroots)),
        )
    return walk


def _class_pairings(X: WonderfulVariety, lam: Weight) -> tuple[int, ...]:
    """<lam + rho, alpha^vee> for the first coroot of each class of X's
    walk, which every coroot of the class shares for lam in pic(X):
    `exactalg.translate` in column form, from the class heights by the
    class columns."""
    walk = _walk(X)
    return translate(walk.heights, lam, walk.columns)


def _ball_form(gram: Sequence[Sequence[int]], inverse: ScaledMatrix) -> tuple:
    """(form, q, A, e) of `_ball_lines` from the positive definite integer
    sign Gram matrix G and its inverse G^-1 = rows / den, both solved at
    descriptor build.  Only the LDL^T of G runs on Fractions."""
    L, d = ldl([[Fraction(x) for x in row] for row in gram])
    rows, den = inverse
    form, q, A = [], [], []
    for col in zip(*L):
        # row i of M = L^T G^-1 / 2 is N / m, G^-1 = rows / den being
        # symmetric, with column i of L as C / l
        (C,), l = int_scaled([col])
        N = row_products(rows, C)
        m = 2 * den * l
        qi = math.lcm(l, m // math.gcd(m, *N))
        form.append(tuple(qi * x // m for x in N))
        q.append(qi)
        A.append(tuple(qi // l * x for x in C))
    e = [di / (qi * qi) for di, qi in zip(d, q)]
    S = math.lcm(*(x.denominator for x in e))
    return tuple(form), tuple(q), tuple(A), tuple(int(S * x) for x in e)


def _sign_runs(
    X: WonderfulVariety, lam: Weight
) -> Iterator[tuple[tuple[int, ...], int, list[int], tuple[int, ...], Weight]]:
    """Per line of the witness ball, its run of c_0 that keeps the sign
    pattern, certified at its ends: (c, n, sig, pair, mu) at the run's first
    point c, n >= 1 points long, in the order of the unpruned walk.  The
    runs are the lines of `_ball_lines`, cut by the decided rows of `_walk`.
    The state (sig, pair, mu) they carry is built and sliced here alone:
    at lam it is `X.sign_pairings(lam)`, the class pairings of
    `_class_pairings` and lam.  Each run is checked again here against
    every sign row.  Rank 0 has one run, the point c = ()."""
    walk = _walk(X)
    rows = walk.rows
    sig = X.sign_pairings(lam)
    base_pair = _class_pairings(X, lam)
    r, m = X.rank, X.rank + len(base_pair)
    for c, n, v in _ball_lines(X, sig, 1, (*sig, *base_pair, *lam), rows, walk.decided):
        s = list(v[:r])
        # the sign cone fixes J = {i : c_i > 0}; the omega signature must
        # equal it.  A run on one side of c_0 = 0 has one J, and each s_i is
        # affine along it, by G_0i, the head of rows[0], per step; so the
        # pattern holds on the run if it holds at both ends
        signs = [ci > 0 for ci in c]
        if [x < 0 for x in s] != signs or (
            n > 1
            and (
                (c[0] + n - 1 > 0) != signs[0]
                or [x + (n - 1) * y < 0 for x, y in zip(s, rows[0])] != signs
            )
        ):
            raise InvariantError("the sign cut kept a point off the sign pattern")
        yield c, n, s, tuple(v[r:m]), tuple(v[m:])


def _stretches(
    X: WonderfulVariety, lam: Weight
) -> Iterator[tuple[tuple[int, ...], int, int, Weight, Weight, Sequence[int], Weight, int]]:
    """The witnesses of lam as chamber stretches, checked at their ends:
    (J, length, degree, mu, mu_plus, pair, w_step, m) for m >= 1
    consecutive witnesses along c_0 with one inversion key, at the first of
    them.  pair holds the class pairings of `_walk`.  Along the stretch mu
    moves by gamma_0, the class pairings by <gamma_0, alpha_c^vee> and
    mu_plus by w_step = w(gamma_0)."""
    g = X.group
    tables = _walk(X)
    mu_step, pair_step = tables.step
    moving, fixed, chambers, classes = tables.moving, tables.fixed, tables.chambers, tables.classes
    for c, n, _, pair, mu in _sign_runs(X, lam):
        if 0 in pair and 0 in [pair[k] for k in fixed]:
            continue  # a class that does not move pairs to 0 all along the run
        J = tuple([i for i, ci in enumerate(c) if ci > 0])
        t = 0  # offset of the point at mu and pair from the run's start
        while True:
            if 0 in pair:
                m = 1  # mu + rho singular: skip the point
            else:
                # the stretch ends where the first pairing that moves toward
                # 0 reaches or crosses it: p + s d keeps its sign for the
                # -(p // d) points s >= 0 when p and d have opposite signs
                m = n - t
                if m > 1:
                    for k in moving:
                        p, d = pair[k], pair_step[k]
                        if (p < 0) == (d > 0):
                            m = min(m, -(p // d))
                if m < 1:
                    raise InvariantError("empty chamber stretch")
                key = tuple([p < 0 for p in pair])
                walk = chambers.get(key)
                fresh = walk is None
                if fresh:
                    # l(mu) counts every coroot of each negative class
                    length, w = _chamber(g, mu, sum(map(len, itertools.compress(classes, key))))
                    walk = (length, w, tuple(sum(map(mul, row, mu_step)) for row in w))
                length, w, w_step = walk
                degree = length + len(J)
                if not 0 <= degree <= X.dimension_N:
                    raise InvariantError("degree outside [0, N]")
                shifted = [x + 1 for x in mu]
                mu_plus = tuple(sum(map(mul, row, shifted)) - 1 for row in w)
                # mu^+ is affine along the stretch and only the right w
                # makes w(mu + rho) strictly dominant, so its two ends
                # certify every witness in between
                if min(mu_plus) < 0 or (
                    m > 1 and min(x + (m - 1) * y for x, y in zip(mu_plus, w_step)) < 0
                ):
                    raise InvariantError("w(mu + rho) is not dominant")
                if fresh:
                    # stored only once this stretch has certified the walk,
                    # so a failed or patched walk never serves a later
                    # evaluation of X; each reuse is certified again above
                    chambers[key] = walk
                yield J, length, degree, mu, mu_plus, pair, w_step, m
            t += m
            if t >= n:
                break
            if m == 1:  # a singular point or a one-witness stretch: one C-level add
                pair = list(map(add, pair, pair_step))
                mu = tuple(map(add, mu, mu_step))
            else:
                pair = [p + m * d for p, d in zip(pair, pair_step)]
                mu = tuple([x + m * y for x, y in zip(mu, mu_step)])


# the least stretch length m that `_witnesses_by_degree` expands by C
# iterators.  Its time per witness over the per-step loop's, timed in
# process on one stretch at 3 to 21 class pairings (CPython 3.11, Xeon):
# 2.0-2.5 at m = 2, 0.89-1.22 at m = 5, 0.77-1.08 at m = 6, 0.71-1.03 at
# m = 7, 0.66-0.93 at m = 8, 0.59-0.80 at m = 14 and 0.49-0.72 at m = 22,
# E6/F4, the widest, at the top of each range from m = 5 on
_C_STRETCH = 7


def _witnesses_by_degree(X: WonderfulVariety, lam: Weight) -> dict[int, list[Contribution]]:
    """The certified pairs (J, mu) of lam, a weight of pic(X), per degree, in
    the order `_stretches` yields them.

    Every field of a stretch's records steps along an arithmetic
    progression.  A witness's Weyl numerator is the product of the inert
    heights times prod_c p_c^{m_c} over its class pairings p_c, m_c being
    the class sizes of `_walk`: the product of all p_c, times that of the
    p_c from each of `_walk`'s tails on.  A stretch of at least
    `_C_STRETCH` witnesses is expanded by C iterators: one `count` per entry
    of mu and mu^+ and per class pairing and tail that holds it, the
    numerators by `math.prod` and the records by one `map`, and all its
    numerators are checked for divisibility before any is divided.  A
    shorter stretch takes one Python step per witness, which is faster
    there (the measurement is at `_C_STRETCH`)."""
    den = X.group._weyl_den
    tables = _walk(X)
    mu_step, pair_step = tables.step
    tails, inert = tables.tails, tables.inert
    by_degree: dict[int, list[Contribution]] = {}
    for J, length, degree, mu, mu_plus, pair, w_step, m in _stretches(X, lam):
        witnesses = by_degree.setdefault(degree, [])
        if m >= _C_STRETCH:
            # one column per class, and one more per tail that holds it
            columns = list(map(count, pair, pair_step))
            for s in tails:
                columns += map(count, pair[s:], pair_step[s:])
            prods = list(map(abs, map(math.prod, islice(zip(repeat(inert), *columns), m))))
            if any(map(den.__rmod__, prods)):
                raise InvariantError("pairing product is not a Weyl dimension numerator")
            # mu and mu^+ step without end: the m dimensions end the records
            records = zip(
                repeat(J), zip(*map(count, mu, mu_step)), repeat(length),
                zip(*map(count, mu_plus, w_step)), repeat(degree), map(den.__rfloordiv__, prods),
            )
            witnesses.extend(map(_new_contribution, records))
            continue
        append = witnesses.append
        for step in range(m):
            if step:
                mu = tuple(map(add, mu, mu_step))
                mu_plus = tuple(map(add, mu_plus, w_step))
                pair = list(map(add, pair, pair_step))
            numerator = inert * math.prod(pair)
            for s in tails:
                numerator *= math.prod(pair[s:])
            dimension, rem = divmod(abs(numerator), den)
            if rem:
                raise InvariantError("pairing product is not a Weyl dimension numerator")
            append(_new_contribution((J, mu, length, mu_plus, degree, dimension)))
    return by_degree


def _degree_group(degree: int, conts: list[Contribution]) -> DegreeGroup:
    """H^degree from its contributions, which are sorted in place: one
    constituent per highest weight, in order, with shared witnesses ordered
    by (J bitmask, mu)."""
    conts.sort(key=itemgetter(3))  # by mu_plus
    hws = list(map(itemgetter(3), conts))
    if not any(map(eq, hws, islice(hws, 1, None))):
        # every highest weight once: one one-witness constituent per record
        dims = list(map(itemgetter(5), conts))
        constituents = tuple(map(_new_constituent, zip(hws, repeat(1), dims, zip(conts))))
        return DegreeGroup(degree, constituents, sum(dims))
    shared = []
    for hw, wits in itertools.groupby(conts, key=itemgetter(3)):
        wits = sorted(wits, key=lambda t: (t.j_bitmask(), t.mu))
        shared.append(Constituent(hw, len(wits), wits[0].dimension, tuple(wits)))
    total = sum(c.multiplicity * c.dimension for c in shared)
    return DegreeGroup(degree, tuple(shared), total)


# (X, table) for the table the last `cohomology_table` built, or None while
# it walks; see the module docstring
_last: Optional[tuple[WonderfulVariety, CohomologyTable]] = None


def _last_table(X: WonderfulVariety, lam: Weight) -> Optional[CohomologyTable]:
    """The table in the slot when it is X's at lam, else None."""
    last = _last  # one read, so a concurrent write cannot split the pair
    if last is not None and last[0] is X and last[1].lam == lam:
        return last[1]
    return None


def clear_last_table() -> None:
    """Empty the slot, so the next `cohomology_table` walks and the last
    table and its variety are no longer kept alive by this module."""
    global _last
    _last = None


def contributions(X: WonderfulVariety, lam: Sequence[int]) -> list[Contribution]:
    """All certified pairs (J, mu) for lam, in canonical order: by degree,
    then by mu.  Read from the last `cohomology_table` when it is X's at
    lam; a walk made here does not replace that table."""
    lam = X.require_pic(lam)
    table = _last_table(X, lam)
    if table is not None:
        return table.witnesses()
    by_degree = _witnesses_by_degree(X, lam)
    out: list[Contribution] = []
    for degree in sorted(by_degree):
        out += sorted(by_degree[degree], key=itemgetter(1))
    return out


def cohomology_table(X: WonderfulVariety, lam: Sequence[int]) -> CohomologyTable:
    """The cohomology decomposition of L_lam, built in one pass that sorts
    each degree once.  The last table built is kept, and a call for the
    same X and lam returns that same object; a miss empties the slot before
    it walks and fills it only with a complete table.  The kept table and X
    stay alive until the next miss or `clear_last_table()`."""
    global _last
    lam = X.require_pic(lam)
    table = _last_table(X, lam)
    if table is None:
        _last = None
        by_degree = _witnesses_by_degree(X, lam)
        groups = tuple(_degree_group(d, by_degree[d]) for d in sorted(by_degree))
        table = CohomologyTable(lam, groups)
        _last = X, table
    return table


def serre_dual_weight(X: WonderfulVariety, lam: Sequence[int]) -> Weight:
    """Weight of the Serre-dual line bundle, `X.serre_dual(lam)`; an
    involution on pic(X)."""
    return X.serre_dual(lam)


def serre_partner(X: WonderfulVariety, t: Contribution) -> tuple[tuple[int, ...], Weight]:
    """The witness (J*, mu*) paired with (J, mu) under the duality involution."""
    jstar = tuple(i for i in range(X.rank) if i not in t.J)
    mustar = tuple(-x - y for x, y in zip(t.mu, X.two_rho_X))
    return jstar, mustar
