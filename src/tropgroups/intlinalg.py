"""Exact integer linear algebra on immutable tuples.

Vectors are tuples of ``int`` or ``Fraction``; matrices are tuples of row
tuples.  An integer matrix acts on a rational vector as it is: an ``int``
times a ``Fraction`` is an exact ``Fraction``.  Everything here is
deterministic and exact: integer numerators over one denominator, and exact
solves on them through a left inverse (``solve_scaled``), one elimination
engine (the fraction-free RREF ``integer_rref``, with a solve and an
inverse), Smith normal form u·b·v = d, which records its row operations so
that the unimodular u and its inverse u⁻¹ are formed only by a replay of
them (v is not formed), integer orbit sums under a finite-order integer
matrix a (from one walk of an orbit, the orbit mean and the group inverse of
1 − a over the period), and quotient lattices ℤⁿ/L with mixed torsion/free
coordinates, whose invariant factors are read off the diagonal alone and
whose lifts are the columns of u⁻¹, replayed on first use, so no inverse is
solved for.  Vectors are built from lists: a tuple built from a generator is
allocated at a guessed length and shrunk, which is slower and fills
CPython's per-length tuple free lists.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction as Q
from math import gcd, lcm
from typing import Optional, Sequence

Vec = tuple
Mat = tuple


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple([x + y for x, y in zip(a, b, strict=True)])


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple([x - y for x, y in zip(a, b, strict=True)])


def vec_neg(a: Vec) -> Vec:
    return tuple([-x for x in a])


def vec_scale(c, a: Vec) -> Vec:
    return tuple([c * x for x in a])


def vec_dot(a: Vec, b: Vec):
    if len(a) != len(b):
        raise ValueError(f"vec_dot: lengths {len(a)} and {len(b)} differ")
    return sum(map(operator.mul, a, b))


def is_zero_vec(a: Vec) -> bool:
    return not any(a)


def matrix(rows) -> Mat:
    return tuple([tuple(r) for r in rows])


def identity_matrix(n: int) -> Mat:
    return tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)])


def zero_matrix(m: int, n: int) -> Mat:
    return tuple((0,) * n for _ in range(m))


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def mat_vec(a: Mat, v: Vec) -> Vec:
    return tuple([vec_dot(row, v) for row in a])


def mat_sub(a: Mat, b: Mat) -> Mat:
    return tuple([vec_sub(ra, rb) for ra, rb in zip(a, b, strict=True)])


def integer_rref(a: Mat) -> tuple[Mat, int, tuple[int, ...]]:
    """(N, d, pivots): N/d with d > 0 is the reduced row echelon form over ℚ
    of the integer matrix a, and pivots are its pivot columns.

    Fraction-free Gauss–Jordan (Bareiss, Math. Comp. 22, 1968): at pivot p,
    every other row becomes (p·row − f·pivot row)/p', f its entry in the
    pivot column and p' the previous pivot.  Every entry stays a minor of a,
    so the division is exact, and each pivot row ends with the last pivot d
    at its pivot column and 0 at the others.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [list(row) for row in a]
    pivots = []
    d = 1
    for c in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, top)]
        d = p
        pivots.append(c)
    if d < 0:
        rows, d = [[-x for x in row] for row in rows], -d
    return matrix(rows), d, tuple(pivots)


def rref_solve(a: Mat, b: Vec) -> Optional[Vec]:
    """The rational solution x of a·x = b, for an integer matrix a and a
    vector b of ints or Fractions, that sets every free variable of the RREF
    to 0; None if a·x = b has no solution."""
    n = len(a[0]) if a else 0
    y, s = integer_numerators(b)
    num, d, pivots = integer_rref(tuple([(*row, v) for row, v in zip(a, y, strict=True)]))
    if pivots and pivots[-1] == n:
        return None
    x = [Q(0)] * n
    for row, c in zip(num, pivots):
        x[c] = Q(row[n], d * s)
    return tuple(x)


def rref_inverse(a: Mat) -> tuple[Mat, int]:
    """(N, d) with N/d = a⁻¹ and d > 0 for a square integer matrix a, read off
    the RREF of [a | 1], not reduced to lowest terms; a ValueError if a is
    singular."""
    n = len(a)
    num, d, pivots = integer_rref(tuple([(*row, *unit) for row, unit in zip(a, identity_matrix(n), strict=True)]))
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple([row[n:] for row in num]), d


def integer_numerators(v: Vec) -> tuple[tuple[int, ...], int]:
    """(n, d) with v = n/d: the entries of a vector of ints or Fractions as
    integer numerators over the lcm d of their denominators."""
    d = lcm(*[x.denominator for x in v])
    return tuple([x.numerator * (d // x.denominator) for x in v]), d


def lowest_terms(num: Mat, d: int) -> tuple[Mat, int]:
    """(N/g, d/g) for the gcd g of d > 0 and every entry of N: the matrix N/d
    in lowest terms, with d/g the lcm of the denominators of its entries."""
    g = gcd(d, *[x for row in num for x in row])
    return tuple([tuple([x // g for x in row]) for row in num]), d // g


def solve_scaled(a: tuple[Mat, int], left: tuple[Mat, int], y: Vec) -> Optional[Vec]:
    """X = L·y for an integer vector y, or None unless y/s lies in the image
    of a = (N, d), for any s > 0, through a left inverse left = (L, e) with
    (L/e)·(N/d) = 1: the only candidate x with (N/d)·x = y/s is X/(e·s), and
    it is one iff N·X = d·e·y."""
    (num, d), (inv, e) = a, left
    x = mat_vec(inv, y)
    return x if mat_vec(num, x) == tuple([d * e * v for v in y]) else None


def smith_normal_form(a: Mat) -> tuple[Mat, tuple[tuple[int, ...], ...]]:
    """Smith normal form: returns (d, ops) with u·a·v = d for unimodular
    integer matrices u and v, which are not formed.

    d is diagonal with nonnegative entries d₁ | d₂ | ….  ops are the row
    operations on a, in order, from which ``snf_transforms`` forms u and
    u⁻¹: (i, k, q) subtracts q·row k from row i, (i, k) swaps rows i and k,
    and (t,) negates row t.  The column operations touch d alone.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    ops: list = []

    def row_sub(i, k, q):
        if q:
            d[i] = [x - q * y for x, y in zip(d[i], d[k])]
            ops.append((i, k, q))

    def col_sub(j, k, q):
        for row in d:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        if i != k:
            d[i], d[k] = d[k], d[i]
            ops.append((i, k))

    def swap_cols(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]

    t = 0
    while True:
        # locate the first smallest nonzero entry of the trailing block; none is
        # smaller than a unit
        piv = None
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                e = row[j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            moved = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_sub(i, t, q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        moved = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_sub(j, t, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        moved = True
            if not moved:  # every remainder was 0: row and column t are clear
                break
        # enforce divisibility of the trailing block by the pivot, which a unit
        # pivot divides
        bad = None
        for i in range(t + 1, m) if abs(d[t][t]) != 1 else ():
            for j in range(t + 1, n):
                if d[i][j] % d[t][t] != 0:
                    bad = j
                    break
            if bad is not None:
                break
        if bad is not None:
            # mix the offending column into column t and redo this pivot
            col_sub(t, bad, -1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            ops.append((t,))
        t += 1
        if t == min(m, n):
            break
    return matrix(d), tuple(ops)


def snf_transforms(ops: Sequence[tuple[int, ...]], m: int) -> tuple[Mat, Mat]:
    """(u, u⁻¹) for the row operations ops of ``smith_normal_form`` on a
    matrix of m rows, replayed in order from the identity: each operation
    on the rows of u is mirrored onto u⁻¹ as the inverse column operation."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    u_inv = [[int(i == j) for j in range(m)] for i in range(m)]  # by columns: u_inv[k] is column k of u⁻¹
    for op in ops:
        if len(op) == 3:  # row i −= q·row k, so column k of u⁻¹ += q·column i
            i, k, q = op
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]
            u_inv[k] = [x + q * y for x, y in zip(u_inv[k], u_inv[i])]
        elif len(op) == 2:
            i, k = op
            u[i], u[k] = u[k], u[i]
            u_inv[i], u_inv[k] = u_inv[k], u_inv[i]
        else:
            (t,) = op
            u[t] = [-x for x in u[t]]
            u_inv[t] = [-x for x in u_inv[t]]
    return matrix(u), transpose(u_inv)


def diagonal_of(d: Mat) -> tuple[int, ...]:
    k = min(len(d), len(d[0]) if d else 0)
    return tuple(d[i][i] for i in range(k))


class QuotientLattice:
    """The quotient ℤⁿ/L for L spanned by given integer generators.

    Its invariant factors (torsion entries > 1 plus the free rank) are read
    off the diagonal of one Smith normal form.  The projection sending any
    vector to reduced coordinates (torsion coordinates mod their invariant
    factor, followed by the free coordinates) and the lifts need u and u⁻¹,
    which ``transforms`` replays from the form's row operations on the first
    call to ``project``, ``free_part`` or ``representatives``: an infinite
    quotient, of which the classification reads only the invariant factors,
    never forms them.
    """

    def __init__(self, ambient_rank: int, generators: Sequence[Vec]):
        self.rank = ambient_rank
        gens = [g for g in generators if not is_zero_vec(g)]
        b = transpose(gens) if gens else zero_matrix(ambient_rank, 1)
        d, self._ops = smith_normal_form(b)
        diag = (list(diagonal_of(d)) + [0] * ambient_rank)[:ambient_rank]  # one entry per row
        self._torsion_rows = tuple(i for i, e in enumerate(diag) if e > 1)
        self._free_rows = tuple(i for i, e in enumerate(diag) if e == 0)
        self.torsion = tuple(diag[i] for i in self._torsion_rows)
        self.free_rank = len(self._free_rows)

    @functools.cached_property
    def transforms(self) -> tuple[Mat, Mat]:
        """(u, u⁻¹) of the Smith normal form, with the sign of each free row of
        u normalized (its first nonzero entry positive) for a deterministic
        projection: a free row that starts negative is negated by one more
        row operation, replayed with the others, which negates the matching
        column of u⁻¹ too, so that the two stay inverse."""
        u, u_inv = snf_transforms(self._ops, self.rank)
        flips = tuple([(i,) for i in self._free_rows if next((x for x in u[i] if x != 0), 1) < 0])
        return snf_transforms(self._ops + flips, self.rank) if flips else (u, u_inv)

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """Torsion factors followed by one 0 per free summand."""
        return self.torsion + (0,) * self.free_rank

    @property
    def order(self) -> Optional[int]:
        """Number of elements, or None when the quotient is infinite."""
        if self.free_rank:
            return None
        prod = 1
        for e in self.torsion:
            prod *= e
        return prod

    def project(self, x: Vec) -> Vec:
        """Reduced coordinates of x in the quotient (torsion mod d, then free)."""
        z = mat_vec(self.transforms[0], x)
        tor = tuple(z[i] % d for i, d in zip(self._torsion_rows, self.torsion))
        return tor + tuple(z[i] for i in self._free_rows)

    def free_part(self, x: Vec) -> Vec:
        """Free coordinates of a rational vector under the induced ℚ-projection."""
        z = mat_vec(self.transforms[0], x)
        return tuple(z[i] for i in self._free_rows)

    def representatives(self):
        """One integral lift per element; only for finite quotients.  The lift
        of torsion coordinates z is u⁻¹·z: the columns of u⁻¹ at the torsion
        rows, which ``transforms`` replays, equal to those of b·v over dᵢ, as
        b·v = u⁻¹·d."""
        if self.free_rank:
            raise ValueError("quotient is infinite")
        lift = [[row[i] for i in self._torsion_rows] for row in self.transforms[1]]
        # the last torsion coordinate runs fastest
        return tuple([mat_vec(lift, idx) for idx in itertools.product(*[range(e) for e in self.torsion])])


def orbit_sums(a: Mat, x: Vec) -> tuple[int, Vec, Vec]:
    """(p, s, g) from one walk of the orbit x, a·x, …, a^{p−1}·x of an
    integer vector under an integer matrix a of finite order, one period p
    long (p divides the order of a): s = Σ aⁱ·x and g = Σ (p − 1 − 2i)·aⁱ·x,
    both integer vectors.

    With A = 1 − a, the orbit mean P·x = s/p is the projection onto ker A
    along im A, and the group inverse A^#, which inverts A on im A and is zero
    on ker A, gives A^#·x = g/2p.
    """
    xs, y = [x], mat_vec(a, x)
    while y != x:
        if len(xs) == 10_000:
            raise ValueError("orbit of x has no period up to 10000: the matrix is not of finite order")
        xs.append(y)
        y = mat_vec(a, y)
    p, cols = len(xs), list(zip(*xs))
    weights = range(p - 1, -p, -2)
    return p, tuple([sum(col) for col in cols]), tuple([sum(map(operator.mul, weights, col)) for col in cols])
