"""Integer linear algebra that only the tests use: the Fraction
Gauss–Jordan elimination (RREF, solve, kernel, inverse) that the library's
fraction-free integer RREF replaced, with the scaling of a Fraction matrix to
integer numerators over one denominator, determinants, the Smith normal form
that carries v, integer solves through it and lattice indices, the order of
a matrix by its powers, the orbit mean and group inverse under a
finite-order matrix as rational orbit sums, the rational-inverse paths that
the library's integer ones replaced (SO_2n coordinates and the lifts of a
finite quotient lattice), a quotient lattice read off the v-carrying Smith
normal form with every transform formed at once, and the action of a Weyl
element on characters."""

from __future__ import annotations

from fractions import Fraction as Q
from math import lcm
from typing import Optional

from tropgroups import intlinalg as la
from tropgroups import rootdata as rd
from tropgroups.errors import InvariantError
from tropgroups.intlinalg import Mat, Vec


def rational_rref(a: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form over ℚ; returns (rref, pivot column indices)."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[Q(x) for x in row] for row in a]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return la.matrix(rows), tuple(pivots)


def rational_solve(a: Mat, b: Vec) -> Optional[Vec]:
    """One rational solution x of a·x = b, or None if inconsistent."""
    m = len(a)
    n = len(a[0]) if m else 0
    aug = tuple([tuple(list(row) + [bv]) for row, bv in zip(a, b, strict=True)])
    rref, pivots = rational_rref(aug)
    x = [Q(0)] * n
    for i, pc in enumerate(pivots):
        if pc == n:
            return None
        x[pc] = rref[i][n]
    # rows beyond the pivots are zero rows of the rref, consistency is implied
    return tuple(x)


def rational_kernel(a: Mat) -> tuple[Vec, ...]:
    """Basis of the rational kernel of a (as row-operated echelon free columns)."""
    m = len(a)
    n = len(a[0]) if m else 0
    rref, pivots = rational_rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Q(0)] * n
        v[fc] = Q(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rref[i][fc]
        basis.append(tuple(v))
    return tuple(basis)


def rational_inverse(a: Mat) -> Mat:
    n = len(a)
    aug = tuple(tuple(list(map(Q, row)) + [Q(int(i == j)) for j in range(n)]) for i, row in enumerate(a))
    rref, pivots = rational_rref(aug)
    if len(pivots) != n or any(p >= n for p in pivots):
        raise ValueError("matrix is singular")
    return tuple(tuple(rref[i][n:]) for i in range(n))


def scaled(a: Mat) -> tuple[Mat, int]:
    """(N, d) with a = N/d: the entries of a matrix of ints or Fractions as
    integer numerators over the lcm d of their denominators."""
    d = lcm(*[x.denominator for row in a for x in row])
    return tuple([tuple([x.numerator * (d // x.denominator) for x in row]) for row in a]), d


def mat_is_integral(a: Mat) -> bool:
    return all(Q(x).denominator == 1 for row in a for x in row)


def mat_to_int(a: Mat) -> Mat:
    return tuple(tuple(int(x) for x in row) for row in a)


def char_action_matrix(datum: rd.RootDatum, w_cochar: Mat) -> Mat:
    """Matrix on character coordinates of the Weyl element with matrix
    w_cochar on cocharacter coordinates.

    Determined by ⟨w·u, w·v⟩ = ⟨u, v⟩, i.e. W_M = (Π W⁻¹ Π⁻¹)ᵀ.
    """
    pinv = rational_inverse(datum.pairing)
    winv = rational_inverse(w_cochar)
    m = la.transpose(la.mat_mul(la.mat_mul(datum.pairing, winv), pinv))
    if not mat_is_integral(m):
        raise InvariantError(f"Weyl element {w_cochar} acts non-integrally on characters: {m}")
    return mat_to_int(m)


def int_det(a: Mat) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def smith_normal_form_with_v(a: Mat) -> tuple[Mat, Mat, Mat]:
    """Smith normal form with both transforms: returns (d, u, v) with u·a·v = d,
    by the pivot steps of the library's ``smith_normal_form``, which records
    its row operations in place of u and v.

    d is diagonal with nonnegative entries d₁ | d₂ | …, and u, v are
    unimodular integer matrices.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_sub(i, k, q):
        d[i] = [x - q * y for x, y in zip(d[i], d[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]

    def col_sub(j, k, q):
        for row in d:
            row[j] -= q * row[k]
        for row in v:
            row[j] -= q * row[k]

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while True:
        # locate the smallest nonzero entry of the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                e = d[i][j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    piv = (i, j)
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
        # enforce divisibility of the trailing block by the pivot
        bad = None
        for i in range(t + 1, m):
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
            u[t] = [-x for x in u[t]]
        t += 1
        if t == min(m, n):
            break
    return la.matrix(d), la.matrix(u), la.matrix(v)


def integer_solve(a: Mat, b: Vec) -> Optional[tuple[Vec, tuple[Vec, ...]]]:
    """Solve a·x = b over ℤ.

    Returns (particular solution, basis of the integer kernel of a), or
    None when no integer solution exists.  The kernel basis spans the full
    (saturated) kernel lattice.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d, u, v = smith_normal_form_with_v(a)
    diag = la.diagonal_of(d)
    c = la.mat_vec(u, b)
    y = [0] * n
    rank = sum(1 for e in diag if e != 0)
    for i in range(m):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    x0 = la.mat_vec(v, tuple(y))
    cols = la.transpose(v)
    kernel = tuple(cols[i] for i in range(rank, n))
    return x0, kernel


def lattice_index(a: Mat) -> int:
    """Index of the image lattice of a full-column-rank integer map, 0 if rank-deficient."""
    d = la.smith_normal_form(a)[0]
    diag = [e for e in la.diagonal_of(d) if e != 0]
    if len(diag) < (len(a[0]) if a else 0):
        return 0
    prod = 1
    for e in diag:
        prod *= e
    return prod


def matrix_order(a: Mat) -> int:
    """Multiplicative order of an integer matrix of finite order, found by
    multiplying out its powers."""
    ident = la.identity_matrix(len(a))
    p, k = a, 1
    while p != ident:
        if k == 10_000:
            raise ValueError("matrix has no order up to 10000")
        p, k = la.mat_mul(p, a), k + 1
    return k


def orbit(a: Mat, x: Vec) -> list[Vec]:
    """The orbit x, a·x, a²·x, … of x under a matrix of finite order, one
    period long; the period divides the order of a."""
    out, y = [x], la.mat_vec(a, x)
    while y != x:
        if len(out) == 10_000:
            raise ValueError("orbit of x has no period up to 10000: the matrix is not of finite order")
        out.append(y)
        y = la.mat_vec(a, y)
    return out


def orbit_mean(a: Mat, x: Vec) -> Vec:
    """P·x, the mean of the orbit of x under a matrix a of finite order.

    P is the projection onto ker(1 − a) along im(1 − a).
    """
    xs = orbit(a, x)
    return tuple(Q(sum(col), len(xs)) for col in zip(*xs))


def group_inverse(a: Mat, x: Vec) -> Vec:
    """A^#·x for the group inverse A^# of A = 1 − a, a of finite order.

    A^# inverts A on im A and is zero on ker A, so A·A^#·x = x − P·x and
    P·A^#·x = 0.  On an orbit of period p, A^#·x = Σ_{i<p} (p − 1 − 2i)·aⁱ·x / 2p.
    """
    xs = orbit(a, x)
    p = len(xs)
    return tuple(Q(sum((p - 1 - 2 * i) * y for i, y in enumerate(col)), 2 * p) for col in zip(*xs))


def so_even_datum_by_inverse(n: int) -> rd.RootDatum:
    """The SO_2n root datum with every coordinate read off the rational
    inverses of the two lattice bases: e_t − e_{t+1} (t < n − 1) and
    e_{n−2} + e_{n−1} for the characters, e_i (i < n − 1) and (½,…,½) for the
    cocharacters."""

    from rootdata_oracles import sorted_datum  # imported here: rootdata_oracles imports this module

    def unit(i, c=1):
        return tuple(c if t == i else 0 for t in range(n))

    simple = [la.vec_sub(unit(t), unit(t + 1)) for t in range(n - 1)] + [la.vec_add(unit(n - 2), unit(n - 1))]
    char_basis = la.transpose(simple)
    cochar_basis = la.transpose([unit(i, Q(1)) for i in range(n - 1)] + [(Q(1, 2),) * n])
    char_inv, cochar_inv = rational_inverse(char_basis), rational_inverse(cochar_basis)

    def coords(inv, v):
        u = la.mat_vec(inv, v)
        if any(x.denominator != 1 for x in u):
            raise ValueError(f"{v} is not in the lattice")
        return tuple(int(x) for x in u)

    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    roots = [la.vec_add(unit(i, si), unit(j, sj)) for i in range(n) for j in range(i + 1, n) for si, sj in signs]
    pairs = [(coords(char_inv, v), coords(cochar_inv, v)) for v in roots]
    pairing = mat_to_int(la.mat_mul(la.transpose(char_basis), cochar_basis))
    simple_coords = [coords(char_inv, v) for v in simple]
    return sorted_datum(pairs, simple_coords, pairing, ("SO_even", n))


def representatives_by_inverse(quot: la.QuotientLattice) -> tuple[Vec, ...]:
    """The lifts of QuotientLattice.representatives through a rational
    inverse of its u (or of an EagerQuotient's): u⁻¹ applied to every torsion
    coordinate vector, counted up with the last torsion coordinate running
    fastest."""
    u_inv = mat_to_int(rational_inverse(quot.transforms[0]))
    reps = []
    idx = [0] * len(quot.torsion)
    while True:
        z = [0] * quot.rank
        for pos, row in enumerate(quot._torsion_rows):
            z[row] = idx[pos]
        reps.append(la.mat_vec(u_inv, tuple(z)))
        for pos in range(len(idx) - 1, -1, -1):
            idx[pos] += 1
            if idx[pos] < quot.torsion[pos]:
                break
            idx[pos] = 0
        else:
            return tuple(reps)


class EagerQuotient:
    """ℤⁿ/L for L spanned by the generators, from ``smith_normal_form_with_v``
    with u and u⁻¹ formed at once: the oracle for the lazy
    ``QuotientLattice``, with its attribute names.  u⁻¹ is u's rational
    inverse, and each free row of u is negated, with its column of u⁻¹,
    unless its first nonzero entry is positive."""

    def __init__(self, rank: int, generators):
        self.rank = rank
        gens = [g for g in generators if any(g)]
        self.b = la.transpose(gens) if gens else la.zero_matrix(rank, 1)
        self.d, u, _ = smith_normal_form_with_v(self.b)
        diag = [self.d[i][i] if i < len(self.d[0]) else 0 for i in range(rank)]
        self._torsion_rows = tuple(i for i, e in enumerate(diag) if e > 1)
        self._free_rows = tuple(i for i, e in enumerate(diag) if e == 0)
        self.torsion = tuple(diag[i] for i in self._torsion_rows)
        u = tuple(tuple(-x for x in row) if i in self._free_rows and next((x for x in row if x), 1) < 0 else row for i, row in enumerate(u))
        self.transforms = (u, mat_to_int(rational_inverse(u)) if rank else ())

    def assert_matches(self, quot: la.QuotientLattice, points) -> None:
        """The lazy lattice against this one: d, the torsion and free rows,
        then u and u⁻¹, the projections of the points, and the lifts or, for
        an infinite quotient, the refusal."""
        assert la.smith_normal_form(self.b)[0] == self.d
        assert (quot.torsion, quot._torsion_rows, quot._free_rows) == (self.torsion, self._torsion_rows, self._free_rows)
        assert quot.transforms == self.transforms
        for x in points:
            z = la.mat_vec(self.transforms[0], x)
            free = tuple(z[i] for i in self._free_rows)
            assert quot.free_part(x) == free
            assert quot.project(x) == tuple(z[i] % e for i, e in zip(self._torsion_rows, self.torsion)) + free
        if not self._free_rows:
            assert quot.representatives() == representatives_by_inverse(self)
            return
        try:
            quot.representatives()
        except ValueError as exc:
            assert "infinite" in str(exc)
        else:
            raise AssertionError("an infinite quotient listed representatives")
