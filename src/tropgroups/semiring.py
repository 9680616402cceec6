"""Min-plus semiring values, matrices, determinants and decompositions.

Values live in 𝕋 = ℚ ∪ {∞} with a ⊕ b = min(a, b) and a ⊙ b = a + b; finite
parts are exact rationals.  Invertible matrices are exactly the generalized
permutation matrices D(y)⊙P_σ, and ``invert_or_decompose`` reads (y, σ) off one.
Membership in a classical group or G₂ is decided by ``groups.from_matrix``
as the image of the group's model map.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from math import lcm
from typing import Optional, Sequence


class NotInvertibleError(ValueError):
    """Raised for matrices that are not generalized permutation matrices."""


@dataclass(frozen=True)
class TropValue:
    """An element of 𝕋: Finite(q) for q an int or a Fraction, or Infinity
    (q=None); ``fin`` reads any other number."""

    q: Optional[Q]

    def __post_init__(self):
        if isinstance(self.q, bool) or not (self.q is None or isinstance(self.q, (int, Q))):
            raise ValueError(f"TropValue: q = {self.q!r} is not None, an int or a Fraction; read a number with fin")

    def __repr__(self) -> str:
        return "inf" if self.q is None else str(self.q)


INF = TropValue(None)
ZERO = TropValue(Q(0))


def fin(x) -> TropValue:
    """The finite value x, read by checked_rational."""
    return TropValue(checked_rational("x", x))


def tadd(a: TropValue, b: TropValue) -> TropValue:
    """Tropical sum a ⊕ b = min(a, b); ∞ is neutral."""
    if a.q is None:
        return b
    if b.q is None:
        return a
    return a if a.q <= b.q else b


def tmul(a: TropValue, b: TropValue) -> TropValue:
    """Tropical product a ⊙ b = a + b; ∞ is absorbing."""
    if a.q is None or b.q is None:
        return INF
    return TropValue(a.q + b.q)


def tsum(values) -> TropValue:
    out = INF
    for v in values:
        out = tadd(out, v)
    return out


def value_to_json(v: TropValue) -> str:
    return "inf" if v.q is None else rational_to_str(v.q)


def rational_to_str(q) -> str:
    q = Q(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# Python's default limit on the digits of an integer literal, which already
# bounds the mantissa of a decimal
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"E([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def rational_from_str(s: str) -> Q:
    """The rational written as "p/q" (or an integer or decimal); a ValueError
    naming the text if it is not one, a zero denominator included, or if its
    decimal exponent exceeds MAX_DECIMAL_EXPONENT in magnitude: Fraction
    expands the power of ten exactly, in time and memory that grow with it."""
    exponent = _EXPONENT.search(s)
    try:
        if exponent is None or abs(int(exponent[1])) <= MAX_DECIMAL_EXPONENT:
            return Q(s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{s!r} is not a rational number") from None
    raise ValueError(f"{s!r}: the decimal exponent exceeds {MAX_DECIMAL_EXPONENT} in magnitude")


def checked_rational(field: str, x) -> Q:
    """x as an exact rational: a string that rational_from_str reads, a float
    read as its repr is, or any other number Fraction takes but a bool; a
    ValueError naming the field otherwise.  A float is read as the command
    line reads a JSON decimal, so 0.1 is 1/10; NaN and ±inf are no rational."""
    if isinstance(x, float):
        x = float.__repr__(x)
    if isinstance(x, str):
        try:
            return rational_from_str(x)
        except ValueError as exc:
            raise ValueError(f"field {field!r}: {exc}") from None
    try:
        if not isinstance(x, bool):  # Fraction(True) == 1
            return Q(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"field {field!r}: {x!r} is not a rational number")


def checked_integer(field: str, x) -> int:
    """x as an int, by checked_rational; a ValueError naming the field unless
    it is integral."""
    if type(x) is int:
        return x
    q = checked_rational(field, x)
    if q.denominator != 1:
        raise ValueError(f"field {field!r}: {x!r} is not an integer")
    return int(q)


def checked_perm(sigma, n: int) -> tuple[int, ...]:
    """σ with its entries read by checked_integer; a ValueError naming σ
    unless it is a permutation of range(n)."""
    sigma = tuple([checked_integer("sigma", t) for t in sigma])
    if len(sigma) != n or set(sigma) != set(range(n)):
        raise ValueError(f"σ = {sigma} is not a permutation of range({n})")
    return sigma


def checked_vector(field: str, xs, n: int, read) -> tuple:
    """The entries of xs, a list or tuple of n entries, each read by
    read(field, x); a ValueError naming the field otherwise."""
    if not isinstance(xs, (list, tuple)) or len(xs) != n:
        raise ValueError(f"field {field!r} must be a list of {n} entries")
    return tuple([read(field, x) for x in xs])


@dataclass(frozen=True)
class TropMatrix:
    entries: tuple[tuple[TropValue, ...], ...]

    def __post_init__(self):
        rows = tuple([tuple(row) for row in self.entries])
        if len({len(row) for row in rows}) > 1:
            raise ValueError(f"matrix rows must have one length, not {[len(row) for row in rows]}")
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if not isinstance(e, TropValue):
                    raise ValueError(f"matrix entry ({i}, {j}) = {e!r} is not a TropValue; read a number with fin")
        object.__setattr__(self, "entries", rows)

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def to_json(self):
        return [[value_to_json(v) for v in row] for row in self.entries]

    @staticmethod
    def gen_perm(ys, sigma: Sequence[int]) -> "TropMatrix":
        """D(y)⊙P_σ: entry (i, j) = y_i exactly when i = σ(j), for ys read by
        checked_rational and σ by checked_integer; a ValueError naming σ unless
        it is a permutation of range(len(ys))."""
        ys = [checked_rational("ys", y) for y in ys]
        n = len(ys)
        sigma = checked_perm(sigma, n)
        rows = [[INF] * n for _ in range(n)]
        for j, i in enumerate(sigma):
            rows[i][j] = TropValue(ys[i])
        return TropMatrix(rows)


def _integer_costs(a: TropMatrix) -> tuple[list[list[int]], int, int]:
    """(cost, spread, d): the entries of the square matrix as the integers that
    both determinants sum.

    Each finite entry is its numerator over the lcm d of the finite
    denominators, and ∞ is 2·spread + 1, where spread is the sum of the
    absolute finite numerators.  A sum of one entry per row and column
    without ∞ is at most spread; one with k ≥ 1 of them is at least
    k·(2·spread + 1) − spread > spread.  So the least sum is ∞ exactly when
    it exceeds spread, and else it is d times the determinant.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("matrix must be square")
    d = lcm(*[e.q.denominator for row in a.entries for e in row if e.q is not None])
    spread = sum(abs(e.q.numerator) * (d // e.q.denominator) for row in a.entries for e in row if e.q is not None)
    cost = [[2 * spread + 1 if e.q is None else e.q.numerator * (d // e.q.denominator) for e in row] for row in a.entries]
    return cost, spread, d


def det_by_enumeration(a: TropMatrix) -> TropValue:
    """min over σ of Σ_i a_{i σ(i)}, by brute force over all permutations,
    summed as they are made on the integers of ``_integer_costs``."""
    cost, spread, d = _integer_costs(a)
    total = min(map(lambda sigma: sum(map(list.__getitem__, cost, sigma)), itertools.permutations(range(len(cost)))))
    return INF if total > spread else TropValue(Q(total, d))


def det_by_assignment(a: TropMatrix) -> TropValue:
    """min-cost perfect assignment on the integers of ``_integer_costs``, by
    the shortest-augmenting-path algorithm with potentials."""
    cost, spread, d = _integer_costs(a)
    n = len(cost)
    if n == 0:
        return ZERO

    # classic JV: column potentials, one row inserted per phase
    pot_u = [0] * (n + 1)
    pot_v = [0] * (n + 1)
    way = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j; columns/rows 1-based
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [None] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = None
            j1 = None
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - pot_u[i0] - pot_v[j]
                if minv[j] is None or cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if delta is None or minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    pot_u[match[j]] += delta
                    pot_v[j] -= delta
                elif minv[j] is not None:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    total = sum(cost[match[j] - 1][j - 1] for j in range(1, n + 1))
    return INF if total > spread else TropValue(Q(total, d))


def trop_det(a: TropMatrix) -> TropValue:
    """Tropical determinant; enumeration for n ≤ 8, assignment solver beyond."""
    return det_by_enumeration(a) if a.n_rows <= 8 else det_by_assignment(a)


@dataclass(frozen=True)
class GenPermDecomposition:
    """D(diag)⊙P_perm with exact rational diag; perm is a 0-based permutation."""

    diag: tuple[Q, ...]
    perm: tuple[int, ...]

    def matrix(self) -> TropMatrix:
        return TropMatrix.gen_perm(self.diag, self.perm)


def invert_or_decompose(a: TropMatrix) -> GenPermDecomposition:
    """Decompose an invertible matrix as D(y)⊙P_σ.

    Raises NotInvertibleError when the matrix is not square or some row or
    column does not have exactly one finite entry.
    """
    n = a.n_rows
    if n != a.n_cols:
        raise NotInvertibleError(f"a {n}×{a.n_cols} matrix is not square")
    sigma = [None] * n
    diag = [None] * n
    for i, row in enumerate(a.entries):
        finite = [j for j, e in enumerate(row) if e.q is not None]
        if len(finite) != 1 or sigma[finite[0]] is not None:
            raise NotInvertibleError("matrix has a row or column without exactly one finite entry")
        j = finite[0]
        sigma[j] = i
        diag[i] = row[j].q
    return GenPermDecomposition(tuple(diag), tuple(sigma))
