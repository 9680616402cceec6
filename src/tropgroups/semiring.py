"""Min-plus semiring values, matrices, and the classical tropical matrix groups.

Values live in 𝕋 = ℚ ∪ {∞} with a ⊕ b = min(a, b) and a ⊙ b = a + b; finite
parts are exact rationals.  Invertible matrices are exactly the generalized
permutation matrices D(y)⊙P_σ, and the symplectic/orthogonal/G₂ membership
tests reduce to finite constraints on the decomposition (y, σ), cross-checked
against the literal defining identity.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Optional, Sequence

from .errors import InvariantError
from .permutations import (
    commutes,
    compose_perm,
    hexagon_group,
    invert_perm,
    perm_sign,
    sign_involution,
)


class NotInvertibleError(ValueError):
    """Raised for matrices that are not generalized permutation matrices."""


@dataclass(frozen=True)
class TropValue:
    """An element of 𝕋: Finite(q) for exact rational q, or Infinity (q=None)."""

    q: Optional[Q]

    @property
    def is_finite(self) -> bool:
        return self.q is not None

    def __repr__(self) -> str:
        return "inf" if self.q is None else str(self.q)


INF = TropValue(None)
ZERO = TropValue(Q(0))


def fin(x) -> TropValue:
    return TropValue(Q(x))


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


def value_from_json(s: str) -> TropValue:
    return INF if s == "inf" else TropValue(rational_from_str(s))


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


@dataclass(frozen=True)
class TropMatrix:
    entries: tuple[tuple[TropValue, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "TropMatrix":
        return TropMatrix(tuple(zip(*self.entries)))

    def apply(self, x: Sequence[TropValue]) -> tuple[TropValue, ...]:
        if len(x) != self.n_cols:
            raise ValueError("dimension mismatch")
        return tuple(tsum(tmul(e, xv) for e, xv in zip(row, x)) for row in self.entries)

    def to_json(self):
        return [[value_to_json(v) for v in row] for row in self.entries]

    @staticmethod
    def from_json(data) -> "TropMatrix":
        return TropMatrix(tuple(tuple(value_from_json(s) for s in row) for row in data))

    @staticmethod
    def from_rows(rows) -> "TropMatrix":
        out = []
        for row in rows:
            out.append(tuple(v if isinstance(v, TropValue) else (INF if v is None else fin(v)) for v in row))
        return TropMatrix(tuple(out))

    @staticmethod
    def identity(n: int) -> "TropMatrix":
        return TropMatrix(tuple(tuple(ZERO if i == j else INF for j in range(n)) for i in range(n)))

    @staticmethod
    def diagonal(ys) -> "TropMatrix":
        ys = [Q(y) for y in ys]
        n = len(ys)
        return TropMatrix(tuple(tuple(TropValue(ys[i]) if i == j else INF for j in range(n)) for i in range(n)))

    @staticmethod
    def permutation(sigma: Sequence[int]) -> "TropMatrix":
        """P_σ with entry (i, j) finite 0 exactly when i = σ(j); σ is 0-based."""
        n = len(sigma)
        return TropMatrix(tuple(tuple(ZERO if i == sigma[j] else INF for j in range(n)) for i in range(n)))

    @staticmethod
    def gen_perm(ys, sigma: Sequence[int]) -> "TropMatrix":
        """D(y)⊙P_σ: entry (i, j) = y_i exactly when i = σ(j)."""
        ys = [Q(y) for y in ys]
        n = len(ys)
        return TropMatrix(
            tuple(tuple(TropValue(ys[i]) if i == sigma[j] else INF for j in range(n)) for i in range(n))
        )


def trop_matrix_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """(A⊙B)_{ij} = ⊕_k a_{ik} ⊙ b_{kj}."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: {a.n_cols} vs {b.n_rows}")
    bt = b.transpose().entries
    return TropMatrix(
        tuple(tuple(tsum(tmul(x, y) for x, y in zip(row, col)) for col in bt) for row in a.entries)
    )


def det_by_enumeration(a: TropMatrix) -> TropValue:
    """min over σ of Σ_i a_{i σ(i)}, by brute force over all permutations."""
    n = a.n_rows
    if n != a.n_cols:
        raise ValueError("matrix must be square")
    best: Optional[Q] = None
    for sigma in itertools.permutations(range(n)):
        total = Q(0)
        ok = True
        for i in range(n):
            e = a.entries[i][sigma[i]]
            if e.q is None:
                ok = False
                break
            total += e.q
        if ok and (best is None or total < best):
            best = total
    return INF if best is None else TropValue(best)


def det_by_assignment(a: TropMatrix) -> TropValue:
    """min-cost perfect assignment on the entry matrix, exact rational arithmetic.

    Shortest-augmenting-path algorithm with potentials.  Infinite entries are
    replaced by a rational sentinel large enough that any assignment using one
    is strictly worse than every all-finite assignment, which keeps the
    computation exact and lets ∞ be detected from the optimal cost.
    """
    n = a.n_rows
    if n != a.n_cols:
        raise ValueError("matrix must be square")
    if n == 0:
        return ZERO
    spread = sum(abs(e.q) for row in a.entries for e in row if e.q is not None)
    big = 2 * spread + 1
    cost = [[e.q if e.q is not None else big for e in row] for row in a.entries]

    # classic JV: column potentials, one row inserted per phase
    pot_u = [Q(0)] * (n + 1)
    pot_v = [Q(0)] * (n + 1)
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
    return INF if total > spread else TropValue(total)


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

    def inverse(self) -> "GenPermDecomposition":
        inv = invert_perm(self.perm)
        n = len(self.diag)
        return GenPermDecomposition(tuple(-self.diag[self.perm[i]] for i in range(n)), inv)

    def compose(self, other: "GenPermDecomposition") -> "GenPermDecomposition":
        """Decomposition of self.matrix() ⊙ other.matrix()."""
        n = len(self.diag)
        inv = invert_perm(self.perm)
        diag = tuple(self.diag[i] + other.diag[inv[i]] for i in range(n))
        return GenPermDecomposition(diag, compose_perm(self.perm, other.perm))


def try_decompose(a: TropMatrix) -> Optional[GenPermDecomposition]:
    n = a.n_rows
    if n != a.n_cols:
        return None
    sigma = [None] * n
    diag = [None] * n
    for i, row in enumerate(a.entries):
        finite = [j for j, e in enumerate(row) if e.q is not None]
        if len(finite) != 1:
            return None
        j = finite[0]
        if sigma[j] is not None:
            return None
        sigma[j] = i
        diag[i] = row[j].q
    return GenPermDecomposition(tuple(diag), tuple(sigma))


def invert_or_decompose(a: TropMatrix) -> GenPermDecomposition:
    """Decompose an invertible matrix as D(y)⊙P_σ.

    Raises NotInvertibleError when some row or column does not have exactly
    one finite entry.
    """
    dec = try_decompose(a)
    if dec is None:
        raise NotInvertibleError("matrix has a row or column without exactly one finite entry")
    return dec


# ---------------------------------------------------------------------------
# quadratic and cubic forms, and the derived matrix-group membership tests
# ---------------------------------------------------------------------------

# index triples (0-based) of the monomials of the seven-variable cubic form
CUBIC_SUPPORTS = (
    frozenset({0, 2, 4}),
    frozenset({1, 3, 5}),
    frozenset({0, 3, 6}),
    frozenset({1, 4, 6}),
    frozenset({2, 5, 6}),
)


def eval_quadratic(x: Sequence[TropValue], m: Optional[int] = None) -> TropValue:
    """Split quadratic form: ⊕_k x_k⊙x_{−k}, plus x₀^{⊙2} when the size is odd.

    Coordinates are ordered (x₁..x_n, x₋₁..x₋ₙ) for even size and
    (x₀, x₁..x_n, x₋₁..x₋ₙ) for odd size.
    """
    if m is not None and len(x) != m:
        raise ValueError("length mismatch")
    return tsum([tmul(x[i], x[k]) for i, k in _quadratic_supports(len(x))])


def eval_cubic(x: Sequence[TropValue]) -> TropValue:
    """Seven-variable cubic form with monomials CUBIC_SUPPORTS."""
    if len(x) != 7:
        raise ValueError("length mismatch")
    out = INF
    for supp in CUBIC_SUPPORTS:
        term = ZERO
        for i in supp:
            term = tmul(term, x[i])
        out = tadd(out, term)
    return out


def _form_monomials_of_image(dec: GenPermDecomposition, supports) -> dict:
    """Monomials of q(A⊙x) (or c(A⊙x)) for A = D(y)⊙P_σ.

    (A⊙x)_i = y_i ⊙ x_{σ⁻¹(i)}, so the monomial with support S picks up
    coefficient Σ_{i∈S} y_i and support σ⁻¹(S).  Supports are multisets
    encoded as sorted tuples (x₀^{⊙2} has support (0, 0)).
    """
    inv = invert_perm(dec.perm)
    out = {}
    for supp in supports:
        key = tuple(sorted(inv[i] for i in supp))
        coeff = sum((dec.diag[i] for i in supp), Q(0))
        if key in out:
            # two distinct source monomials landing on one support cannot
            # happen for a bijection and distinct supports
            raise InvariantError(f"support collision at {key} under {dec.perm}")
        out[key] = coeff
    return out


def _form_preserved(dec: GenPermDecomposition, supports) -> bool:
    """Exact test of q(A⊙x) = q(x) as min-plus polynomial functions.

    Every support within each side occurs once, so the two functions agree on
    all of 𝕋^m iff the support→coefficient maps agree (isolate one monomial
    by setting the complementary variables to ∞).
    """
    reference = {tuple(sorted(s)): Q(0) for s in supports}
    return _form_monomials_of_image(dec, [tuple(sorted(s)) for s in supports]) == reference


def _quadratic_supports(m: int):
    iota = sign_involution(m)
    seen = set()
    out = []
    for i in range(m):
        key = tuple(sorted((i, iota[i])))
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _signed_involution(dec: GenPermDecomposition, iota: tuple[int, ...]) -> bool:
    """σ commutes with the sign involution ι and y_ι(i) = −y_i."""
    return commutes(dec.perm, iota) and all(dec.diag[iota[i]] == -dec.diag[i] for i in range(len(iota)))


def check_symplectic(a: TropMatrix) -> bool:
    """Membership in the 2n×2n tropical symplectic group.

    Decomposition test: σ commutes with the sign involution and
    y_{−i} = −y_i; cross-checked against the literal identity AᵀJA = J.
    """
    n2 = a.n_rows
    if n2 != a.n_cols or n2 % 2 != 0:
        raise ValueError("matrix must be square of even size")
    dec = try_decompose(a)
    if dec is None:
        return False
    iota = sign_involution(n2)
    constrained = _signed_involution(dec, iota)
    j = TropMatrix.permutation(iota)
    literal = trop_matrix_mul(trop_matrix_mul(a.transpose(), j), a) == j
    if constrained != literal:
        raise InvariantError(f"decomposition test disagrees with the literal identity on {a!r}")
    return constrained


def check_orthogonal(a: TropMatrix) -> str:
    """Membership in the orthogonal groups: 'not_member', 'in_O', or 'in_SO'.

    For odd size the special orthogonal group is the whole orthogonal group;
    for even size it is the kernel of the permutation parity (the tropical
    Dickson invariant).
    """
    m = a.n_rows
    if m != a.n_cols:
        raise ValueError("matrix must be square")
    dec = try_decompose(a)
    if dec is None:
        return "not_member"
    constrained = _signed_involution(dec, sign_involution(m))
    if m % 2 == 1:
        constrained = constrained and dec.perm[0] == 0 and dec.diag[0] == 0
    symbolic = _form_preserved(dec, _quadratic_supports(m))
    if constrained != symbolic:
        raise InvariantError(f"decomposition test disagrees with the symbolic form identity on {a!r}")
    if not constrained:
        return "not_member"
    if m % 2 == 1:
        return "in_SO"
    return "in_SO" if perm_sign(dec.perm) == 1 else "in_O"


def check_g2(a: TropMatrix) -> bool:
    """Membership in the 7×7 tropical G₂: σ a hexagon symmetry fixing the last
    coordinate, y₇ = 0, and (y₁..y₆) satisfying the five linear relations."""
    if a.n_rows != 7 or a.n_cols != 7:
        raise ValueError("matrix must be 7×7")
    dec = try_decompose(a)
    if dec is None:
        return False
    y = dec.diag
    sigma = dec.perm
    in_hexagon = sigma[6] == 6 and sigma[:6] in hexagon_group()
    relations = (
        y[6] == 0
        and y[0] + y[3] == 0
        and y[1] + y[4] == 0
        and y[2] + y[5] == 0
        and y[0] + y[2] + y[4] == 0
    )
    constrained = in_hexagon and relations
    symbolic = _form_preserved(dec, CUBIC_SUPPORTS)
    if constrained != symbolic:
        raise InvariantError(f"decomposition test disagrees with the symbolic form identity on {a!r}")
    return constrained
