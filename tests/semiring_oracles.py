"""The literal matrix-group definitions over the semiring, which only the tests
use: the tropical matrix product, the tropical determinant summed in
Fractions over every permutation, the reader of a value's JSON, the inverse
and product of D(y)⊙P_σ decompositions and their PGL normal form, the split
quadratic and seven-variable cubic forms, and the
membership tests of the symplectic, orthogonal and G₂ groups cross-checked
against their defining identities.  They are the oracle that
``groups.from_matrix``, which accepts exactly the image of the model map, is
compared against.  Also the permutation helpers they need, and the
trivialization check of the quotient cover of a symplectic multi-line bundle,
the oracle for the ``violations`` of ``circles.sp_structure``."""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction as Q
from typing import Optional, Sequence

from tropgroups.circles import multiline_of
from tropgroups.errors import InvariantError
from tropgroups.permutations import compose_perm, invert_perm, sign_involution
from tropgroups.semiring import (
    INF,
    ZERO,
    GenPermDecomposition,
    NotInvertibleError,
    TropMatrix,
    TropValue,
    checked_integer,
    checked_vector,
    invert_or_decompose,
    rational_from_str,
    tadd,
    tmul,
    tsum,
)

# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def perm_sign(s: Sequence[int]) -> int:
    """Parity: +1 for even, −1 for odd."""
    seen = [False] * len(s)
    sign = 1
    for i in range(len(s)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = s[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    s = list(range(n))
    s[i], s[j] = s[j], s[i]
    return tuple(s)


def commutes(s: Sequence[int], t: Sequence[int]) -> bool:
    return compose_perm(s, t) == compose_perm(t, s)


@functools.cache
def hexagon_group() -> frozenset[tuple[int, ...]]:
    """The 12 symmetries of a hexagon with vertices 0..5 in cyclic order."""
    elems = set()
    for k in range(6):
        elems.add(tuple((i + k) % 6 for i in range(6)))
        elems.add(tuple((k - i) % 6 for i in range(6)))
    return frozenset(elems)


# ---------------------------------------------------------------------------
# matrix products and decompositions
# ---------------------------------------------------------------------------


def trop_matrix_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """(A⊙B)_{ij} = ⊕_k a_{ik} ⊙ b_{kj}."""
    if a.n_cols != b.n_rows:
        raise ValueError(f"dimension mismatch: {a.n_cols} vs {b.n_rows}")
    bt = tuple(zip(*b.entries))
    return TropMatrix(
        tuple(tuple(tsum(tmul(x, y) for x, y in zip(row, col)) for col in bt) for row in a.entries)
    )


def det_by_fraction_sums(a: TropMatrix) -> TropValue:
    """min over σ of Σ_i a_{i σ(i)}, each sum taken in Fractions and ∞ read as
    ∞, over all permutations: the oracle for the integer-numerator
    determinants of ``semiring``."""
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


def decomposition_inverse(dec: GenPermDecomposition) -> GenPermDecomposition:
    inv = invert_perm(dec.perm)
    n = len(dec.diag)
    return GenPermDecomposition(tuple(-dec.diag[dec.perm[i]] for i in range(n)), inv)


def decomposition_compose(dec: GenPermDecomposition, other: GenPermDecomposition) -> GenPermDecomposition:
    """Decomposition of dec.matrix() ⊙ other.matrix()."""
    n = len(dec.diag)
    inv = invert_perm(dec.perm)
    diag = tuple(dec.diag[i] + other.diag[inv[i]] for i in range(n))
    return GenPermDecomposition(diag, compose_perm(dec.perm, other.perm))


def normalize_pgl(mat: TropMatrix) -> TropMatrix:
    """Scale a generalized permutation matrix so the last diagonal entry is 0."""
    dec = invert_or_decompose(mat)
    shift = dec.diag[-1]
    return TropMatrix.gen_perm(tuple(x - shift for x in dec.diag), dec.perm)


def value_from_json(s: str) -> TropValue:
    """The inverse of ``semiring.value_to_json``."""
    return INF if s == "inf" else TropValue(rational_from_str(s))


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


def is_invertible(a: TropMatrix) -> bool:
    """invert_or_decompose reads a generalized permutation matrix off a."""
    try:
        invert_or_decompose(a)
    except NotInvertibleError:
        return False
    return True


def check_symplectic(a: TropMatrix) -> bool:
    """Membership in the 2n×2n tropical symplectic group.

    Decomposition test: σ commutes with the sign involution and
    y_{−i} = −y_i; cross-checked against the literal identity AᵀJA = J.
    """
    n2 = a.n_rows
    if n2 != a.n_cols or n2 % 2 != 0:
        raise ValueError("matrix must be square of even size")
    try:
        dec = invert_or_decompose(a)
    except NotInvertibleError:
        return False
    iota = sign_involution(n2)
    constrained = _signed_involution(dec, iota)
    j = TropMatrix.gen_perm((0,) * n2, iota)
    literal = trop_matrix_mul(trop_matrix_mul(TropMatrix(tuple(zip(*a.entries))), j), a) == j
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
    try:
        dec = invert_or_decompose(a)
    except NotInvertibleError:
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
    try:
        dec = invert_or_decompose(a)
    except NotInvertibleError:
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


# ---------------------------------------------------------------------------
# the symplectic trivialization of a multi-line bundle
# ---------------------------------------------------------------------------


def check_sp_trivialization(m: Sequence, alpha: Sequence, perm: Sequence[int], j: Q):
    """Violations of the symplectic trivialization on the quotient cover.

    Sheets are labeled (1..n, −1..−n) by position; the involution pairs
    i ↔ −i.  On each component of the quotient cover the line bundle with
    fibers L_x ⊗ L_{ι x} must be trivial: degree 0 and Jacobian class 0.
    The quotient cover is the cover of i ↦ σ(i) mod n carrying the sums
    over opposite sheets; each violation is (sheets, degree, jacobian).
    """
    m = checked_vector("m", m, len(perm), checked_integer)
    n = len(perm) // 2
    quotient = multiline_of(
        [m[i] + m[i + n] for i in range(n)],
        [Q(alpha[i]) + Q(alpha[i + n]) for i in range(n)],
        [perm[i] % n for i in range(n)],
        j,
    )
    return tuple([(q.sheets, q.line_degree, q.jacobian) for q in quotient if q.line_degree or q.jacobian])
