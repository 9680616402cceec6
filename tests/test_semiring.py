"""Tropical values, matrices, determinants, and matrix-group membership."""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

import samplers
from semiring_oracles import (
    CUBIC_SUPPORTS,
    check_g2,
    check_orthogonal,
    check_symplectic,
    decomposition_compose,
    decomposition_inverse,
    det_by_fraction_sums,
    eval_cubic,
    eval_quadratic,
    hexagon_group,
    perm_sign,
    trop_matrix_mul,
    value_from_json,
)
from tropgroups import semiring as sr
from tropgroups.permutations import compose_perm

finite = st.fractions(min_value=-10, max_value=10, max_denominator=8).map(sr.fin)
values = st.one_of(st.just(sr.INF), finite)


@given(values, values)
def test_tadd_is_min(a, b):
    out = sr.tadd(a, b)
    assert out in (a, b)
    if a.q is not None and b.q is not None:
        assert out.q == min(a.q, b.q)


@given(values)
def test_add_identity_and_idempotence(a):
    assert sr.tadd(a, sr.INF) == a
    assert sr.tadd(a, a) == a
    assert sr.tmul(a, sr.INF) == sr.INF
    assert sr.tmul(a, sr.ZERO) == a


@given(values, values, values)
def test_distributivity(a, b, c):
    assert sr.tmul(a, sr.tadd(b, c)) == sr.tadd(sr.tmul(a, b), sr.tmul(a, c))


def test_identity_matrix_is_neutral():
    rng = random.Random(0)
    a = samplers.trop_matrix(rng, 2)
    i2 = sr.TropMatrix.gen_perm((0,) * 2, range(2))
    assert trop_matrix_mul(i2, a) == a
    assert trop_matrix_mul(a, i2) == a


def test_diag_perm_action_on_column():
    # D(1,2)⊙P_(12) sends (x₁, x₂) to (1+x₂, 2+x₁)
    a = trop_matrix_mul(sr.TropMatrix.gen_perm([1, 2], range(2)), sr.TropMatrix.gen_perm((0, 0), (1, 0)))
    column = sr.TropMatrix(((sr.fin(5),), (sr.fin(7),)))
    assert trop_matrix_mul(a, column) == sr.TropMatrix(((sr.fin(8),), (sr.fin(7),)))


def test_perm_matrix_multiplication_table():
    for s in itertools.permutations(range(3)):
        for t in itertools.permutations(range(3)):
            lhs = trop_matrix_mul(sr.TropMatrix.gen_perm((0,) * 3, s), sr.TropMatrix.gen_perm((0,) * 3, t))
            assert lhs == sr.TropMatrix.gen_perm((0,) * 3, compose_perm(s, t))


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        trop_matrix_mul(sr.TropMatrix.gen_perm((0,) * 2, range(2)), sr.TropMatrix.gen_perm((0,) * 3, range(3)))


def test_det_identity_and_gen_perm():
    assert sr.trop_det(sr.TropMatrix.gen_perm((0,) * 4, range(4))) == sr.ZERO
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(1, 5)
        ys = [samplers.rational(rng) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        assert sr.trop_det(sr.TropMatrix.gen_perm(ys, perm)) == sr.fin(sum(ys))


def test_det_all_zero_matrix():
    a = sr.TropMatrix(((sr.ZERO, sr.ZERO), (sr.ZERO, sr.ZERO)))
    assert sr.trop_det(a) == sr.ZERO


def test_det_enumeration_vs_assignment():
    rng = random.Random(2)
    for _ in range(120):
        a = samplers.trop_matrix(rng, rng.randint(1, 6))
        assert sr.det_by_enumeration(a) == sr.det_by_assignment(a)


DENOMINATORS = (1, 2, 3, 7, 12, 35, 420)


def _det_case(rng: random.Random) -> sr.TropMatrix:
    """An n × n matrix, n ≤ 6, with ∞ at density p ∈ [0, 0.6] and signed finite
    entries over the denominators above; one in ten gets an all-∞ row or
    column."""
    n = rng.randint(0, 6)
    p = rng.uniform(0, 0.6)
    rows = [
        [sr.INF if rng.random() < p else sr.fin(Q(rng.randint(-500, 500), rng.choice(DENOMINATORS))) for _ in range(n)]
        for _ in range(n)
    ]
    if n and rng.random() < 0.1:
        k = rng.randrange(n)
        if rng.random() < 0.5:
            rows[k] = [sr.INF] * n
        else:
            for row in rows:
                row[k] = sr.INF
    return sr.TropMatrix(tuple(map(tuple, rows)))


def test_det_on_integer_numerators_matches_the_fraction_oracle():
    rng = random.Random(9)
    infinite = 0
    for _ in range(2100):
        a = _det_case(rng)
        expected = det_by_fraction_sums(a)
        infinite += expected == sr.INF
        assert sr.det_by_enumeration(a) == expected, a
        assert sr.det_by_assignment(a) == expected, a
    assert 100 < infinite < 1000  # both outcomes are well covered


def test_det_of_a_lone_permutation_whose_sum_is_the_spread():
    # a positive diagonal and ∞ elsewhere: the one finite sum equals the sum of
    # the absolute finite numerators, the largest sum that is still finite
    for n in range(1, 9):
        diag = [Q(k + 1, DENOMINATORS[k % len(DENOMINATORS)]) for k in range(n)]
        a = sr.TropMatrix.gen_perm(diag, range(n))
        assert sr.det_by_enumeration(a) == sr.det_by_assignment(a) == sr.fin(sum(diag))


def test_det_by_enumeration_sums_the_permutations_as_it_makes_them():
    # the 8! sums kept in a list would peak near 1.6 MB; summed as made, 3 KB
    rng = random.Random(11)
    a = sr.TropMatrix(
        tuple(tuple(sr.fin(Q(rng.randint(-99, 99), rng.choice(DENOMINATORS))) for _ in range(8)) for _ in range(8))
    )
    tracemalloc.start()
    try:
        sr.det_by_enumeration(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_gen_perm_rejects_a_sigma_that_is_not_a_permutation():
    for sigma in ((0, 0), (1,), (0, 1, 2), (0, 2), (-1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"σ = {sigma} is not a permutation of range(2)")):
            sr.TropMatrix.gen_perm((1, 2), sigma)


def test_fin_and_gen_perm_read_their_numbers_at_the_boundary():
    # a bare Fraction(x) read 0.1 as its binary value, True as 1 and σ = (True, False) as (1, 0)
    assert sr.fin(0.1) == sr.fin(Q(1, 10)) == sr.fin("1/10")
    assert sr.TropMatrix.gen_perm((0.1, 2), (1.0, 0)) == sr.TropMatrix.gen_perm((Q(1, 10), 2), (1, 0))
    for bad in (True, float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match="field 'x': .* not a rational"):
            sr.fin(bad)
    with pytest.raises(ValueError, match="field 'ys': True is not a rational"):
        sr.TropMatrix.gen_perm((True, 2), (1, 0))
    with pytest.raises(ValueError, match="field 'sigma': True is not a rational"):
        sr.TropMatrix.gen_perm((1, 2), (True, False))
    with pytest.raises(ValueError, match="field 'sigma': .* not an integer"):
        sr.TropMatrix.gen_perm((1, 2), (0.5, 0))


def test_det_multiplicative_on_invertibles():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        a, b = samplers.gen_perm(rng, n), samplers.gen_perm(rng, n)
        prod = trop_matrix_mul(a, b)
        assert sr.trop_det(prod) == sr.tmul(sr.trop_det(a), sr.trop_det(b))


def test_decompose_identity():
    dec = sr.invert_or_decompose(sr.TropMatrix.gen_perm((0,) * 2, range(2)))
    assert dec.diag == (Q(0), Q(0)) and dec.perm == (0, 1)


def test_decompose_offdiagonal_example():
    a = sr.TropMatrix(((sr.INF, sr.fin(3)), (sr.fin(-1), sr.INF)))
    dec = sr.invert_or_decompose(a)
    assert dec.diag == (Q(3), Q(-1)) and dec.perm == (1, 0)
    assert dec.matrix() == a


def test_decompose_rejects_all_zero():
    with pytest.raises(sr.NotInvertibleError):
        sr.invert_or_decompose(sr.TropMatrix(((sr.ZERO, sr.ZERO), (sr.ZERO, sr.ZERO))))


def test_inverse_is_two_sided():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = samplers.gen_perm(rng, n)
        inv = decomposition_inverse(sr.invert_or_decompose(a)).matrix()
        ident = sr.TropMatrix.gen_perm((0,) * n, range(n))
        assert trop_matrix_mul(a, inv) == ident
        assert trop_matrix_mul(inv, a) == ident


def test_decomposition_of_product_is_composition():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        a, b = samplers.gen_perm(rng, n), samplers.gen_perm(rng, n)
        da, db = sr.invert_or_decompose(a), sr.invert_or_decompose(b)
        assert sr.invert_or_decompose(trop_matrix_mul(a, b)) == decomposition_compose(da, db)


def test_quadratic_form_values():
    assert eval_quadratic((sr.ZERO, sr.ZERO)) == sr.ZERO
    # odd coordinates (x₀, x₁, x₋₁) = (1, 0, 5): min(2·1, 0+5) = 2
    assert eval_quadratic((sr.fin(1), sr.fin(0), sr.fin(5))) == sr.fin(2)
    with pytest.raises(ValueError):
        eval_quadratic((sr.ZERO,), m=2)


def test_cubic_form_values():
    assert eval_cubic((sr.ZERO,) * 7) == sr.ZERO
    with pytest.raises(ValueError):
        eval_cubic((sr.ZERO,) * 6)


def test_symplectic_membership():
    rng = random.Random(6)
    assert check_symplectic(sr.TropMatrix.gen_perm((0,) * 4, range(4)))
    for _ in range(80):
        n = rng.randint(1, 3)
        assert check_symplectic(samplers.symplectic_member(rng, n))
        assert not check_symplectic(samplers.symplectic_violator(rng, n))
    # n=1 with y₋₁ ≠ −y₁
    assert not check_symplectic(sr.TropMatrix.gen_perm([1, 1], range(2)))


def test_orthogonal_membership():
    rng = random.Random(7)
    for m in (3, 4, 5, 6, 7):
        assert check_orthogonal(sr.TropMatrix.gen_perm((0,) * m, range(m))) == "in_SO"
        for _ in range(30):
            assert check_orthogonal(samplers.orthogonal_member(rng, m)) == "in_SO"
            assert check_orthogonal(samplers.orthogonal_violator(rng, m)) == "not_member"
    # even size, odd signed permutation: in O but not in SO
    for _ in range(30):
        m = rng.choice([4, 6])
        mat = samplers.orthogonal_member(rng, m, special=False)
        dec = sr.invert_or_decompose(mat)
        expected = "in_SO" if perm_sign(dec.perm) == 1 else "in_O"
        assert check_orthogonal(mat) == expected


def test_g2_membership():
    rng = random.Random(8)
    assert check_g2(sr.TropMatrix.gen_perm((0,) * 7, range(7)))
    for _ in range(60):
        assert check_g2(samplers.g2_member(rng))
        assert not check_g2(samplers.g2_violator(rng))


def test_hexagon_group_is_support_stabilizer():
    # σ ∈ S₇ preserves the cubic monomial supports iff it is a hexagon
    # symmetry fixing the last letter
    hexa = {h + (6,) for h in hexagon_group()}
    supports = set(CUBIC_SUPPORTS)
    for perm in itertools.permutations(range(7)):
        preserves = all(frozenset(perm[i] for i in s) in supports for s in supports)
        assert preserves == (perm in hexa)


def test_non_invertible_never_member():
    rng = random.Random(9)
    for _ in range(40):
        bad = samplers.non_invertible(rng, 4)
        assert check_orthogonal(bad) == "not_member"
        assert not check_symplectic(bad)


def test_matrix_json_roundtrip():
    rng = random.Random(10)
    a = samplers.trop_matrix(rng, 3)
    data = a.to_json()
    assert all(isinstance(s, str) for row in data for s in row)
    assert sr.TropMatrix(tuple(tuple(value_from_json(s) for s in row) for row in data)) == a


def test_rational_from_str_bounds_the_decimal_exponent():
    assert sr.rational_from_str("2.5e3") == 2500
    assert sr.rational_from_str(" -1.5E-2 ") == Q(-3, 200)
    assert sr.rational_from_str("1e4300") == 10**4300
    assert sr.rational_from_str("1e-4_300") == Q(1, 10**4300)
    for text in ("1e4301", "1e-4301", "1E+1000000", "1e-1_000_000", "1e99999999999999999999"):
        with pytest.raises(ValueError, match="exceeds 4300"):
            sr.rational_from_str(text)
    for text in ("1e", "e5", "1/0", "1e5/2", "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="is not a rational number"):
            sr.rational_from_str(text)


def test_ragged_rows_are_rejected_at_construction():
    # once read as the 2×2 matrix D(1, 2)⊙P_(1,0), a GL₂ member of determinant 3
    with pytest.raises(ValueError, match=r"one length, not \[2, 1\]"):
        sr.TropMatrix(((sr.INF, sr.fin(1)), (sr.fin(2),)))
    with pytest.raises(ValueError, match=r"not \[1, 1, 0\]"):
        sr.TropMatrix(((sr.ZERO,), (sr.ZERO,), ()))
    assert sr.TropMatrix(()).n_rows == 0


def test_entries_that_are_not_tropical_values_are_rejected_at_construction():
    # a float or a bool entry once built, and trop_det then raised AttributeError
    for rows, where in [([[0.1, 1], [2, 3]], r"\(0, 0\) = 0\.1"), ([[sr.fin(1), True]], r"\(0, 1\) = True"),
                        ([[sr.INF], [Q(1)]], r"\(1, 0\)")]:
        with pytest.raises(ValueError, match=where + ".* is not a TropValue; read a number with fin"):
            sr.TropMatrix(rows)
    a = sr.TropMatrix([[sr.fin(1), sr.INF], [sr.INF, sr.fin(2)]])
    assert a.entries == ((sr.fin(1), sr.INF), (sr.INF, sr.fin(2))) and type(a.entries[0]) is tuple
    assert sr.trop_det(a) == sr.fin(3)
    for q in (0.1, True, "1", 1.0, [1]):
        with pytest.raises(ValueError, match="not None, an int or a Fraction; read a number with fin"):
            sr.TropValue(q)
    assert sr.TropValue(3).q == 3 and sr.TropValue(Q(1, 2)).q == Q(1, 2)
