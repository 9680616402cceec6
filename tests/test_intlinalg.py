"""The fraction-free RREF with its solve and inverse, Smith normal form,
integer and scaled exact solves, orbit sums and quotient lattices."""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracles import (
    group_inverse,
    int_det,
    integer_solve,
    lattice_index,
    orbit_mean,
    rational_inverse,
    rational_kernel,
    rational_rref,
    rational_solve,
    representatives_by_inverse,
    scaled,
    smith_normal_form_with_v,
)
from tropgroups import intlinalg as la

small_mats = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=m, max_size=m
        ).map(la.matrix)
    )
)


def int_mats(m, n, entries=st.integers(-9, 9)):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m).map(la.matrix)


def low_rank_mats(m, n):
    """m×n products of an m×k and a k×n matrix, so of rank at most k."""
    return st.integers(0, min(m, n) - 1).flatmap(
        lambda k: st.tuples(int_mats(m, k, st.integers(-3, 3)), int_mats(k, n, st.integers(-3, 3))).map(
            lambda p: la.mat_mul(*p) if k else la.zero_matrix(m, n)
        )
    )


# random, rank-deficient (zero and singular among them), 1×n and n×1 matrices
rref_mats = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(lambda n: st.one_of(int_mats(m, n), low_rank_mats(m, n)))
)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def fraction_inverse(a):
    try:
        return rational_inverse(a)
    except ValueError:
        return None


def rref_inverse_or_none(a):
    try:
        num, d = la.rref_inverse(a)
    except ValueError:
        return None
    assert d > 0
    return tuple(tuple(Q(x, d) for x in row) for row in num)


@given(rref_mats, st.data())
@settings(max_examples=300)
def test_integer_rref_solve_and_inverse_match_the_fraction_oracle(a, data):
    num, d, pivots = la.integer_rref(a)
    ref, ref_pivots = rational_rref(a)
    assert d > 0 and pivots == ref_pivots
    assert tuple(tuple(Q(x, d) for x in row) for row in num) == ref
    assert [num[i][c] for i, c in enumerate(pivots)] == [d] * len(pivots)
    b = tuple(data.draw(rationals) for _ in a)
    assert la.rref_solve(a, b) == rational_solve(a, b)
    on_image = la.mat_vec(a, tuple(data.draw(rationals) for _ in a[0]))
    x = la.rref_solve(a, on_image)
    assert x == rational_solve(a, on_image) and la.mat_vec(a, x) == on_image
    if len(a) == len(a[0]):
        assert rref_inverse_or_none(a) == fraction_inverse(a)


@pytest.mark.parametrize(
    "a",
    [
        ((0, 0, 0), (0, 0, 0)),  # zero
        ((2, -3, 5),),  # 1×n
        ((4,), (-6,), (2,)),  # n×1
        ((2, 4), (1, 2)),  # singular
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),  # singular, rank 2
        ((2, 0), (0, 2)),  # an inverse not in lowest terms
        ((), ()),  # no columns
        (),  # no rows
    ],
)
def test_integer_rref_of_degenerate_shapes(a):
    num, d, pivots = la.integer_rref(a)
    assert d > 0 and (tuple(tuple(Q(x, d) for x in row) for row in num), pivots) == rational_rref(a)
    b = (Q(1, 2),) + (0,) * (len(a) - 1) if a else ()
    assert la.rref_solve(a, b) == rational_solve(a, b)
    if len(a) == (len(a[0]) if a else 0):
        assert rref_inverse_or_none(a) == fraction_inverse(a)


def snf_transforms(a, d, u, u_inv):
    """v from the v-carrying oracle, after checking that the library's (d, u)
    is the oracle's and that u·u⁻¹ = 1."""
    d_ref, u_ref, v = smith_normal_form_with_v(a)
    assert (d, u) == (d_ref, u_ref)
    assert la.mat_mul(u, u_inv) == la.identity_matrix(len(a))
    return v


@given(small_mats)
@settings(max_examples=120)
def test_snf_properties(a):
    d, u, u_inv = la.smith_normal_form(a)
    v = snf_transforms(a, d, u, u_inv)
    assert la.mat_mul(la.mat_mul(u, a), v) == d
    assert abs(int_det(u)) == 1
    assert abs(int_det(v)) == 1
    diag = la.diagonal_of(d)
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    nonzero = [e for e in diag if e != 0]
    assert all(e > 0 for e in nonzero)
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    # zero entries only after the nonzero ones
    seen_zero = False
    for e in diag:
        if e == 0:
            seen_zero = True
        else:
            assert not seen_zero


@pytest.mark.parametrize(
    "a",
    [
        ((2, 4), (1, 2)),  # singular
        ((6, 4, 2), (3, 2, 1), (9, 6, 3)),  # rank 1
        ((0, 0), (0, 0)),  # rank 0
        ((0,), (0,), (0,)),
        ((), ()),  # no columns
        (),  # no rows
    ],
)
def test_snf_of_degenerate_shapes(a):
    d, u, u_inv = la.smith_normal_form(a)
    v = snf_transforms(a, d, u, u_inv)
    assert la.mat_mul(la.mat_mul(u, a), v) == d
    assert abs(int_det(u)) == abs(int_det(v)) == 1


@given(small_mats, st.data())
@settings(max_examples=80)
def test_integer_solve(a, data):
    n = len(a[0])
    x = tuple(data.draw(st.integers(-5, 5)) for _ in range(n))
    b = la.mat_vec(a, x)
    sol = integer_solve(a, b)
    assert sol is not None
    x0, kernel = sol
    assert la.mat_vec(a, x0) == b
    for k in kernel:
        assert la.is_zero_vec(la.mat_vec(a, k))


def test_integer_solve_no_solution():
    assert integer_solve(((2,),), (1,)) is None
    assert integer_solve(((0,),), (1,)) is None


def test_quotient_lattice_projection_well_defined():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        quot = la.QuotientLattice(n, gens)
        x = tuple(rng.randint(-9, 9) for _ in range(n))
        for g in gens:
            assert quot.project(la.vec_add(x, g)) == quot.project(x)


def test_quotient_lattice_representatives():
    quot = la.QuotientLattice(2, [(2, 0), (0, 3)])
    assert quot.torsion == (1, 6) or quot.torsion == (6,) or set(quot.torsion) <= {2, 3, 6}
    reps = quot.representatives()
    assert len(reps) == 6
    assert len({quot.project(r) for r in reps}) == 6


def test_quotient_lattice_lifts_are_the_columns_of_u_inverse():
    # the u⁻¹ that the Smith normal form carries, against u⁻¹ solved for over ℚ
    rng = random.Random(3)
    finite = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        quot = la.QuotientLattice(n, [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(n, n + 2))])
        if quot.order is not None:
            finite += 1
            assert quot.representatives() == representatives_by_inverse(quot)
    assert finite > 20
    assert la.QuotientLattice(2, [(1, 0), (0, 1)]).representatives() == ((0, 0),)


def test_quotient_lattice_flips_a_free_row_with_its_column_of_u_inverse():
    # the SNF leaves the first nonzero entry of some free rows of u negative;
    # the lattice flips each such row and must flip the matching column of u⁻¹
    rng = random.Random(5)
    flipped = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, n))]
        quot = la.QuotientLattice(n, gens)
        nonzero = [g for g in gens if not la.is_zero_vec(g)]
        _, u, _ = la.smith_normal_form(la.transpose(nonzero) if nonzero else la.zero_matrix(n, 1))
        flipped += quot._u != u
        assert la.mat_mul(quot._u, quot._u_inv) == la.identity_matrix(n)
    assert flipped > 5


def test_quotient_lattice_of_rank_zero():
    quot = la.QuotientLattice(0, [(), ()])
    assert (quot.invariant_factors, quot.order, quot.representatives(), quot.project(())) == ((), 1, ((),), ())


def test_rational_solve_and_kernel():
    a = la.matrix([[1, 1, 0], [0, 1, 1]])
    x = la.rref_solve(a, (3, 5))
    assert x == rational_solve(a, (3, 5)) == (Q(-2), Q(5), Q(0))  # the free x₂ at 0
    assert la.rref_solve(la.matrix([[1], [1]]), (0, 1)) is rational_solve(la.matrix([[1], [1]]), (0, 1)) is None
    ker = rational_kernel(a)
    assert len(ker) == 1
    assert la.mat_vec(a, ker[0]) == (Q(0), Q(0))


def test_orbit_mean():
    rot = la.matrix([[0, -1], [1, 0]])  # order 4, fixed space 0
    assert orbit_mean(rot, (Q(3), Q(-1, 2))) == (Q(0), Q(0))
    swap = la.matrix([[0, 1], [1, 0]])
    mean = orbit_mean(swap, (Q(1), Q(0)))
    assert mean == (Q(1, 2), Q(1, 2))
    assert orbit_mean(swap, mean) == mean
    assert orbit_mean(swap, (Q(2, 3), Q(-1, 5))) == (Q(7, 30), Q(7, 30))
    for orbit_sum in (orbit_mean, group_inverse, la.orbit_sums):
        with pytest.raises(ValueError, match="not of finite order"):
            orbit_sum(((1, 1), (0, 1)), (0, 1))


def test_orbit_sums():
    rot = la.matrix([[0, -1], [1, 0]])  # order 4, fixed space 0
    # orbit (3, 1), (−1, 3), (−3, −1), (1, −3)
    assert la.orbit_sums(rot, (3, 1)) == (4, (0, 0), (8, 16))  # A^#·x = (1, 2)
    assert la.orbit_sums(rot, (0, 0)) == (1, (0, 0), (0, 0))
    swap = la.matrix([[0, 1], [1, 0]])
    assert la.orbit_sums(swap, (2, 5)) == (2, (7, 7), (-3, 3))
    assert la.orbit_sums(swap, (4, 4)) == (1, (4, 4), (0, 0))
    assert la.orbit_sums((), ()) == (1, (), ())


def test_lattice_index():
    assert lattice_index(((2, 0), (0, 3))) == 6
    assert lattice_index(((1, 0), (0, 1))) == 1


def test_scaled_solves_agree_with_rational_solve():
    """On random injective maps a = N/d: scaled gives the numerators over the
    lcm of the denominators, and solve_scaled through a left inverse finds the
    numerators of the rational_solve solution, or None exactly when y is off
    the image."""

    def solve(a, left, y):
        ynum, s = la.integer_numerators(y)
        x = la.solve_scaled(a, left, ynum)
        return None if x is None else tuple(Q(v, left[1] * s) for v in x)

    rng = random.Random(23)
    tried = off_image = 0
    while tried < 150:
        rows, cols = rng.randint(1, 5), rng.randint(1, 4)
        d = rng.randint(1, 4)
        a = tuple(tuple(Q(rng.randint(-4, 4), d) for _ in range(cols)) for _ in range(rows))
        if len(rational_rref(a)[1]) < cols:
            continue  # not injective
        tried += 1
        num, den = scaled(a)
        assert all(isinstance(x, int) for row in num for x in row) and den > 0
        assert tuple(tuple(Q(x, den) for x in row) for row in num) == a
        assert den == math.lcm(*[x.denominator for row in a for x in row])
        at = la.transpose(a)
        left = scaled(la.mat_mul(rational_inverse(la.mat_mul(at, a)), at))
        x = tuple(Q(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(cols))
        on = la.mat_vec(a, x)
        off = tuple(v + Q(rng.randint(0, 2), rng.randint(1, 3)) for v in on)
        assert solve((num, den), left, on) == x == rational_solve(a, on)
        found = solve((num, den), left, off)
        assert found == rational_solve(a, off)
        off_image += found is None
    assert off_image > 20


def test_scaled_keeps_an_integer_matrix():
    assert scaled(((1, -2), (0, 3))) == (((1, -2), (0, 3)), 1) == la.lowest_terms(((1, -2), (0, 3)), 1)
    assert scaled(((Q(1, 2), Q(2, 3)),)) == (((3, 4),), 6) == la.lowest_terms(((6, 8),), 12)
    assert scaled(()) == ((), 1) == la.lowest_terms((), 1)
    assert la.lowest_terms(((0, 0),), 4) == (((0, 0),), 1)
