"""Acceptance suite: one test per numbered criterion, exact arithmetic throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; each test is one criterion, so the pytest verdict per test is the
per-criterion verdict.
"""

import random
import time
from fractions import Fraction as Q

import pytest

import samplers
from semiring_oracles import (
    check_g2,
    check_orthogonal,
    check_symplectic,
    decomposition_inverse,
    perm_sign,
    trop_matrix_mul,
)
from tropgroups import circles as ci
from tropgroups import semiring as sr
from tropgroups import stability as stab
from tropgroups import verify
from tropgroups.groups import build_group

SEED = 20240809


def test_criterion_1_matrix_group_characterizations():
    """500 constrained (y, σ) pairs pass and 500 violating pairs fail, per family."""
    rng = random.Random(SEED)
    t0 = time.time()

    for _ in range(500):
        n = rng.randint(1, 5)
        good = samplers.gen_perm(rng, n)
        dec = sr.invert_or_decompose(good)
        ident = sr.TropMatrix.gen_perm((0,) * n, range(n))
        assert trop_matrix_mul(good, decomposition_inverse(dec).matrix()) == ident
        bad = samplers.non_invertible(rng, rng.randint(2, 5))
        with pytest.raises(sr.NotInvertibleError):
            sr.invert_or_decompose(bad)

    for _ in range(500):
        n = rng.randint(2, 5)
        member = samplers.sl_member(rng, n)
        assert sr.trop_det(member) == sr.ZERO
        sr.invert_or_decompose(member)
        violator = samplers.sl_violator(rng, n)
        assert sr.trop_det(violator) != sr.ZERO

    for _ in range(500):
        # the projective linear model admits every generalized permutation
        # matrix; violations are exactly the non-invertible matrices
        n = rng.randint(2, 5)
        sr.invert_or_decompose(samplers.gen_perm(rng, n))
        with pytest.raises(sr.NotInvertibleError):
            sr.invert_or_decompose(samplers.non_invertible(rng, n))

    for _ in range(500):
        n = rng.randint(1, 3)
        assert check_symplectic(samplers.symplectic_member(rng, n))
        assert not check_symplectic(samplers.symplectic_violator(rng, n))

    for _ in range(500):
        m = rng.choice([3, 4, 5, 6, 7])
        member = samplers.orthogonal_member(rng, m, special=True)
        assert check_orthogonal(member) == "in_SO"
        assert check_orthogonal(samplers.orthogonal_violator(rng, m)) == "not_member"
        if m % 2 == 0:
            loose = samplers.orthogonal_member(rng, m, special=False)
            dec = sr.invert_or_decompose(loose)
            want = "in_SO" if perm_sign(dec.perm) == 1 else "in_O"
            assert check_orthogonal(loose) == want

    for _ in range(500):
        assert check_g2(samplers.g2_member(rng))
        assert not check_g2(samplers.g2_violator(rng))

    elapsed = time.time() - t0
    assert elapsed < 10, f"criterion 1 took {elapsed:.1f}s"
    print(f"PASS criterion 1: matrix-group characterizations ({elapsed:.1f}s)")


def test_criterion_2_weyl_group_orders():
    """GLₙ → n!, Sp₂ₙ/SO₂ₙ₊₁ → 2ⁿn!, SO₂ₙ → 2ⁿ⁻¹n!, G₂ → 12, for n ≤ 4."""
    import math

    for n in range(1, 5):
        assert len(build_group("GL", n).weyl) == math.factorial(n)
        assert len(build_group("Sp", n).weyl) == 2**n * math.factorial(n)
        assert len(build_group("SO_odd", n).weyl) == 2**n * math.factorial(n)
        if n >= 2:
            assert len(build_group("SO_even", n).weyl) == 2 ** (n - 1) * math.factorial(n)
    assert len(build_group("G2", 0).weyl) == 12
    print("PASS criterion 2: Weyl group orders")


def test_criterion_3_fundamental_group_table():
    """Invariant factors: ℤ, 1, ℤ/n, 1, ℤ/4 (SO₂ₙ n odd), (ℤ/2)² (n even), n ≤ 4."""
    for n in range(1, 5):
        assert build_group("GL", n).pi1.invariant_factors == (0,)
        assert build_group("Sp", n).pi1.invariant_factors == ()
        if n >= 2:
            assert build_group("SL", n).pi1.invariant_factors == ()
            assert build_group("PGL", n).pi1.invariant_factors == (n,)
            expected = (4,) if n % 2 == 1 else (2, 2)
            assert build_group("SO_even", n).pi1.invariant_factors == expected
    print("PASS criterion 3: fundamental-group table")


def test_criterion_4_circle_classification_counts():
    """SLₙ indecomposable component has n points; PGLₙ component ≅ ℤ/nℤ; n ≤ 5."""
    t0 = time.time()
    for n in (2, 3, 4, 5):
        report = verify.sl_count(n)
        assert report["pass"], report
        report = verify.pgl_count(n)
        assert report["pass"], report
        assert report["invariant_factors"] == [n]
    elapsed = time.time() - t0
    assert elapsed < 5, f"criterion 4 took {elapsed:.1f}s"
    print(f"PASS criterion 4: circle classification counts ({elapsed:.1f}s)")


def test_criterion_5_relative_weyl_lemmas():
    """Exact coset bijection C_{W'}(w)/C_W(w) ≅ N_{W'}(W)/W for the four ambients."""
    report = verify.relative_weyl()
    groups = {c["group"] for c in report["cases"]}
    assert groups == {"GL4", "Sp2", "Sp3", "G2"}
    assert report["pass"], [c for c in report["cases"] if not c["pass"]]
    print(f"PASS criterion 5: relative Weyl lemmas ({len(report['cases'])} cases)")


def test_criterion_6_stability_oracle_equivalence():
    """Parabolic-reduction semistability equals the equal-slope cover criterion."""
    rng = random.Random(SEED)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4])
        g = build_group("GL", n)
        c = verify.sample_gl_cocycle(rng, g, Q(1))
        assert all(abs(x) <= 5 for x in c.slope)
        assert stab.is_semistable(c) == verify.semistable_by_multiline(c)
    print("PASS criterion 6: stability oracle equivalence (200 cocycles)")


def test_criterion_7_determinant_homeomorphism():
    """Equal determinant ⟺ isomorphic on the stable indecomposable locus."""
    t0 = time.time()
    for n, d in ((2, 1), (3, 1), (3, 2)):
        report = verify.det_homeo(n, d, samples=1000, seed=SEED)
        assert report["pass"], report
        assert report["discrete_invariants_match"]
    elapsed = time.time() - t0
    print(f"PASS criterion 7: determinant homeomorphism ({elapsed:.1f}s)")


def test_criterion_8_property_suites():
    """Gauge invariance (1000 gauges), iso equivalence relation, det oracle."""
    rng = random.Random(SEED)
    t0 = time.time()

    for _ in range(1000):
        n = rng.choice([1, 2, 3])
        g = build_group("GL", n)
        c = verify.sample_gl_cocycle(rng, g, Q(1))
        d = ci.gauge_transform(
            c,
            [rng.randint(-4, 4) for _ in range(n)],
            [verify.random_rational(rng) for _ in range(n)],
            rng.randrange(len(g.weyl)),
        )
        assert ci.degree(c) == ci.degree(d)
        vc, vd = stab.stability_verdict(c), stab.stability_verdict(d)
        assert (vc.semistable, vc.stable) == (vd.semistable, vd.stable)

    for _ in range(40):
        n = rng.choice([2, 3])
        g = build_group("GL", n)
        c0 = verify.sample_gl_cocycle(rng, g, Q(1))

        def rand_gauge(c):
            return ci.gauge_transform(
                c,
                [rng.randint(-3, 3) for _ in range(n)],
                [verify.random_rational(rng) for _ in range(n)],
                rng.randrange(len(g.weyl)),
            )

        c1, c2 = rand_gauge(c0), rand_gauge(rand_gauge(c0))
        assert ci.are_isomorphic(c0, c0)
        assert ci.are_isomorphic(c0, c1) and ci.are_isomorphic(c1, c0)
        assert ci.are_isomorphic(c1, c2) and ci.are_isomorphic(c0, c2)

    for _ in range(500):
        a = samplers.trop_matrix(rng, rng.randint(1, 6))
        assert sr.det_by_enumeration(a) == sr.det_by_assignment(a)

    elapsed = time.time() - t0
    print(f"PASS criterion 8: property suites ({elapsed:.1f}s)")
