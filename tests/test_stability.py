"""Slopes, dominance, reductions, semistability, stable degrees."""

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracles import rational_inverse, rational_solve
from weyl_oracles import levi_group, matrix_index, normalizer, parabolic_closure
from tropgroups import circles as ci
from tropgroups import groups as gr
from tropgroups import intlinalg as la
from tropgroups import rootdata as rd
from tropgroups import stability as stab
from tropgroups import verify, weyl
from tropgroups.errors import InvariantError
from tropgroups.groups import build_group


# the Fraction paths that the library's integer ones replaced, kept as oracles
def slope_of_group(g, lam):
    """φ_G: the slope for the full set of simple roots."""
    return stab.slope(g.parabolic(range(len(g.datum.simple))), lam)


def dominance_coeffs(g, lam, mu):
    """Coefficients of μ̌ − λ̌ in the simple-coroot basis, or None if outside the
    span: the solve of Č·c = μ̌ − λ̌ through the coroot frame."""
    y, s = la.integer_numerators(la.vec_sub(mu, lam))
    x = la.solve_scaled(*g.coroot_frame, y)
    return None if x is None else tuple(Q(v, g.coroot_frame[1][1] * s) for v in x)


def test_slope_examples():
    g = build_group("GL", 2)
    torus = g.parabolic(())
    assert stab.slope(torus, (1, 0)) == (Q(1), Q(0))
    assert slope_of_group(g, (1, 0)) == (Q(1, 2), Q(1, 2))
    g5 = build_group("GL", 5)
    assert slope_of_group(g5, (3, 0, 0, 0, 0)) == (Q(3, 5),) * 5


def test_slope_centrality_and_class_invariance():
    rng = random.Random(0)
    for family, n in [("GL", 3), ("Sp", 2), ("G2", 0)]:
        g = build_group(family, n)
        datum = g.datum
        for _ in range(20):
            lam = tuple(rng.randint(-5, 5) for _ in range(g.rank))
            positions = tuple(
                p for p in range(len(datum.simple)) if rng.random() < 0.6
            )
            p = g.parabolic(positions)
            phi = stab.slope(p, lam)
            for t in positions:
                assert datum.pair(datum.roots[datum.simple[t]], phi) == 0
            shift = lam
            for t in positions:
                coeff = rng.randint(-2, 2)
                shift = tuple(
                    x + coeff * y for x, y in zip(shift, datum.coroots[datum.simple[t]])
                )
            assert stab.slope(p, shift) == phi


def test_full_slope_depends_only_on_pi1_class():
    rng = random.Random(1)
    g = build_group("GL", 4)
    for _ in range(20):
        lam = tuple(rng.randint(-5, 5) for _ in range(4))
        shift = lam
        for c in g.datum.coroots:
            if rng.random() < 0.3:
                shift = tuple(x + y for x, y in zip(shift, c))
        assert slope_of_group(g, lam) == slope_of_group(g, shift)


def test_dominance_examples():
    g = build_group("GL", 2)
    assert stab.dominance_leq(g, (1, 0), (1, 0))
    assert not stab.dominance_leq(g, (1, 0), (1, 0), strict=True)
    assert not stab.dominance_leq(g, (1, 0), (Q(1, 2), Q(1, 2)))
    assert stab.dominance_leq(g, (0, 1), (Q(1, 2), Q(1, 2)))
    # incomparable when the difference leaves the coroot span
    assert not stab.dominance_leq(g, (0, 0), (1, 0))
    # GL₁ has no simple coroots: its order is equality
    g1 = build_group("GL", 1)
    assert stab.dominance_leq(g1, (1,), (1,)) and not stab.dominance_leq(g1, (1,), (1,), strict=True)
    assert not stab.dominance_leq(g1, (0,), (1,))


def test_reduction_degrees_examples():
    g = build_group("GL", 2)
    ident = g.weyl.identity_idx
    swap = 1 - ident
    full = g.parabolic((0,))
    torus = g.parabolic(())
    split = ci.cocycle(g, (1, 0), (0, 0), ident, 1)
    twisted = ci.cocycle(g, (1, 0), (0, 0), swap, 1)
    assert stab.reduction_degrees(split, torus) == {(1, 0), (0, 1)}
    assert stab.reduction_degrees(twisted, torus) == frozenset()
    # reductions to the full group recover the degree class
    assert stab.reduction_degrees(split, full) == {full.pi1.project((1, 0))}
    assert stab.reduction_degrees(twisted, full) == {full.pi1.project((1, 0))}


def test_stability_examples():
    g = build_group("GL", 2)
    ident = g.weyl.identity_idx
    swap = 1 - ident
    assert not stab.is_semistable(ci.cocycle(g, (1, 0), (0, 0), ident, 1))
    v = stab.stability_verdict(ci.cocycle(g, (1, 0), (0, 0), swap, 1))
    assert v.semistable and v.stable
    v = stab.stability_verdict(ci.cocycle(g, (1, 1), (0, 0), ident, 1))
    assert v.semistable and not v.stable


def test_stability_gauge_invariant():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.choice([2, 3])
        g = build_group("GL", n)
        c = verify.sample_gl_cocycle(rng, g, Q(1))
        d = ci.gauge_transform(
            c,
            [rng.randint(-3, 3) for _ in range(n)],
            [verify.random_rational(rng) for _ in range(n)],
            rng.randrange(len(g.weyl)),
        )
        assert stab.stability_verdict(c).semistable == stab.stability_verdict(d).semistable
        assert stab.stability_verdict(c).stable == stab.stability_verdict(d).stable


def test_multiline_oracle_agreement():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.choice([1, 2, 3, 4])
        g = build_group("GL", n)
        c = verify.sample_gl_cocycle(rng, g, Q(1))
        assert stab.is_semistable(c) == verify.semistable_by_multiline(c)


def test_stability_runs_and_is_gauge_invariant_across_families():
    rng = random.Random(9)
    for family, n in [("Sp", 2), ("SO_even", 2), ("G2", 0), ("SL", 3)]:
        g = build_group(family, n)
        for _ in range(12):
            c = ci.cocycle(
                g,
                [rng.randint(-3, 3) for _ in range(g.rank)],
                [verify.random_rational(rng) for _ in range(g.rank)],
                rng.randrange(len(g.weyl)),
                1,
            )
            d = ci.gauge_transform(
                c,
                [rng.randint(-2, 2) for _ in range(g.rank)],
                [verify.random_rational(rng) for _ in range(g.rank)],
                rng.randrange(len(g.weyl)),
            )
            vc, vd = stab.stability_verdict(c), stab.stability_verdict(d)
            assert (vc.semistable, vc.stable) == (vd.semistable, vd.stable)


def test_stable_degree_gcd():
    g4 = build_group("GL", 4)
    assert stab.is_stable_degree(g4, (1, 0, 0, 0))
    assert stab.is_stable_degree(g4, (3, 0, 0, 0))
    assert not stab.is_stable_degree(g4, (2, 0, 0, 0))
    assert not stab.is_stable_degree(g4, (0, 0, 0, 0))
    sl3 = build_group("SL", 3)
    assert not stab.is_stable_degree(sl3, (0, 0))  # zero degree in SL₃ has residue 0
    assert stab.adjoint_degree(g4, (3, 0, 0, 0)) == (3,)
    # an empty diagram is of type ∏A with no paths, and a B/C diagram is not
    assert stab.is_stable_degree(build_group("GL", 1), (5,))
    assert stab.adjoint_degree(build_group("GL", 1), (5,)) == ()
    for degree_map in (stab.is_stable_degree, stab.adjoint_degree):
        with pytest.raises(ValueError, match="product-A"):
            degree_map(build_group("Sp", 2), (0, 0))


def test_stable_degree_reads_the_diagram_once(monkeypatch):
    # is_stable_degree read the ∏A paths twice, once itself and once in adjoint_degree
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    g = build_group("GL", 6)
    walks = []
    orbits = weyl.WeylGroup.orbits

    def counted(self, maps):
        walks.append(len(maps))
        return orbits(self, maps)

    monkeypatch.setattr(weyl.WeylGroup, "orbits", counted)
    assert stab.is_stable_degree(g, (1, 0, 0, 0, 0, 0))
    assert stab.adjoint_degree(g, (1, 0, 0, 0, 0, 0)) == (1,)
    assert walks == [5]  # one parabolic build, of the full diagram


def test_minimal_parabolic_examples():
    g4 = build_group("GL", 4)
    assert stab.minimal_parabolic_for_degree(g4, (2, 0, 0, 0)).weyl.positions == (0, 2)
    assert stab.minimal_parabolic_for_degree(g4, (0, 0, 0, 0)).weyl.positions == ()
    assert stab.minimal_parabolic_for_degree(g4, (1, 0, 0, 0)).weyl.positions == (0, 1, 2)
    # independent of the integral lift
    rng = random.Random(4)
    for _ in range(20):
        lam = [rng.randint(-4, 4) for _ in range(4)]
        shift = list(lam)
        for c in g4.datum.coroots:
            if rng.random() < 0.3:
                shift = [x + y for x, y in zip(shift, c)]
        assert (
            stab.minimal_parabolic_for_degree(g4, lam).weyl.positions
            == stab.minimal_parabolic_for_degree(g4, shift).weyl.positions
        )


def minimal_positions_by_weights(g, lam):
    """The simple positions i with ⟨ω_i, φ_G(λ̌) − λ̌⟩ ∉ ℤ, paired with the
    fundamental weights of the root datum."""
    diff = la.vec_sub(slope_of_group(g, lam), lam)
    weights = rd.fundamental_weights(g.datum)
    return tuple(t for t, omega in enumerate(weights) if Q(g.datum.pair(omega, diff)).denominator != 1)


@pytest.mark.parametrize("family", rd.FAMILIES)
def test_minimal_parabolic_agrees_with_the_fundamental_weight_pairing(family):
    n = {"GL": 4, "SL": 4, "PGL": 4, "Sp": 3, "SO_odd": 3, "SO_even": 4, "G2": 0}[family]
    g = build_group(family, n)
    rng = random.Random(f"minimal {family}")
    found = set()
    for _ in range(40):
        lam = [rng.randint(-5, 5) for _ in range(g.rank)]
        positions = stab.minimal_parabolic_for_degree(g, lam).weyl.positions
        assert positions == minimal_positions_by_weights(g, lam)
        found.add(positions)
    assert len(found) > 1 or g.pi1.order == 1  # a trivial π₁ leaves every c_i integral


@pytest.mark.parametrize(
    "degree_map", [stab.minimal_parabolic_for_degree, stab.adjoint_degree, stab.is_stable_degree]
)
def test_degree_maps_reject_a_non_integral_degree(degree_map):
    # (1/2, 0, 0) was truncated to degree 0, or raised a bare TypeError from gcd
    g = build_group("GL", 3)
    for lam in [(Q(1, 2), 0, 0), (0.5, 0, 0)]:
        with pytest.raises(ValueError, match="'lam'"):
            degree_map(g, lam)
    degree_map(g, (Q(2), 0, 0))


@pytest.mark.parametrize(
    "degree_map", [stab.minimal_parabolic_for_degree, stab.adjoint_degree, stab.is_stable_degree]
)
def test_degree_maps_check_lam_as_a_vector_of_the_rank(degree_map):
    # (1,) on GL₄ failed inside vec_dot with "lengths 4 and 1 differ"
    g = build_group("GL", 4)
    for lam in [(1,), (1, 0, 0, 0, 0), 1]:
        with pytest.raises(ValueError, match="field 'lam' must be a list of 4 entries"):
            degree_map(g, lam)


def test_stable_degree_indecomposable_cocycles_are_stable():
    rng = random.Random(5)
    for n, d in [(2, 1), (3, 1), (3, 2), (4, 3)]:
        g = build_group("GL", n)
        rep = verify.indecomposable_class_rep(g)
        cls = g.weyl.class_of(rep)
        assert stab.is_stable_degree(g, (d,) + (0,) * (n - 1))
        for _ in range(10):
            c = verify.sample_gl_cocycle(rng, g, Q(1), degree=d, w_idx=rng.choice(cls))
            assert stab.is_stable(c)


def test_semistable_quotient_theorem_gl4():
    """Bundles for the S₂×S₂ parabolic of GL₄, modulo the relative Weyl
    group, inject into GL₄-bundles with the induced monodromy torsor."""
    rng = random.Random(6)
    big = build_group("GL", 4)
    positions = (0, 2)
    levi, inclusion = levi_group(big, positions)
    structure_w = verify.indecomposable_class_rep(levi)
    sub_indices = parabolic_closure(big.weyl, positions)
    normal = normalizer(big.weyl, sub_indices)
    sub_set = set(sub_indices)
    coset_reps = []
    seen = set()
    for t in normal:
        if t in seen:
            continue
        seen |= {big.weyl.mul(t, s) for s in sub_indices}
        coset_reps.append(t)
    assert len(coset_reps) == 2  # N(S₂×S₂)/(S₂×S₂) has order 2 in S₄

    def lift(c):
        return ci.pushforward(inclusion, c)

    def twist(c, t_idx):
        moved = ci.gauge_transform(lift(c), (0,) * 4, (0,) * 4, t_idx)
        w_idx = matrix_index(levi.weyl)[big.weyl.matrices[moved.mono_idx]]
        return ci.cocycle(levi, moved.slope, moved.offset, w_idx, c.length)

    def orbit_isomorphic(c1, c2):
        return any(ci.are_isomorphic(twist(c1, t), c2) for t in coset_reps)

    w_idx = structure_w
    for trial in range(25):
        c1 = _sample_levi_cocycle(rng, levi, w_idx)
        if trial % 2 == 0:
            c2 = twist(
                ci.gauge_transform(
                    c1,
                    [rng.randint(-2, 2) for _ in range(4)],
                    [verify.random_rational(rng) for _ in range(4)],
                    rng.choice(range(len(levi.weyl))),
                ),
                rng.choice(coset_reps),
            )
        else:
            c2 = _sample_levi_cocycle(rng, levi, w_idx)
        assert ci.are_isomorphic(lift(c1), lift(c2)) == orbit_isomorphic(c1, c2)


def _sample_levi_cocycle(rng, levi, w_idx):
    return ci.cocycle(
        levi,
        [rng.randint(-3, 3) for _ in range(levi.rank)],
        [verify.random_rational(rng) for _ in range(levi.rank)],
        w_idx,
        1,
    )


def test_verdict_json():
    g = build_group("GL", 2)
    v = stab.stability_verdict(ci.cocycle(g, (1, 0), (0, 0), g.weyl.identity_idx, 1))
    data = v.to_json()
    assert data["semistable"] is False and data["violations"]


# ---------------------------------------------------------------------------
# the per-query computation before the per-group parabolic data, kept as the
# reference: a subgroup closure and a scan of W per parabolic, a Cartan solve
# per slope and a coroot-basis solve per dominance test
# ---------------------------------------------------------------------------


_REF_CARTAN_INV = {}  # (group, positions) -> inverse of the Cartan matrix of the subset


def ref_slope(g, positions, lam):
    """φ = λ̌ − Σ c_j α̌_j for the solution c of the Cartan system K·c = (⟨α_j, λ̌⟩)_j
    of the subset.  K depends only on the group and the subset, so its
    inverse is memoised."""
    datum = g.datum
    if not positions:
        return tuple(Q(x) for x in lam)
    idxs = [datum.simple[t] for t in positions]
    if (g, positions) not in _REF_CARTAN_INV:
        cartan = tuple(tuple(datum.pair(datum.roots[a], datum.coroots[b]) for b in idxs) for a in idxs)
        _REF_CARTAN_INV[g, positions] = rational_inverse(cartan)
    rhs = tuple(datum.pair(datum.roots[a], lam) for a in idxs)
    phi = tuple(Q(x) for x in lam)
    for c, b in zip(la.mat_vec(_REF_CARTAN_INV[g, positions], rhs), idxs):
        phi = la.vec_sub(phi, la.vec_scale(c, datum.coroots[b]))
    return phi


def ref_conjugates(c):
    """(vwv⁻¹, v·m) for every v ∈ W, conjugating with two products and an inverse."""
    w = c.group.weyl
    return [(w.mul(w.mul(v, c.mono_idx), w.inverse[v]), la.mat_vec(w.matrices[v], c.slope)) for v in range(len(w))]


def ref_reduced_slopes(conjugates, sub):
    """The distinct v·m over v ∈ W with vwv⁻¹ in the sub-Weyl set, by a scan of W."""
    return dict.fromkeys(vm for w2, vm in conjugates if w2 in sub)


def ref_dominance_coeffs(g, lam, mu):
    datum = g.datum
    diff = la.vec_sub(tuple(Q(x) for x in mu), tuple(Q(x) for x in lam))
    if not datum.simple:
        return () if la.is_zero_vec(diff) else None
    basis = la.transpose([tuple(map(Q, datum.coroots[i])) for i in datum.simple])
    coeffs = rational_solve(basis, diff)
    if coeffs is None or la.mat_vec(basis, coeffs) != diff:
        return None
    return coeffs


def ref_verdict(c, reduction_sets):
    """The verdict from the reference pieces; reduction_sets[positions] is the
    frozenset of reference slopes of every proper parabolic."""
    g = c.group
    phi_g = ref_slope(g, tuple(range(len(g.datum.simple))), c.slope)
    semistable = stable = True
    violations = []
    for positions, slopes in reduction_sets.items():
        for phi_p in slopes:
            coeffs = ref_dominance_coeffs(g, phi_p, phi_g)
            leq = coeffs is not None and all(x >= 0 for x in coeffs)
            if not leq:
                semistable = stable = False
                violations.append((positions, phi_p, phi_g, False))
            elif not any(x > 0 for x in coeffs):
                stable = False
                violations.append((positions, phi_p, phi_g, True))
    return stab.StabilityVerdict(semistable, stable, tuple(violations))


# every family with |W| <= 720
GRID = [
    ("GL", 3), ("GL", 4), ("GL", 5), ("GL", 6),
    ("SL", 4), ("SL", 5),
    ("PGL", 4), ("PGL", 5),
    ("Sp", 2), ("Sp", 3), ("Sp", 4),
    ("SO_odd", 2), ("SO_odd", 3), ("SO_odd", 4),
    ("SO_even", 3), ("SO_even", 4),
    ("G2", 0),
]


@pytest.mark.parametrize("family,n", GRID + [("GL", 1), ("GL", 2), ("SL", 2), ("PGL", 3), ("Sp", 1), ("SO_even", 2)])
def test_minimal_parabolic_on_integers_matches_the_fraction_path(family, n):
    """The subset {t : X_t mod (e·d_G) ≠ 0} for X = L·(d_G·λ̌ − N_G·λ̌) against
    the denominators of the Fraction coefficients of λ̌ − φ_G(λ̌)."""
    g = build_group(family, n)
    rng = random.Random(f"minimal on integers {family}{n}")
    for _ in range(60):
        lam = [rng.randint(-7, 7) for _ in range(g.rank)]
        coeffs = dominance_coeffs(g, slope_of_group(g, lam), lam)
        expected = tuple(t for t, c in enumerate(coeffs) if c.denominator != 1)
        assert stab.minimal_parabolic_for_degree(g, lam).weyl.positions == expected


def seeded_cocycles(g, count, seed):
    """count cocycles, the first with identity monodromy, the rest with a
    uniformly drawn class and a uniform element of it."""
    rng = random.Random(seed)
    classes = g.weyl.conjugacy_classes()
    out = []
    for t in range(count):
        w = g.weyl.identity_idx if t == 0 else rng.choice(rng.choice(classes))
        m = [rng.randint(-3, 3) for _ in range(g.rank)]
        out.append(ci.cocycle(g, m, [verify.random_rational(rng) for _ in range(g.rank)], w, 1))
    return out


def check_against_the_reference(g, cocycles):
    """Verdicts, reduction slopes and reduction degrees of every parabolic, in
    order, against a full scan of W with closure-built sub-Weyl sets."""
    r = len(g.datum.simple)
    parabolics = [positions for size in range(r + 1) for positions in itertools.combinations(range(r), size)]
    subs = {positions: frozenset(parabolic_closure(g.weyl, positions)) for positions in parabolics}
    ref_slopes = {}  # (positions, λ̌) -> reference slope; a cocycle's reductions repeat across cocycles
    for c in cocycles:
        conjugates = ref_conjugates(c)
        reduction_sets = {}
        for positions in parabolics:
            reduced = ref_reduced_slopes(conjugates, subs[positions])
            for vm in reduced:
                if (positions, vm) not in ref_slopes:
                    ref_slopes[positions, vm] = ref_slope(g, positions, vm)
            slopes = frozenset({ref_slopes[positions, vm] for vm in reduced})
            p = g.parabolic(positions)
            # each distinct slope once, iterated as the set built in scan order
            got = stab._slopes(c, p, stab._conjugation_pass(c))
            assert got == slopes
            assert list(got) == list(slopes)
            assert list(stab.reduction_degrees(c, p)) == list(frozenset({p.pi1.project(vm) for vm in reduced}))
            if len(positions) < r:
                reduction_sets[positions] = slopes
        assert stab.stability_verdict(c).to_json() == ref_verdict(c, reduction_sets).to_json()


@pytest.mark.parametrize("family,n", GRID)
def test_verdicts_and_reductions_match_the_reference(family, n):
    g = build_group(family, n)
    check_against_the_reference(g, seeded_cocycles(g, 30, f"{family}{n}"))


@pytest.mark.parametrize("family,n", GRID)
def test_reduction_degrees_to_g_are_the_degree(family, n):
    """Every cocycle reduces to G itself, with its own degree in π₁(G), in
    the coordinates of circles.degree."""
    g = build_group(family, n)
    full = g.parabolic(range(len(g.datum.simple)))
    assert full.pi1 is g.pi1
    for c in seeded_cocycles(g, 40, f"degree {family}{n}"):
        assert stab.reduction_degrees(c, full) == {ci.degree(c)}


@pytest.mark.parametrize("family,n", [("Sp", 4), ("SO_even", 4), ("GL", 5)])
def test_identity_monodromy_matches_the_reference(family, n):
    """With w = 1 every v passes v·w·v⁻¹ ∈ W_P, so each coset of every
    parabolic contributes a reduction."""
    g = build_group(family, n)
    rng = random.Random(f"identity {family}{n}")
    cocycles = []
    for _ in range(4):
        m = [rng.randint(-3, 3) for _ in range(g.rank)]
        alpha = [verify.random_rational(rng) for _ in range(g.rank)]
        cocycles.append(ci.cocycle(g, m, alpha, g.weyl.identity_idx, 1))
    check_against_the_reference(g, cocycles)


COSET_CASES = [
    ("GL", 4), ("GL", 5), ("GL", 6), ("Sp", 3), ("Sp", 4),
    ("SO_odd", 3), ("SO_odd", 4), ("SO_even", 4), ("G2", 0),
]


@pytest.mark.parametrize("family,n", COSET_CASES)
def test_coset_representatives_are_the_least_indices(family, n):
    g = build_group(family, n)
    w = g.weyl
    r = len(g.datum.simple)
    for positions in (q for size in range(r) for q in itertools.combinations(range(r), size)):
        p = w.parabolic(positions)
        sub = parabolic_closure(w, positions)
        assert p.members == frozenset(sub)
        least = [min(w.mul(u, v) for u in sub) for v in range(len(w))]
        assert list(p.least) == least
        assert list(p.cosets) == sorted(set(least))
        assert len(p.cosets) == len(w) // len(sub)


@pytest.mark.parametrize("family,n", [("GL", 5), ("Sp", 4), ("SO_even", 4), ("G2", 0)])
def test_parabolics_are_skipped_exactly_when_no_conjugate_lies_in_them(family, n):
    """W_P meets the class of w iff some v ∈ W has v·w·v⁻¹ ∈ W_P, by a scan of
    W; when it does not, the reductions are read without forming a conjugate."""
    g = build_group(family, n)
    w = g.weyl
    r = len(g.datum.simple)

    def no_conjugates(v):
        raise AssertionError("a conjugate was formed for a skipped parabolic")

    for rep in (cls[0] for cls in w.conjugacy_classes()):
        c = ci.cocycle(g, (1,) + (0,) * (g.rank - 1), (0,) * g.rank, rep, 1)
        for positions in (q for size in range(r) for q in itertools.combinations(range(r), size)):
            p = g.parabolic(positions)
            meets = any(w.conj(v, rep) in p.weyl.members for v in range(len(w)))
            assert (w.class_id[rep] in p.weyl.classes) == meets, (rep, positions)
            if not meets:
                assert stab._reduced_slopes(c, p, (no_conjugates, no_conjugates)) == {}


def test_uneven_cosets_name_the_group_and_positions(monkeypatch):
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    g = build_group("GL", 3)
    # a left table whose s₁ fixes element 0: the search starts at 0 and finds
    # it alone, then the other element of its coset {0, s₁·0} alone as well
    left = list(g.weyl.left)
    left[1] = (0,) + left[1][1:]
    monkeypatch.setattr(g.weyl, "left", tuple(left))
    with pytest.raises(InvariantError, match=r"\(1,\) of TropicalGroup\(GLx3"):
        g.parabolic((1,))


def test_parabolic_data_is_built_once_per_group(monkeypatch):
    monkeypatch.setattr(gr, "_GROUP_CACHE", dict(gr._GROUP_CACHE))
    g = build_group("GL", 4)
    p = g.parabolic((0, 2))
    assert p.weyl is g.weyl.parabolic((0, 2)) is g.weyl.parabolic([2, 0])
    assert g.parabolic((0, 2)) is p
    assert g.parabolic([2, 0, 2]) is p
    assert stab.minimal_parabolic_for_degree(g, (2, 0, 0, 0)) is p
    assert g.parabolic(range(3)) is g.parabolic((0, 1, 2))
    gr._GROUP_CACHE.clear()
    fresh = build_group("GL", 4)
    assert fresh is not g
    q = fresh.parabolic((0, 2))
    assert q is not p and q.group is fresh
    assert q.weyl is not p.weyl and q.weyl is fresh.weyl.parabolic((0, 2))
    assert (q.weyl, q.slope_matrix) == (p.weyl, p.slope_matrix)


def test_singular_cartan_matrix_names_the_positions(monkeypatch):
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    g = build_group("GL", 3)

    def singular(a):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(stab.la, "rref_inverse", singular)
    with pytest.raises(InvariantError, match=r"\(0, 1\)"):
        g.parabolic((1, 0))


def test_dominance_coeffs_outside_the_coroot_span():
    g = build_group("GL", 3)  # its centre is the line spanned by (1, 1, 1)
    assert dominance_coeffs(g, (0, 0, 0), (1, 0, 0)) is None
    assert dominance_coeffs(g, (0, 0, 0), (1, 1, 1)) is None
    assert dominance_coeffs(g, (Q(1, 3),) * 3, (0, 0, 0)) is None
    assert dominance_coeffs(g, (0, 0, 0), (1, -1, 0)) == (Q(1), Q(0))
    assert dominance_coeffs(g, (0, 1, -1), (0, 0, 0)) == (Q(0), Q(-1))
    assert dominance_coeffs(g, (0, 0, 0), (Q(1, 2), 0, Q(-1, 2))) == (Q(1, 2), Q(1, 2))
    rng = random.Random(10)
    for family, n in [("GL", 3), ("SL", 3), ("Sp", 2), ("G2", 0), ("GL", 1)]:
        g = build_group(family, n)
        for _ in range(40):
            lam = [verify.random_rational(rng) for _ in range(g.rank)]
            mu = [verify.random_rational(rng) for _ in range(g.rank)]
            if rng.random() < 0.5:  # move μ̌ into λ̌ + the coroot span
                mu = list(lam)
                for i in g.datum.simple:
                    mu = la.vec_add(mu, la.vec_scale(verify.random_rational(rng), g.datum.coroots[i]))
            assert dominance_coeffs(g, lam, mu) == ref_dominance_coeffs(g, lam, mu)


# ---------------------------------------------------------------------------
# the dominance order on integer numerators, against the order read off the
# Fraction coefficients of μ̌ − λ̌
# ---------------------------------------------------------------------------


def order_by_coeffs(coeffs):
    """(λ̌ ≤ μ̌, λ̌ < μ̌) from the coefficients of μ̌ − λ̌ (None outside the span)."""
    if coeffs is None or any(c < 0 for c in coeffs):
        return False, False
    return True, any(c > 0 for c in coeffs)


DOMINANCE_GROUPS = [("GL", 1), ("GL", 3), ("SL", 3), ("PGL", 3), ("Sp", 2), ("SO_odd", 2), ("SO_even", 3), ("G2", 0)]
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def dominance_pairs(draw):
    """(g, λ̌, μ̌) with μ̌ = λ̌, μ̌ ∈ λ̌ + the coroot span (with coefficients of
    either sign, or all nonnegative), or μ̌ drawn freely, which for GL lies
    off the coroot span."""
    g = build_group(*draw(st.sampled_from(DOMINANCE_GROUPS)))
    vector = st.lists(small_rationals, min_size=g.rank, max_size=g.rank)
    lam = draw(vector)
    kind = draw(st.sampled_from(["equal", "span", "above", "free"]))
    if kind == "free":
        return g, lam, draw(vector)
    mu = lam
    coeff = st.just(Q(0)) if kind == "equal" else small_rationals.map(abs) if kind == "above" else small_rationals
    for i in g.datum.simple:
        mu = la.vec_add(mu, la.vec_scale(draw(coeff), g.datum.coroots[i]))
    return g, lam, mu


@given(dominance_pairs())
@settings(max_examples=400, deadline=None)
def test_dominance_on_numerators_is_the_fraction_order(case):
    g, lam, mu = case
    expected = order_by_coeffs(dominance_coeffs(g, lam, mu))
    y, _ = la.integer_numerators(la.vec_sub(mu, lam))
    assert stab._dominance(g, y) == expected
    assert (stab.dominance_leq(g, lam, mu), stab.dominance_leq(g, lam, mu, strict=True)) == expected


def test_slope_and_dominance_read_their_vectors_as_fields():
    g = build_group("GL", 3)
    p = g.parabolic((0,))
    # a float is read as its repr, as in a cocycle field
    half = [Q(1, 2), 1, 2]
    assert slope_of_group(g, [0.5, 1, 2]) == slope_of_group(g, half) == (Q(7, 6),) * 3
    assert stab.slope(p, [0.5, 1, 2]) == stab.slope(p, half) == (Q(3, 4), Q(3, 4), Q(2))
    assert stab.dominance_leq(g, [0.5, 1, 2], (Q(7, 6),) * 3) is stab.dominance_leq(g, half, (Q(7, 6),) * 3) is True
    assert stab.dominance_leq(g, (Q(7, 6),) * 3, [0.5, 1, 2]) is False
    # a bool is no rational, a short vector no vector of the rank
    bad = [([True, 1, 2], "True is not a rational"), ([1, 2], "must be a list of 3 entries"),
           ([float("nan"), 1, 2], "not a rational"), ("abc", "must be a list of 3 entries")]
    for value, message in bad:
        with pytest.raises(ValueError, match=f"'lam'.*{message}"):
            stab.dominance_leq(g, value, (0, 0, 0))
        with pytest.raises(ValueError, match=f"'mu'.*{message}"):
            stab.dominance_leq(g, (0, 0, 0), value)
        with pytest.raises(ValueError, match=f"'lam'.*{message}"):
            slope_of_group(g, value)
        with pytest.raises(ValueError, match=f"'lam'.*{message}"):
            stab.slope(p, value)
