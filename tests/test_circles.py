"""Circle cocycles: gauge action, isomorphism, classification, multi-line bundles."""

import hashlib
import json
import random
from fractions import Fraction as Q

import pytest

from lattice_oracles import group_inverse, integer_solve, orbit, orbit_mean, rational_solve
from semiring_oracles import check_sp_trivialization
from tropgroups import circles as ci
from tropgroups import groups as gr
from tropgroups import intlinalg as la
from tropgroups import cli, semiring, verify, weyl
from tropgroups.groups import build_group
from tropgroups.permutations import cycles_of


def rng_cocycle(rng, g, j=Q(1)):
    return verify.sample_gl_cocycle(rng, g, j)


def test_trivial_gauge_is_identity():
    g = build_group("GL", 2)
    c = ci.cocycle(g, (1, 0), (Q(1, 3), 0), 1, 1)
    assert ci.gauge_transform(c, (0, 0), (0, 0), g.weyl.identity_idx) == c


def test_gauge_example_permutation():
    g = build_group("GL", 2)
    swap = 1 - g.weyl.identity_idx
    c = ci.cocycle(g, (1, 0), (0, 0), g.weyl.identity_idx, 1)
    out = ci.gauge_transform(c, (0, 0), (0, 0), swap)
    assert out.slope == (0, 1) and out.offset == (Q(0), Q(0))
    assert out.mono_idx == g.weyl.identity_idx


def test_gauge_example_integral_shift():
    g = build_group("GL", 1)
    c = ci.cocycle(g, (1,), (0,), 0, 1)
    out = ci.gauge_transform(c, (1,), (0,), 0)
    assert out.slope == (1,) and out.offset == (Q(-1),)


@pytest.mark.parametrize("k", [(Q(1, 2),), (1.7,), ("1/2",)])
def test_gauge_transform_rejects_a_non_integral_k(k):
    # k was truncated: (1/2,) acted as (0,) and (1.7,) as (1,)
    c = ci.cocycle(build_group("GL", 1), (1,), (0,), 0, 1)
    with pytest.raises(ValueError, match="'k'"):
        ci.gauge_transform(c, k, (0,), 0)


def gl2_swapped():
    """GL₂, the index of its transposition and a cocycle with that monodromy."""
    g = build_group("GL", 2)
    swap = 1 - g.weyl.identity_idx
    return g, swap, ci.cocycle(g, (1, 0), (0, 0), swap, 1)


@pytest.mark.parametrize(
    "beta,v,field",
    [
        ((True, 0), 0, "'beta'"),  # was counted as 1
        ((0,), 0, "'beta'"),  # was a zip() length error
        ((0, 0, 0), 0, "'beta'"),
        ((0, 0), True, "'v'"),  # was taken as index 1
        ((0, 0), 1.5, "'v'"),
    ],
)
def test_gauge_transform_checks_beta_and_v(beta, v, field):
    _, _, c = gl2_swapped()
    with pytest.raises(ValueError, match=field):
        ci.gauge_transform(c, (0, 0), beta, v)


def test_gauge_transform_checks_the_length_of_k():
    _, _, c = gl2_swapped()
    for k in ((1,), (1, 0, 0), 5):
        with pytest.raises(ValueError, match="'k' must be a list of 2 entries"):
            ci.gauge_transform(c, k, (0, 0), 0)


def test_gauge_fields_are_read_as_cocycle_fields():
    # β = (0.1, 0) is read as cocycle reads α = 0.1, as the decimal 1/10 that
    # the command line reads from JSON; v = 1.0, a TypeError before, is index 1
    # as w = 1.0 is
    g, swap, c = gl2_swapped()
    identity = g.weyl.identity_idx
    assert ci.gauge_transform(c, (0, 0), (0.1, 0), identity) == ci.cocycle(g, (1, 0), (0.1, -0.1), swap, 1)
    assert ci.gauge_transform(c, (0, 0), (0, 0), 1.0) == ci.gauge_transform(c, (0, 0), (0, 0), 1)
    assert ci.cocycle(g, (1, 0), (0, 0), 1.0, 1) == ci.cocycle(g, (1, 0), (0, 0), 1, 1)


def test_a_decimal_reads_the_same_from_the_library_and_the_command_line(capsys):
    # a library 0.1 was the float's exact binary value,
    # 3602879701896397/36028797018963968, and the command line's 0.1 was 1/10
    g, swap, c = gl2_swapped()
    tenth = ci.cocycle(g, (1, 0), (0.1, 0), swap, 1)
    assert tenth.offset == (Q(1, 10), Q(0))
    assert ci.gauge_transform(c, (0, 0), (0.1, 0), g.weyl.identity_idx).offset == (Q(1, 10), Q(-1, 10))
    pair = [tenth.to_json(), {"m": [1, 0], "alpha": [0.1, 0], "w": swap, "j": 1}]
    assert cli.main(["iso-test", "GL", "2", "--cocycle", json.dumps(pair)]) == 0
    assert json.loads(capsys.readouterr().out)["isomorphic"] is True


@pytest.mark.parametrize("bad", [-1, 2, True, 1.5, "1/2", None])
def test_every_weyl_index_field_is_checked_alike(bad):
    g, swap, c = gl2_swapped()
    fine = ci.GaugeTriple((0, 0), (Q(0), Q(0)), swap)
    calls = [
        ("w", lambda: ci.cocycle(g, (1, 0), (0, 0), bad, 1)),
        ("w", lambda: g.element((0, 0), bad)),
        ("v", lambda: ci.gauge_transform(c, (0, 0), (0, 0), bad)),
        ("v", lambda: ci.compose_gauges(c, ci.GaugeTriple((0, 0), (Q(0), Q(0)), bad), fine)),
        ("v", lambda: ci.compose_gauges(c, fine, ci.GaugeTriple((0, 0), (Q(0), Q(0)), bad))),
        ("w", lambda: ci.slope_residues(g, bad)),
        ("x", lambda: g.weyl.conjugators(bad, swap)),
        ("y", lambda: g.weyl.conjugators(swap, bad)),
        ("x", lambda: g.weyl.centralizer(bad)),
    ]
    for field, call in calls:
        with pytest.raises(ValueError, match=f"field '{field}'"):
            call()


def test_every_weyl_index_field_takes_only_an_index():
    # a WeylElement was once read as its index; the index is the one form
    g, swap, c = gl2_swapped()
    elt = g.weyl.element(swap)
    first = ci.GaugeTriple((1, 0), (Q(1, 2), Q(0)), swap)
    for field, call in [
        ("w", lambda w: ci.cocycle(g, (1, 0), (0, 0), w, 1)),
        ("w", lambda w: g.element((0, 0), w)),
        ("v", lambda v: ci.gauge_transform(c, (0, 0), (0, 0), v)),
        ("v", lambda v: ci.compose_gauges(c, first, ci.GaugeTriple((1, 0), (Q(1, 2), Q(0)), v))),
    ]:
        with pytest.raises(ValueError, match=f"'{field}': WeylElement"):
            call(elt)
        assert call(swap) is not None
    assert ci.cocycle(g, (1, 0), (0, 0), swap, 1) == c
    assert ci.compose_gauges(c, first, first).v_idx == g.weyl.identity_idx


@pytest.mark.parametrize("check", [ci.multiline_of, check_sp_trivialization])
def test_multiline_checks_reject_a_non_integral_slope(check):
    # m = (1/2, 0) was truncated to degree 0
    with pytest.raises(ValueError, match="'m'"):
        check((Q(1, 2), 0), (0, 0), (1, 0), Q(1))
    assert check((1, -1), (0, 0), (1, 0), Q(1)) is not None


def test_multiline_of_reads_m_and_alpha_as_cocycle_does():
    # a short m or α raised a bare IndexError, and α = (True, 0) counted as 1
    for m, alpha, field in [((1,), (0, 0), "'m'"), ((1, 0), (0,), "'alpha'"), ((1, 0), (True, 0), "'alpha'")]:
        with pytest.raises(ValueError, match=field):
            ci.multiline_of(m, alpha, (1, 0), Q(1))


def test_multiline_of_reads_j_and_the_permutation_as_cocycle_and_gen_perm_do():
    # j = 0 raised ZeroDivisionError, j = −1 gave negative lengths, 0.1 float
    # lengths, True was read as 1 and "1/2" raised TypeError; σ = (0, 0) gave
    # two fixed points and (1, 2) raised a bare IndexError
    for j in (0, -1, Q(-1, 2)):
        with pytest.raises(ValueError, match="circle length must be positive"):
            ci.multiline_of((1, 0), (0, 0), (1, 0), j)
    for j in (True, "abc", float("nan")):
        with pytest.raises(ValueError, match="'j'"):
            ci.multiline_of((1, 0), (0, 0), (1, 0), j)
    for perm in ((0, 0), (1, 2), (2, 0, 0), (True, False), (Q(1, 2), 0)):
        with pytest.raises(ValueError, match="σ = .* is not a permutation of range|'sigma'"):
            ci.multiline_of((1, 0), (0, 0), perm, 1)
    (comp,) = ci.multiline_of((1, 0), (Q(3, 10), 0), (1, 0), 0.1)
    assert (comp.length, comp.jacobian) == (Q(1, 5), Q(1, 10))


def test_verify_suites_read_j_as_cocycle_does():
    # Fraction(j) ran a suite at j = 0.1 on 3602879701896397/36028797018963968
    # and at j = True as 1; det-homeo is the one suite that reads j
    assert verify.det_homeo(2, 1, samples=4, j=0.1) == verify.det_homeo(2, 1, samples=4, j="1/10")
    for j in (True, 0, "-1/2"):
        with pytest.raises(ValueError, match="field 'j'"):
            verify.det_homeo(2, 1, samples=1, j=j)
    assert ci.multiline_of((1, 0), (0, 0), (1, 0), "1/2") == ci.multiline_of((1, 0), (0, 0), [1, 0], Q(1, 2))


def test_gauge_composition_law():
    rng = random.Random(0)
    for _ in range(500):
        n = rng.choice([1, 2, 3])
        g = build_group("GL", n)
        c = rng_cocycle(rng, g)
        triples = []
        for _ in range(2):
            triples.append(
                ci.GaugeTriple(
                    tuple(rng.randint(-3, 3) for _ in range(n)),
                    tuple(verify.random_rational(rng) for _ in range(n)),
                    rng.randrange(len(g.weyl)),
                )
            )
        first, second = triples
        step = ci.gauge_transform(c, first.k, first.beta, first.v_idx)
        two_steps = ci.gauge_transform(step, second.k, second.beta, second.v_idx)
        combined = ci.compose_gauges(c, second, first)
        assert ci.gauge_transform(c, combined.k, combined.beta, combined.v_idx) == two_steps


def test_degree_examples():
    g2 = build_group("GL", 2)
    assert ci.degree(ci.cocycle(g2, (1, 0), (0, 0), 0, 1)) == (1,)
    coroot = g2.datum.coroots[0]
    assert ci.degree(ci.cocycle(g2, coroot, (0, 0), 0, 1)) == (0,)
    pgl2 = build_group("PGL", 2)
    assert ci.degree(ci.cocycle(pgl2, (1,), (0,), 0, 1)) == (1,)


def test_degree_gauge_invariant():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.choice([2, 3])
        g = build_group("GL", n)
        c = rng_cocycle(rng, g)
        d = ci.gauge_transform(
            c,
            [rng.randint(-4, 4) for _ in range(n)],
            [verify.random_rational(rng) for _ in range(n)],
            rng.randrange(len(g.weyl)),
        )
        assert ci.degree(c) == ci.degree(d)


def test_iso_jacobian_examples():
    g = build_group("GL", 1)
    base = ci.cocycle(g, (0,), (0,), 0, 1)
    assert not ci.are_isomorphic(base, ci.cocycle(g, (0,), (Q(1, 2),), 0, 1))
    witness = ci.isomorphism_witness(base, ci.cocycle(g, (0,), (1,), 0, 1))
    assert witness is not None and witness.k == (-1,)


def test_iso_requires_same_length_and_group():
    g = build_group("GL", 1)
    a = ci.cocycle(g, (0,), (0,), 0, 1)
    b = ci.cocycle(g, (0,), (0,), 0, 2)
    with pytest.raises(ValueError):
        ci.are_isomorphic(a, b)
    with pytest.raises(gr.ParentMismatchError):
        ci.are_isomorphic(a, ci.cocycle(build_group("GL", 2), (0, 0), (0, 0), 0, 1))


def test_iso_is_equivalence_on_gauge_orbits():
    rng = random.Random(2)
    for _ in range(25):
        n = rng.choice([2, 3])
        g = build_group("GL", n)
        c0 = rng_cocycle(rng, g)

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


def test_iso_on_gauge_orbits_across_families():
    rng = random.Random(7)
    for family, n in [("Sp", 2), ("SO_even", 3), ("G2", 0), ("SL", 3), ("PGL", 3)]:
        g = build_group(family, n)
        for _ in range(15):
            c = ci.cocycle(
                g,
                [rng.randint(-4, 4) for _ in range(g.rank)],
                [verify.random_rational(rng) for _ in range(g.rank)],
                rng.randrange(len(g.weyl)),
                Q(3, 2),
            )
            d = ci.gauge_transform(
                c,
                [rng.randint(-3, 3) for _ in range(g.rank)],
                [verify.random_rational(rng) for _ in range(g.rank)],
                rng.randrange(len(g.weyl)),
            )
            assert ci.are_isomorphic(c, d)
            assert ci.degree(c) == ci.degree(d)


def test_iso_negative_on_finite_sl_component():
    g = build_group("SL", 3)
    rep = _indecomposable_rep(g)
    residues = ci.slope_residues(g, rep)
    assert len(residues) == 3
    reps = [ci.cocycle(g, m, (0, 0), rep, 1) for m in residues]
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert not ci.are_isomorphic(a, b)


def test_slope_residues_names_an_infinite_quotient():
    # w fixes ker(1 − w), of rank the torus rank: the identity of GL₂ fixes
    # all of M̌, and a 3-cycle of GL₃ the line of (1, 1, 1); a Coxeter
    # element of SL₃ fixes nothing, and its 3 residues are listed
    for family, n, w_idx, rank in (("GL", 2, None, 2), ("GL", 3, 1, 1)):
        g = build_group(family, n)
        w_idx = g.weyl.identity_idx if w_idx is None else w_idx
        assert ci.component_for_class(g, w_idx).torus_rank == rank
        with pytest.raises(ValueError, match=f"field 'w': Weyl element {w_idx} fixes a rank-{rank} sublattice.*infinite"):
            ci.slope_residues(g, w_idx)
    g = build_group("SL", 3)
    assert len(ci.slope_residues(g, _indecomposable_rep(g))) == 3


def _indecomposable_rep(g):
    return verify.indecomposable_class_rep(g)


def test_iso_agrees_with_bounded_gauge_search():
    """Independent oracle: try every v and every integral k in a box, asking
    only whether the offset equation admits a rational β; compare verdicts."""
    rng = random.Random(8)
    box = 3

    def brute_force(a, b):
        g = a.group
        w = g.weyl
        n = g.rank
        j = a.length
        ks = [()]
        for _ in range(n):
            ks = [k + (x,) for k in ks for x in range(-box, box + 1)]
        for v_idx in range(len(w)):
            w2 = w.mul(w.mul(v_idx, a.mono_idx), w.inverse[v_idx])
            if w2 != b.mono_idx:
                continue
            vmat = w.matrices[v_idx]
            w2mat = w.matrices[b.mono_idx]
            amat = la.mat_sub(la.identity_matrix(n), w2mat)
            vm = la.mat_vec(vmat, a.slope)
            for k in ks:
                if la.vec_add(k, la.vec_sub(vm, la.mat_vec(w2mat, k))) != b.slope:
                    continue
                t = la.vec_sub(b.offset, la.mat_vec(vmat, a.offset))
                rhs = la.vec_add(t, la.vec_scale(j, la.mat_vec(w2mat, k)))
                beta = rational_solve(amat, rhs)
                if beta is not None:
                    assert ci.gauge_transform(a, k, beta, v_idx) == b
                    return True
        return False

    cases = [("GL", 1, 40), ("GL", 2, 40), ("GL", 3, 12), ("Sp", 1, 20), ("SL", 2, 20)]
    for family, n, trials in cases:
        g = build_group(family, n)
        for _ in range(trials):
            a = ci.cocycle(
                g,
                [rng.randint(-2, 2) for _ in range(g.rank)],
                [Q(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(g.rank)],
                rng.randrange(len(g.weyl)),
                1,
            )
            b = ci.cocycle(
                g,
                [rng.randint(-2, 2) for _ in range(g.rank)],
                [Q(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(g.rank)],
                rng.randrange(len(g.weyl)),
                1,
            )
            mine = ci.isomorphism_witness(a, b)
            brute = brute_force(a, b)
            if brute:
                assert mine is not None
            if mine is not None and all(abs(x) <= box for x in mine.k):
                assert brute
            if mine is None:
                assert not brute


def test_sp4_paired_divisor_instance():
    # degree pattern (3, 7, −3, −7) on the four sheets, paired by the involution
    g = build_group("Sp", 2)
    c = ci.cocycle(g, (3, 7), (0, 0), g.weyl.identity_idx, 1)
    mlb = ci.sp_structure(c)
    assert sorted(comp.line_degree for comp in mlb.components) == [-7, -3, 3, 7]
    assert mlb.to_json()["violations"] == []


def test_iso_witness_is_deterministic_and_valid():
    rng = random.Random(3)
    g = build_group("GL", 2)
    c = ci.cocycle(g, (2, -1), (Q(1, 2), Q(1, 3)), 1, 1)
    d = ci.gauge_transform(c, (1, -2), (Q(2, 5), 0), 1)
    w1 = ci.isomorphism_witness(c, d)
    w2 = ci.isomorphism_witness(c, d)
    assert w1 == w2
    assert ci.gauge_transform(c, w1.k, w1.beta, w1.v_idx) == d


def test_classify_component_count_is_class_count():
    for family, n in [("GL", 3), ("SL", 3), ("Sp", 2), ("G2", 0)]:
        g = build_group(family, n)
        comps = ci.classify_components(g)
        assert len(comps) == len(g.weyl.conjugacy_classes())


def test_classify_gl1():
    g = build_group("GL", 1)
    (comp,) = ci.classify_components(g)
    assert comp.torus_rank == 1
    assert comp.invariant_factors == (0,)
    assert comp.centralizer_order == 1


def test_classify_trivial_class_matches_pic_tensor_cochar():
    g = build_group("GL", 3)
    comp = ci.component_for_class(g, g.weyl.identity_idx)
    assert comp.torus_rank == 3
    assert comp.invariant_factors == (0, 0, 0)
    assert comp.centralizer_order == 6


def test_component_for_class_is_the_component_of_its_class():
    for family, n in [("GL", 4), ("Sp", 3), ("G2", 0)]:
        g = build_group(family, n)
        comps = {c.class_rep: c for c in ci.classify_components(g)}
        for x in range(len(g.weyl)):
            assert ci.component_for_class(g, x) == comps[g.weyl.class_of(x)[0]]


def test_pushforward_det():
    rng = random.Random(4)
    det = gr.hom_det(3)
    g = build_group("GL", 3)
    for _ in range(20):
        c = rng_cocycle(rng, g)
        image = ci.pushforward(det, c)
        assert image.slope == (sum(c.slope),)
        assert image.offset == (sum(c.offset, Q(0)),)
        assert image.mono_idx == det.target.weyl.identity_idx


def test_pushforward_identity_and_sl_inclusion():
    g = build_group("SL", 2)
    inc = gr.hom_sl_to_gl(2)
    c = ci.cocycle(g, (1,), (0,), 0, 1)
    image = ci.pushforward(inc, c)
    assert image.slope == (1, -1)
    assert ci.degree(image) == (0,)


@pytest.mark.parametrize("hom", [gr.hom_sl_to_gl, gr.hom_gl_to_pgl, gr.hom_det])
def test_pushforward_along_a_hom_built_under_a_guard(hom):
    """A standard homomorphism built under a guard maps the one group of each
    (family, n), as the default-guard one does: the guard is no part of a group."""
    rng = random.Random(9)
    guarded, plain = hom(3, 5000), hom(3)
    assert guarded.source is build_group(*guarded.source.family, 5000) is plain.source
    assert guarded.target is build_group(*guarded.target.family, 5000) is plain.target
    for _ in range(10):
        g = guarded.source
        m = [rng.randint(-4, 4) for _ in range(g.rank)]
        alpha = [verify.random_rational(rng) for _ in range(g.rank)]
        w = rng.randrange(len(g.weyl))
        image = ci.pushforward(guarded, ci.cocycle(g, m, alpha, w, 1))
        expected = ci.pushforward(plain, ci.cocycle(plain.source, m, alpha, w, 1))
        assert image.group is guarded.target
        assert (image.slope, image.offset, image.mono_idx) == (expected.slope, expected.offset, expected.mono_idx)
    # a second group per guard once made this a ParentMismatchError
    image = ci.pushforward(guarded, ci.cocycle(plain.source, m, alpha, w, 1))
    assert (image.group, image.slope, image.offset, image.mono_idx) == (
        plain.target, expected.slope, expected.offset, expected.mono_idx
    )


def test_multiline_cycle_example():
    g = build_group("GL", 2)
    swap = 1 - g.weyl.identity_idx
    mlb = ci.to_multiline(ci.cocycle(g, (1, 0), (0, 0), swap, 1))
    assert len(mlb.components) == 1
    comp = mlb.components[0]
    assert comp.length == 2 and comp.line_degree == 1 and comp.jacobian == 0


def test_multiline_trivial_cover():
    g = build_group("GL", 3)
    mlb = ci.to_multiline(ci.cocycle(g, (5, -1, 2), (0, 0, 0), g.weyl.identity_idx, 1))
    assert [c.line_degree for c in mlb.components] == [5, -1, 2]
    assert all(c.length == 1 for c in mlb.components)


def test_multiline_total_degree_is_degree():
    rng = random.Random(5)
    g = build_group("GL", 4)
    for _ in range(40):
        c = rng_cocycle(rng, g)
        mlb = ci.to_multiline(c)
        assert (sum(comp.line_degree for comp in mlb.components),) == ci.degree(c)
        assert sum(len(comp.sheets) for comp in mlb.components) == 4
        assert all(comp.length == len(comp.sheets) * c.length for comp in mlb.components)


def test_sp_structure_trivialization_passes():
    rng = random.Random(6)
    for n in (1, 2, 3):
        g = build_group("Sp", n)
        for _ in range(15):
            c = ci.cocycle(
                g,
                [rng.randint(-4, 4) for _ in range(n)],
                [verify.random_rational(rng) for _ in range(n)],
                rng.randrange(len(g.weyl)),
                1,
            )
            mlb = ci.sp_structure(c)
            assert mlb.to_json()["violations"] == []
            y = g.model[0]
            m, alpha = la.mat_vec(y, c.slope), la.mat_vec(y, c.offset)
            assert check_sp_trivialization(m, alpha, g.weyl.perm(c.mono_idx), c.length) == ()
            assert mlb.involution is not None
            assert sum(len(comp.sheets) for comp in mlb.components) == 2 * n


def test_sp_structure_pairs_degrees():
    g = build_group("Sp", 1)
    mlb = ci.sp_structure(ci.cocycle(g, (3,), (0,), g.weyl.identity_idx, 1))
    assert sorted(c.line_degree for c in mlb.components) == [-3, 3]


def test_sp_trivialization_violation_detected():
    violations = check_sp_trivialization((1, 0, 0, 0), (0, 0, 0, 0), (0, 1, 2, 3), Q(1))
    assert violations and violations[0][1] == 1
    violations = check_sp_trivialization((0, 0, 0, 0), (Q(1, 2), 0, 0, 0), (0, 1, 2, 3), Q(1))
    assert violations and violations[0][2] == Q(1, 2)


# the trivialization check before it went through multiline_of, kept as the
# reference: its own walk of each quotient cycle over both sheets of a pair
def reference_sp_trivialization(m, alpha, perm, j):
    n = len(perm) // 2
    violations = []
    for cyc in cycles_of(tuple(perm[i] % n for i in range(n))):
        length = j * len(cyc)
        sheets = list(cyc) + [i + n for i in cyc]
        deg = sum(m[i] for i in sheets)
        jac = ci._reduce_mod(sum((Q(alpha[i]) for i in sheets), Q(0)), length)
        if deg != 0 or jac != 0:
            violations.append((cyc, deg, jac))
    return tuple(violations)


def test_sp_trivialization_matches_the_reference():
    rng = random.Random(12)
    violated = 0
    for trial in range(400):
        n = 1 + trial % 5
        # a random signed permutation of the 2n sheets: σ(i + n) = σ(i) ± n
        images = rng.sample(range(n), n)
        top = [x + n * rng.randrange(2) for x in images]
        perm = top + [(x + n) % (2 * n) for x in top]
        m = [rng.randint(-3, 3) for _ in range(2 * n)]
        alpha = [Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2 * n)]
        j = Q(rng.randint(1, 5), rng.randint(1, 3))
        got = check_sp_trivialization(m, alpha, perm, j)
        expected = reference_sp_trivialization(m, alpha, perm, j)
        assert got == expected, (m, alpha, perm, j)
        assert [tuple(map(type, v)) for v in got] == [tuple(map(type, v)) for v in expected]
        violated += bool(got)
    assert violated > 300


# SHA-256 of the sp_structure JSON of every element of Sp_n, one line each,
# as recorded before the cover was read off the Sp matrix model: Sp2 at
# m = (3, −1), α = (1/2, 1/3); Sp3 and Sp4 at m_k = (3k − 2)(−1)^k and
# α_k = (k + 1)/(k + 2)·(−1)^k for k = 0, …, n − 1; all at j = 3/2
def alternating(n):
    return tuple((3 * k - 2) * (-1) ** k for k in range(n)), tuple(Q(k + 1, k + 2) * (-1) ** k for k in range(n))


SP_STRUCTURE_GOLDEN = [
    (2, (3, -1), (Q(1, 2), Q(1, 3)), "b31daffcaa4f9084b542bc080eb897898e5066aedda5a9ba345dcc44b4977a81"),
    (3, *alternating(3), "df1f13c81aeffd4ce0a41e67aeee07e49ed51f7be83d5c7ab2219790bd568486"),
    (4, *alternating(4), "7b719fb00fd1d7474bcb887e376b1145c8d92681aa515c7236ec49bd346078ae"),
]


def test_sp_structure_output_is_pinned():
    for n, m, alpha, expected in SP_STRUCTURE_GOLDEN:
        g = build_group("Sp", n)
        cocycles = [ci.cocycle(g, m, alpha, w, Q(3, 2)) for w in range(len(g.weyl))]
        lines = [json.dumps(ci.sp_structure(c).to_json(), sort_keys=True) for c in cocycles]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == expected, n


def test_sp_structure_builds_no_group(monkeypatch):
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    g = build_group("Sp", 3)
    for w in range(len(g.weyl)):
        ci.sp_structure(ci.cocycle(g, (2, 0, -1), (Q(1, 2), 0, Q(-1, 3)), w, 2))
    assert list(gr._GROUP_CACHE) == [("Sp", 3)]


def test_sp_structure_follows_the_group_guard():
    # a non-default guard reads the one Sp3, with the same element indices
    default, guarded = build_group("Sp", 3), build_group("Sp", 3, guard=20000)
    assert guarded is default

    def decompositions(g):
        cocycles = [ci.cocycle(g, (2, 0, -1), (Q(1, 2), 0, Q(-1, 3)), w, 2) for w in range(len(g.weyl))]
        return [json.dumps(ci.sp_structure(c).to_json(), sort_keys=True) for c in cocycles]

    assert decompositions(guarded) == decompositions(default)


def test_gauge_transform_rejects_out_of_range_index():
    g = build_group("GL", 3)
    c = ci.cocycle(g, (1, 0, 0), (0, 0, 0), 1, 1)
    for v in (-1, len(g.weyl), 99):
        with pytest.raises(ValueError, match=f"index {v} .*= 6"):
            ci.gauge_transform(c, (0, 0, 0), (0, 0, 0), v)


def test_sp_structure_family_check():
    g = build_group("GL", 2)
    with pytest.raises(ValueError):
        ci.sp_structure(ci.cocycle(g, (0, 0), (0, 0), 0, 1))


def test_cocycle_json_roundtrip():
    g = build_group("GL", 2)
    c = ci.cocycle(g, (1, -2), (Q(1, 3), Q(-2, 5)), 1, Q(3, 2))
    assert ci.cocycle_from_json(g, c.to_json()) == c


# ---------------------------------------------------------------------------
# the Fraction gauge action, kept as an oracle for gauge_transform
# ---------------------------------------------------------------------------


def ref_gauge_transform(c, k, beta, v):
    """The gauge action with the monodromy conjugated by WeylGroup.conj and
    the offset computed in Fractions, entry by entry."""
    w = c.group.weyl
    v_idx = w.check_idx("v", v)
    k = semiring.checked_vector("k", k, c.group.rank, semiring.checked_integer)
    beta = semiring.checked_vector("beta", beta, c.group.rank, semiring.checked_rational)
    w2_idx = w.conj(v_idx, c.mono_idx)
    vmat = w.matrices[v_idx]
    w2mat = w.matrices[w2_idx]
    m = la.vec_add(k, la.vec_sub(la.mat_vec(vmat, c.slope), la.mat_vec(w2mat, k)))
    shifted = la.vec_add(beta, la.vec_scale(c.length, k))
    alpha = la.vec_add(beta, la.vec_sub(la.mat_vec(vmat, c.offset), la.mat_vec(w2mat, shifted)))
    return ci.CircleCocycle(c.group, m, alpha, w2_idx, c.length)


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3), ("SO_even", 4), ("G2", 0)])
def test_gauge_transform_matches_the_fraction_reference(family, n):
    g = build_group(family, n)
    rng = random.Random(f"gauge reference {family} {n}")
    for _ in range(40):
        m = [rng.randint(-3, 3) for _ in range(g.rank)]
        c = ci.cocycle(g, m, mixed_offset(rng, g.rank), rng.randrange(len(g.weyl)), Q(5, 3))
        k = [rng.randint(-3, 3) for _ in range(g.rank)]
        beta = mixed_offset(rng, g.rank)
        v = rng.randrange(len(g.weyl))
        mine, ref = ci.gauge_transform(c, k, beta, v), ref_gauge_transform(c, k, beta, v)
        assert mine == ref
        assert mine.to_json() == ref.to_json()
        assert all(type(x) is Q for x in mine.offset)


def test_gauge_transform_raises_as_the_reference():
    _, swap, c = gl2_swapped()
    bad = [
        ((Q(1, 2), 0), (0, 0), 0),
        ((1,), (0, 0), 0),
        (5, (0, 0), 0),
        ((0, 0), (True, 0), 0),
        ((0, 0), (0,), 0),
        ((0, 0), ("x", 0), 0),
        ((0, 0), (0, 0), True),
        ((0, 0), (0, 0), 1.5),
        ((0, 0), (0, 0), 2),
        ((0, 0), (0, 0), -1),
    ]
    for k, beta, v in bad:
        messages = []
        for gauge in (ci.gauge_transform, ref_gauge_transform):
            with pytest.raises(ValueError) as exc:
                gauge(c, k, beta, v)
            messages.append(str(exc.value))
        assert messages[0] == messages[1], (k, beta, v)


# ---------------------------------------------------------------------------
# the kernel-basis witness search, kept as an oracle for isomorphism_witness
# ---------------------------------------------------------------------------


def ref_averaging_projector(a):
    """(1/|a|)·Σ aⁱ over every power of a finite-order matrix: the projector
    onto ker(1 − a) along im(1 − a), as a rational matrix."""
    ident = la.identity_matrix(len(a))
    acc, p, order = ident, a, 1
    while p != ident:
        acc = tuple(tuple(x + y for x, y in zip(ra, rp)) for ra, rp in zip(acc, p))
        p = la.mat_mul(p, a)
        order += 1
    return tuple(tuple(Q(x, order) for x in row) for row in acc)


def ref_isomorphism_witness(a, b):
    """The witness search with the kernel made explicit: the integer solve
    gives k₀ and a basis K of ker(1 − w₂) ∩ ℤʳ, the offset equation projected
    by the averaging projector gives the kernel coordinates y of k = k₀ + K·y
    by a rational solve, and a witness for v exists iff y is integral."""
    w = a.group.weyl
    j = a.length
    for v_idx in range(len(w)):
        if w.conj(v_idx, a.mono_idx) != b.mono_idx:
            continue
        w2mat = w.matrices[b.mono_idx]
        amat = la.mat_sub(la.identity_matrix(len(w2mat)), w2mat)
        vmat = w.matrices[v_idx]
        sol = integer_solve(amat, la.vec_sub(b.slope, la.mat_vec(vmat, a.slope)))
        if sol is None:
            continue
        k0, kernel = sol
        t = la.vec_sub(b.offset, la.mat_vec(vmat, a.offset))
        s0 = la.vec_add(t, la.vec_scale(j, k0))
        rhs = la.vec_scale(-1 / j, la.mat_vec(ref_averaging_projector(w2mat), s0))
        if kernel:
            y = rational_solve(la.transpose(kernel), rhs)
            assert y is not None, f"projection {rhs} is not in the span of {kernel}"
            if any(x.denominator != 1 for x in y):
                continue
            k = la.vec_add(k0, la.mat_vec(la.transpose(kernel), tuple(int(x) for x in y)))
        elif la.is_zero_vec(rhs):
            k = k0
        else:
            continue
        beta_rhs = la.vec_add(t, la.vec_scale(j, la.mat_vec(w2mat, k)))
        beta = rational_solve(amat, beta_rhs)
        assert beta is not None, f"offset equation unsolvable for v = {v_idx}"
        return ci.GaugeTriple(tuple(k), tuple(beta), v_idx)
    return None


WITNESS_FAMILIES = (
    [("GL", n) for n in range(1, 6)]
    + [("SL", 3), ("PGL", 3)]
    + [("Sp", n) for n in range(1, 5)]
    + [("SO_odd", 3), ("SO_even", 4), ("G2", 0)]
)


def witness_pairs(rng, g):
    """Pairs of three kinds in each of 12 rounds, the monodromy of a running
    through the classes: b made from a by a random gauge ('pos'); another
    gauge image of a whose offset then moves by j/3 in one coordinate, a
    non-period ('shift'); and an independent b, with a monodromy conjugate
    to a's every other round ('random')."""
    w = g.weyl
    classes = w.conjugacy_classes()

    def rand_cocycle(w_idx):
        m = [rng.randint(-3, 3) for _ in range(g.rank)]
        alpha = [verify.random_rational(rng) for _ in range(g.rank)]
        return ci.cocycle(g, m, alpha, w_idx, Q(3, 2))

    def rand_gauge(c):
        k = [rng.randint(-3, 3) for _ in range(g.rank)]
        beta = [verify.random_rational(rng) for _ in range(g.rank)]
        return ci.gauge_transform(c, k, beta, rng.randrange(len(w)))

    out = []
    for r in range(12):
        a = rand_cocycle(rng.choice(classes[r % len(classes)]))
        out.append(("pos", a, rand_gauge(a)))
        b = rand_gauge(a)
        i = rng.randrange(g.rank)
        offset = b.offset[:i] + (b.offset[i] + a.length / 3,) + b.offset[i + 1 :]
        out.append(("shift", a, ci.cocycle(g, b.slope, offset, b.mono_idx, b.length)))
        mono = w.conj(rng.randrange(len(w)), a.mono_idx) if r % 2 == 0 else rng.randrange(len(w))
        out.append(("random", a, rand_cocycle(mono)))
    return out


@pytest.mark.parametrize("family,n", WITNESS_FAMILIES)
def test_witness_matches_the_kernel_basis_reference(family, n):
    g = build_group(family, n)
    rng = random.Random(f"witness {family} {n}")
    outcomes = set()
    for kind, a, b in witness_pairs(rng, g):
        mine, ref = ci.isomorphism_witness(a, b), ref_isomorphism_witness(a, b)
        assert (mine and mine.to_json()) == (ref and ref.to_json()), (kind, a.to_json(), b.to_json())
        assert kind != "pos" or mine is not None
        outcomes.add((kind, mine is None))
    # some shifted pair with conjugate monodromies has no integral k
    assert ("shift", True) in outcomes


MIXED_DENOMINATORS = (Q(3, 7), Q(-5, 12), Q(11, 35), Q(29, 420), Q(-13, 7))


def mixed_offset(rng, rank):
    """Offsets whose entries have denominators 7, 12, 35 and 420 (the lcm)."""
    return [rng.choice(MIXED_DENOMINATORS) + rng.randint(-2, 2) for _ in range(rank)]


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3), ("SO_even", 4), ("G2", 0)])
def test_witness_with_mixed_denominators_matches_the_reference(family, n):
    g = build_group(family, n)
    rng = random.Random(f"mixed denominators {family} {n}")
    j = Q(5, 3)
    classes = g.weyl.conjugacy_classes()
    outcomes = set()
    for r in range(16):
        m = [rng.randint(-3, 3) for _ in range(g.rank)]
        a = ci.cocycle(g, m, mixed_offset(rng, g.rank), rng.choice(classes[r % len(classes)]), j)
        k = [rng.randint(-3, 3) for _ in range(g.rank)]
        b = ci.gauge_transform(a, k, mixed_offset(rng, g.rank), rng.randrange(len(g.weyl)))
        i = rng.randrange(g.rank)
        shifted = b.offset[:i] + (b.offset[i] + j * rng.choice((Q(1, 3), Q(1, 2), Q(2, 7))),) + b.offset[i + 1 :]
        for kind, other in (("pos", b), ("shift", ci.cocycle(g, b.slope, shifted, b.mono_idx, j))):
            mine, ref = ci.isomorphism_witness(a, other), ref_isomorphism_witness(a, other)
            assert (mine and mine.to_json()) == (ref and ref.to_json()), (kind, a.to_json(), other.to_json())
            outcomes.add((kind, mine is None))
    assert ("pos", False) in outcomes and ("pos", True) not in outcomes
    assert ("shift", True) in outcomes


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3), ("G2", 0)])
def test_cross_class_pairs_have_no_witness(family, n, monkeypatch):
    """Monodromies from two conjugacy classes admit no conjugator, so the
    witness search ends before forming any conjugate."""
    g = build_group(family, n)
    w = g.weyl
    rng = random.Random(f"cross class {family} {n}")
    cocycles = []
    for x in range(len(w)):
        m = [rng.randint(-3, 3) for _ in range(g.rank)]
        cocycles.append(ci.cocycle(g, m, [verify.random_rational(rng) for _ in range(g.rank)], x, 1))
    pairs = [(a, b) for a in cocycles for b in cocycles if w.class_id[a.mono_idx] != w.class_id[b.mono_idx]]
    assert len(pairs) == len(w) ** 2 - sum(len(cls) ** 2 for cls in w.conjugacy_classes())
    for a, b in pairs:
        assert ref_isomorphism_witness(a, b) is None
    monkeypatch.setattr(weyl.WeylGroup, "conj", None)
    for a, b in pairs:
        assert ci.isomorphism_witness(a, b) is None


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3), ("SO_even", 4), ("G2", 0)])
def test_same_class_witnesses_form_no_conjugate(family, n, monkeypatch):
    """The conjugators of a same-class pair come from the class transversal
    and the centralizer kept per class, so after one warm call the witness
    search forms no conjugate with conj: the one conjugate formed per witness
    found is the monodromy v·w·v⁻¹ of its self-check's gauge transform."""
    g = build_group(family, n)
    w = g.weyl
    rng = random.Random(f"same class {family} {n}")
    pairs = []
    for r in range(24):
        cls = w.conjugacy_classes()[r % len(w.conjugacy_classes())]
        m = [rng.randint(-3, 3) for _ in range(g.rank)]
        a = ci.cocycle(g, m, mixed_offset(rng, g.rank), rng.choice(cls), Q(5, 3))
        k = [rng.randint(-3, 3) for _ in range(g.rank)]
        b = ci.gauge_transform(a, k, mixed_offset(rng, g.rank), rng.randrange(len(w)))
        other = ci.cocycle(g, b.slope, mixed_offset(rng, g.rank), rng.choice(cls), Q(5, 3))
        pairs += [(a, b), (a, other)]
    refs = [ref_isomorphism_witness(a, b) for a, b in pairs]
    assert sum(ref is not None for ref in refs) >= len(pairs) // 2
    ci.isomorphism_witness(*pairs[0])
    calls = []
    real = weyl.WeylGroup.conj
    monkeypatch.setattr(weyl.WeylGroup, "conj", lambda *args: calls.append(args) or real(*args))
    for (a, b), ref in zip(pairs, refs):
        mine = ci.isomorphism_witness(a, b)
        assert (mine and mine.to_json()) == (ref and ref.to_json()), (a.to_json(), b.to_json())
        assert calls == ([(w, mine.v_idx, a.mono_idx)] if mine else [])
        calls.clear()


def test_witness_fails_through_the_offset_term_alone():
    """With both slopes zero, r = 0 for every conjugator v, so A^#·r = 0 and
    P·r = 0: whether k is integral rests on P·T/(d·j) alone.  Under the
    3-cycle w on GL₃, P·T is the mean of T's entries on every coordinate,
    so k = −(Σδ/3j)·(1, 1, 1) for every v, where δ is the offset moved."""
    g = build_group("GL", 3)
    j = Q(5, 3)
    w = g.weyl
    cycle = next(i for i in range(len(w)) if w.order_of(i) == 3)
    alpha = (Q(3, 7), Q(-5, 12), Q(11, 35))
    a = ci.cocycle(g, (0, 0, 0), alpha, cycle, j)
    for moved, isomorphic in ((Q(0), True), (j, False), (2 * j, False), (3 * j, True), (-3 * j, True)):
        b = ci.cocycle(g, (0, 0, 0), (alpha[0] + moved,) + alpha[1:], cycle, j)
        mine, ref = ci.isomorphism_witness(a, b), ref_isomorphism_witness(a, b)
        assert (mine and mine.to_json()) == (ref and ref.to_json())
        assert (mine is not None) == isomorphic, moved
        if isomorphic:
            assert mine.k == (-int(moved / (3 * j)),) * 3


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3), ("SO_even", 4), ("G2", 0)])
def test_orbit_sums_match_the_oracles(family, n):
    g = build_group(family, n)
    rng = random.Random(f"orbit sums {family} {n}")
    for e in g.weyl.elements:
        for x in [(0,) * g.rank] + [tuple(rng.randint(-9, 9) for _ in range(g.rank)) for _ in range(3)]:
            p, s, gsum = la.orbit_sums(e.matrix, x)
            assert p == len(orbit(e.matrix, x))
            assert tuple(Q(y, p) for y in s) == orbit_mean(e.matrix, x)
            assert tuple(Q(y, 2 * p) for y in gsum) == group_inverse(e.matrix, x)


@pytest.mark.parametrize("family,n", [("GL", 4), ("SL", 3), ("Sp", 3), ("SO_even", 4), ("G2", 0)])
def test_orbit_mean_is_the_averaging_projector(family, n):
    g = build_group(family, n)
    rng = random.Random(f"orbit mean {family} {n}")
    for e in g.weyl.elements:
        proj = ref_averaging_projector(e.matrix)
        amat = la.mat_sub(la.identity_matrix(g.rank), e.matrix)
        for _ in range(3):
            x = tuple(verify.random_rational(rng) for _ in range(g.rank))
            px = la.mat_vec(proj, x)
            assert orbit_mean(e.matrix, x) == px
            # the group inverse of 1 − a: (1 − a)·y = x − P·x and P·y = 0
            y = group_inverse(e.matrix, x)
            assert la.mat_vec(amat, y) == la.vec_sub(x, px)
            assert la.is_zero_vec(la.mat_vec(proj, y))
