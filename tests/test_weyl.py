"""Weyl group enumeration, conjugacy, parabolic subgroups, indecomposability."""

import itertools
import math
import random

import pytest

from lattice_oracles import (
    char_action_matrix,
    int_det,
    mat_to_int,
    matrix_order,
    rational_inverse,
    representatives_by_inverse,
    smith_normal_form_with_v,
)
from semiring_oracles import perm_sign
from weyl_oracles import (
    centralizer_by_scan,
    factor_model,
    full_cycle_products,
    levi_group,
    matrix_index,
    normalizer,
    parabolic_closure,
    relative_weyl_by_products,
)
from tropgroups import circles
from tropgroups import intlinalg as la
from tropgroups import rootdata as rd
from tropgroups import verify, weyl
from tropgroups.errors import InvariantError
from tropgroups import groups as gr
from tropgroups.groups import build_group
from tropgroups.permutations import compose_perm, identity_perm


def group(family, n):
    return build_group(family, n).weyl


ORDERS = [
    ("GL", 3, 6),
    ("GL", 4, 24),
    ("Sp", 2, 8),
    ("Sp", 4, 384),
    ("SO_odd", 4, 384),
    ("SO_even", 4, 192),
    ("G2", 0, 12),
]


@pytest.mark.parametrize("family,n,order", ORDERS)
def test_group_orders(family, n, order):
    assert len(group(family, n)) == order


def test_elements_are_signed_and_stabilize_roots_and_coroots():
    for family, n in [
        ("GL", 3),
        ("SL", 3),
        ("PGL", 3),
        ("Sp", 2),
        ("SO_odd", 2),
        ("SO_even", 3),
        ("G2", 0),
    ]:
        g = build_group(family, n)
        coroots = set(g.datum.coroots)
        roots = set(g.datum.roots)
        for w in g.weyl:
            assert abs(int_det(w.matrix)) == 1
            assert {tuple(la.mat_vec(w.matrix, c)) for c in coroots} == coroots
            cmat = char_action_matrix(g.datum, w.matrix)
            assert {tuple(la.mat_vec(cmat, r)) for r in roots} == roots
    for p in group("GL", 4).simple_gens:
        assert group("GL", 4).order_of(p) == 2


def test_guard():
    datum = rd.build_root_datum("GL", 4)
    gen_mats = [datum.cochar_reflection_matrix(i) for i in datum.simple]
    with pytest.raises(weyl.GuardExceededError):
        weyl.generate(gen_mats, la.identity_matrix(4), guard=10)


def test_deterministic_order():
    w = group("GL", 3)
    mats = [e.matrix for e in w.elements]
    assert mats == sorted(mats)


def test_elements_share_their_rows():
    # GL₅'s 120 permutation matrices have 5 distinct rows, Sp₃'s 48 signed ones 6
    for (family, n), distinct in {("GL", 5): 5, ("Sp", 3): 6}.items():
        w = group(family, n)
        rows = {id(r) for e in w.elements for r in e.matrix}
        assert len(rows) == len({r for e in w.elements for r in e.matrix}) == distinct


def test_conjugacy_classes_s3():
    w = group("GL", 3)
    sizes = sorted(len(c) for c in w.conjugacy_classes())
    assert sizes == [1, 2, 3]
    assert sum(sizes) == len(w)
    for c in w.conjugacy_classes():
        assert len(w) % len(c) == 0


def test_centralizer_of_identity_is_whole_group():
    w = group("GL", 3)
    assert w.centralizer(w.identity_idx) == tuple(range(len(w)))


def test_centralizer_sizes_multiply():
    # |class| · |centralizer| = |W|
    for family, n in [("GL", 4), ("Sp", 2), ("G2", 0)]:
        w = group(family, n)
        for cls in w.conjugacy_classes():
            assert len(cls) * len(w.centralizer(cls[0])) == len(w)


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3), ("SO_even", 4), ("G2", 0)])
def test_centralizer_is_the_conjugated_centralizer_of_the_class_representative(family, n):
    w = group(family, n)
    reps = {x: cls[0] for cls in w.conjugacy_classes() for x in cls}
    for x in range(len(w)):
        t = w.transversal[x]
        assert w.conj(t, reps[x]) == x
        assert w.centralizer(x) == centralizer_by_scan(w, x)


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3), ("G2", 0)])
def test_conjugators_are_every_v_carrying_x_to_y(family, n):
    w = group(family, n)
    for cls in w.conjugacy_classes():
        for x, y in itertools.product(cls, repeat=2):
            assert w.conjugators(x, y) == tuple(sorted(v for v in range(len(w)) if w.conj(v, x) == y))
    other = next(cls[0] for cls in w.conjugacy_classes() if w.identity_idx not in cls)
    assert w.conjugators(w.identity_idx, other) == ()


def test_parabolic_subgroup_single_reflection():
    p = group("GL", 3).parabolic((0,))
    assert len(p.members) == 2 and len(p.cosets) == 3


def test_normalizer_contains_subgroup():
    w = group("Sp", 2)
    sub = parabolic_closure(w, (0,))
    norm = normalizer(w, sub)
    assert set(sub) <= set(norm)
    assert len(norm) % len(sub) == 0


@pytest.mark.parametrize("family,n", verify.RELATIVE_WEYL_GROUPS)
def test_parabolic_normalizer_matches_the_oracle(family, n):
    # conjugating the simple reflections of P alone against every element of W_P
    w = group(family, n)
    positions = range(len(w.simple_gens))
    for k in range(len(w.simple_gens) + 1):
        for sub_positions in itertools.combinations(positions, k):
            expected = normalizer(w, parabolic_closure(w, sub_positions))
            assert w.parabolic(sub_positions).normalizer == expected, sub_positions


def test_sgn_multiplicative_and_d_kernel():
    for n in (2, 3):
        sp = group("Sp", n)
        for i in range(len(sp)):
            for j in range(len(sp)):
                assert perm_sign(sp.perm(sp.mul(i, j))) == perm_sign(sp.perm(i)) * perm_sign(sp.perm(j))
        so = group("SO_even", n) if n >= 2 else None
        if so is None:
            continue
        even_perms = {sp.perm(i) for i in range(len(sp)) if perm_sign(sp.perm(i)) == 1}
        assert {so.perm(i) for i in range(len(so))} == even_perms


def test_is_indecomposable_full_groups():
    w = group("GL", 3)
    three_cycle = next(i for i in range(len(w)) if w.order_of(i) == 3)
    assert weyl.is_indecomposable(w, three_cycle)
    assert not weyl.is_indecomposable(w, w.identity_idx)
    # product group S₂×S₂ = Weyl group of SO₄: one factor trivial is decomposable
    so4 = group("SO_even", 2)
    gen = so4.simple_gens[0]
    assert not weyl.is_indecomposable(so4, gen)
    both = so4.mul(so4.simple_gens[0], so4.simple_gens[1])
    assert weyl.is_indecomposable(so4, both)


def test_is_indecomposable_rejects_non_a_type():
    sp = group("Sp", 2)
    with pytest.raises(ValueError):
        weyl.is_indecomposable(sp, sp.identity_idx)


def test_indecomposables_form_single_class():
    # in the factor model of a full type-A group, the full cycles are one class of W
    for family, n in [("GL", 2), ("GL", 3), ("GL", 4), ("SL", 3), ("PGL", 4)]:
        w = group(family, n)
        _, phi = factor_model(w, range(len(w.simple_gens)))
        reps = full_cycle_products(phi)
        assert reps == w.class_of(reps[0])


def test_type_a_api_rejects_out_of_range_positions():
    # a table read alone would take −1 for the last position; sorted() raised
    # TypeError on mixed types, and True was kept as a position
    g = build_group("GL", 4)
    w = g.weyl
    s = w.simple_gens[2]
    for bad in (-1, len(w.simple_gens), "a", True, 1.5, None):
        calls = [
            lambda: w.parabolic((0, bad)),
            lambda: g.parabolic((0, bad)),
            lambda: weyl.is_indecomposable(w, s, (bad,)),
            lambda: weyl.relative_weyl_check(w, (bad,), s),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="field 'positions'"):
                call()


def test_relative_weyl_trivial_case():
    w = group("GL", 3)
    three_cycle = next(i for i in range(len(w)) if w.order_of(i) == 3)
    res = weyl.relative_weyl_check(w, (0, 1), three_cycle)
    assert len(res.iso_witness) == 1


def test_relative_weyl_sp4_example():
    w = group("Sp", 2)
    refl = w.simple_gens[0]  # the short-root reflection, an A₁ parabolic
    res = weyl.relative_weyl_check(w, (0,), refl)
    assert len(res.centralizer_big) == 4
    assert len(res.centralizer_small) == 2
    assert len(res.normalizer) == 4
    assert len(res.iso_witness) == 2


def test_relative_weyl_g2_example():
    w = group("G2", 0)
    for pos in (0, 1):
        refl = w.simple_gens[pos]
        res = weyl.relative_weyl_check(w, (pos,), refl)
        assert len(res.iso_witness) == len(res.centralizer_big) // len(res.centralizer_small)


def test_relative_weyl_rejects_bad_hypotheses():
    w = group("GL", 3)
    with pytest.raises(ValueError):
        weyl.relative_weyl_check(w, (0,), w.identity_idx)  # id not indecomposable in A₁?  it is not in S₂
    sp = group("Sp", 2)
    with pytest.raises(ValueError):
        weyl.relative_weyl_check(sp, (0, 1), sp.simple_gens[0])


# every type-∏A parabolic of these groups with each of its indecomposable
# elements: 196 cases in all
RELATIVE_WEYL_ORACLE_CASES = {
    ("GL", 4): 15, ("GL", 5): 54, ("Sp", 2): 3, ("Sp", 3): 7, ("Sp", 4): 20,
    ("SO_odd", 3): 7, ("SO_even", 4): 33, ("PGL", 5): 54, ("G2", 0): 3,
}


@pytest.mark.parametrize("family,n", list(RELATIVE_WEYL_ORACLE_CASES))
def test_relative_weyl_check_matches_the_product_oracle(family, n):
    w = group(family, n)
    cases = 0
    for k in range(len(w.simple_gens) + 1):
        for positions in itertools.combinations(range(len(w.simple_gens)), k):
            if w.parabolic(positions).paths is None:
                continue
            for x in w.parabolic(positions).indecomposables:
                expected = relative_weyl_by_products(w, positions, x)
                assert weyl.relative_weyl_check(w, positions, x) == expected, (positions, x)
                cases += 1
    assert cases == RELATIVE_WEYL_ORACLE_CASES[(family, n)]


def test_relative_weyl_suite_makes_no_permutation_product(monkeypatch):
    def refuse(self, i, j):
        raise AssertionError(f"WeylGroup.mul({i}, {j}) called")

    monkeypatch.setattr(weyl.WeylGroup, "mul", refuse)
    assert verify.relative_weyl()["pass"]


def gl4_s2_s2():
    """GL₄'s Weyl group, the positions of its parabolic S₂×S₂, whose
    normalizer holds it with index 2, and its one indecomposable element."""
    w = group("GL", 4)
    (x,) = w.parabolic((0, 2)).indecomposables
    return w, (0, 2), x


def test_relative_weyl_check_raises_when_the_centralizer_misses_a_coset(monkeypatch):
    # C_W(w) alone meets one of the two W_P-cosets of N(W_P)
    w, positions, x = gl4_s2_s2()
    small = weyl.relative_weyl_check(w, positions, x).centralizer_small
    monkeypatch.setattr(weyl.WeylGroup, "centralizer", lambda self, i: small)
    with pytest.raises(InvariantError, match="not a bijection"):
        weyl.relative_weyl_check(w, positions, x)


def test_relative_weyl_check_raises_when_the_centralizer_leaves_the_normalizer(monkeypatch):
    w, positions, x = gl4_s2_s2()
    monkeypatch.setattr(weyl.WeylGroup, "centralizer", lambda self, i: tuple(range(len(w))))
    with pytest.raises(InvariantError, match="leaves the normalizer"):
        weyl.relative_weyl_check(w, positions, x)


def test_subgroup_serialization_is_indices():
    p = group("GL", 3).parabolic((0,))
    assert all(isinstance(i, int) for i in p.members | set(p.cosets) | set(p.least))
    assert p.cosets == tuple(sorted(p.cosets))


def test_relative_weyl_walks_each_parabolic_once(monkeypatch):
    # the suite's walks are pinned in test_work_budget.py; the checks reuse them
    walks = []
    orbits = weyl.WeylGroup.orbits

    def counted(self, maps):
        walks.append(len(maps))
        return orbits(self, maps)

    w = build_group("GL", 4).weyl
    (x,) = w.parabolic((0, 2)).indecomposables
    monkeypatch.setattr(weyl.WeylGroup, "orbits", counted)
    weyl.relative_weyl_check(w, (2, 0), x)
    assert weyl.is_indecomposable(w, x, (0, 2))
    assert walks == []


def test_relative_weyl_scans_w_once_per_parabolic(monkeypatch):
    # the suite's 634 conjugations, pinned in test_work_budget.py, are those
    # of one normalizer scan per ∏A parabolic, not one per indecomposable element
    conjugations = []
    conj = weyl.WeylGroup.conj

    def counted(self, v, x):
        conjugations.append((v, x))
        return conj(self, v, x)

    monkeypatch.setattr(weyl.WeylGroup, "conj", counted)
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    scans = 0
    for family, n in verify.RELATIVE_WEYL_GROUPS:
        w = build_group(family, n).weyl
        for k in range(len(w.simple_gens) + 1):
            for positions in itertools.combinations(range(len(w.simple_gens)), k):
                p = w.parabolic(positions)
                if p.paths is not None:
                    assert p.normalizer and p.indecomposables
                    scans += 1
    assert scans == 20
    assert len(conjugations) == 634


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


# the matrix products that the permutation kernel replaced, kept as the reference
def ref_mul(w, i, j):
    return matrix_index(w)[la.mat_mul(w.element(i).matrix, w.element(j).matrix)]


def ref_inv(w, i):
    return matrix_index(w)[mat_to_int(rational_inverse(w.element(i).matrix))]


def ref_classes(w):
    classes = set()
    for x in range(len(w)):
        classes.add(tuple(sorted({ref_mul(w, ref_mul(w, g, x), ref_inv(w, g)) for g in range(len(w))})))
    return tuple(sorted(classes))


KERNEL_CASES = [(family, n) for family, n, _ in ORDERS] + [
    ("SL", 4),
    ("PGL", 4),
    ("SO_odd", 3),
    ("Levi of Sp", 4),
    ("AmbientSp", 2),
]


def kernel_group(family, n):
    if family == "Levi of Sp":
        return levi_group(build_group("Sp", n), (0, 2, 3))[0].weyl
    if family == "AmbientSp":
        # Sp's signed permutations of the 2n sheets acting as permutation
        # matrices: a group built from generators alone, with no root datum
        sp = group("Sp", n)
        perms = [sp.perm(g) for g in sp.simple_gens]
        mats = [tuple(tuple(int(r == p[c]) for c in range(2 * n)) for r in range(2 * n)) for p in perms]
        return weyl.generate(mats, kernel_model(family, n), len(sp))
    return group(family, n)


def kernel_model(family, n):
    """The integer matrix N of the model map that kernel_group(family, n) is
    generated with: N = I for the permutation matrices of AmbientSp, and the
    parent group's N for the Levi oracle."""
    if family == "AmbientSp":
        return la.identity_matrix(2 * n)
    return build_group("Sp" if family == "Levi of Sp" else family, n).model[0]


@pytest.mark.parametrize("family,n", KERNEL_CASES)
def test_permutation_kernel_matches_matrix_products(family, n):
    w = kernel_group(family, n)
    rng = random.Random(f"{family}{n}")
    for i in range(len(w)):
        assert w.perm_idx(w.perm(i)) == i
        assert w.inverse[i] == ref_inv(w, i)
    for _ in range(300):
        i, j = rng.randrange(len(w)), rng.randrange(len(w))
        assert w.mul(i, j) == ref_mul(w, i, j)
        assert w.conj(i, j) == ref_mul(w, ref_mul(w, i, j), ref_inv(w, i))


@pytest.mark.parametrize("family,n", [("GL", 4), ("Sp", 3)])
def test_conjugacy_classes_match_matrix_oracle(family, n):
    w = group(family, n)
    assert w.conjugacy_classes() == ref_classes(w)


# the closure before sparse products, kept as the reference: one dense
# matrix product per edge
def dense_closure(gen_mats, gen_perms, rank, degree):
    ident = la.identity_matrix(rank)
    seen = {ident: identity_perm(degree)}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g, gp in zip(gen_mats, gen_perms, strict=True):
                prod = la.mat_mul(m, g)
                image = compose_perm(seen[m], gp)
                if prod not in seen:
                    seen[prod] = image
                    nxt.append(prod)
                assert seen[prod] == image
        frontier = nxt
    mats = sorted(seen)
    return mats, [seen[m] for m in mats], [mats.index(g) for g in gen_mats]


@pytest.mark.parametrize(
    "family,n",
    # every family up to its largest n under the default guard
    KERNEL_CASES
    + [case for case in GRID if case not in KERNEL_CASES]
    + [("GL", 7), ("SL", 7), ("PGL", 7), ("Sp", 5), ("SO_odd", 5), ("SO_even", 5)],
)
def test_closure_matches_dense_closure(family, n):
    w = kernel_group(family, n)
    gen_mats = [w.element(g).matrix for g in w.simple_gens]
    if family != "AmbientSp":  # the groups with a root datum
        g = levi_group(build_group("Sp", n), (0, 2, 3))[0] if family == "Levi of Sp" else build_group(family, n)
        assert gen_mats == [g.datum.cochar_reflection_matrix(i) for i in g.datum.simple]
    mats, perms, gens = dense_closure(gen_mats, [w.perm(g) for g in w.simple_gens], w.rank, len(w.perms[0]))
    assert [e.matrix for e in w.elements] == mats
    assert list(w.perms) == perms
    assert list(w.simple_gens) == gens


def test_closure_rejects_a_non_homomorphic_model():
    # y₂ = 2·m₂ is moved by the reflection swapping m₁ and m₂ to no row of N,
    # so that reflection has no permutation, and it is named by its position
    datum = rd.build_root_datum("GL", 3)
    gen_mats = [datum.cochar_reflection_matrix(i) for i in datum.simple]
    with pytest.raises(InvariantError, match="not equivariant for simple reflection 1"):
        weyl.generate(gen_mats, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))


def test_closure_rejects_a_model_that_is_not_faithful():
    # rows of N that every reflection of GL₃ fixes (the determinant, twice
    # over): the permutations generate 1 element, and A₂ presents 6
    datum = rd.build_root_datum("GL", 3)
    gen_mats = [datum.cochar_reflection_matrix(i) for i in datum.simple]
    with pytest.raises(InvariantError, match="not faithful"):
        weyl.generate(gen_mats, ((1, 1, 1), (2, 2, 2)))


def test_closure_rejects_a_model_whose_rows_repeat():
    # the row-sum argument needs distinct rows of N: a repeated row would
    # give a permutation that the matrices do not determine
    datum = rd.build_root_datum("GL", 2)
    with pytest.raises(InvariantError, match="simple reflection 0, or its rows repeat"):
        weyl.generate([datum.cochar_reflection_matrix(i) for i in datum.simple], ((1, 0), (0, 1), (1, 0)))


def test_degree_one_models():
    w = group("GL", 1)
    assert (len(w), w.perms, w.simple_gens, w.conjugacy_classes()) == (1, ((0,),), (), ((0,),))
    # one generator on the one-letter model N = (1): −1 and the identity
    # both fix the letter, one element where A₁ presents two
    for gen in (((-1,),), ((1,),)):
        with pytest.raises(InvariantError, match="not faithful"):
            weyl.generate([gen], ((1,),))


def test_closure_names_a_degree_past_256():
    # the closure keys permutations by bytes, whose letters are 0–255: a
    # model on 257 letters, N = (0, 1, −1, …, 128, −128), is refused, not
    # wrapped, and its last 256 rows build, −1 swapping the rows ±v
    model = ((0,),) + tuple((sign * v,) for v in range(1, 129) for sign in (1, -1))
    with pytest.raises(ValueError, match="257 letters"):
        weyl.generate([((-1,),)], model)
    w = weyl.generate([((-1,),)], model[1:])
    assert w.perms == (tuple(v ^ 1 for v in range(256)), tuple(range(256)))


@pytest.mark.parametrize("family,n", [("GL", 4), ("SO_even", 4), ("AmbientSp", 2)])
def test_guard_is_exact(family, n):
    w = kernel_group(family, n)
    gen_mats = [w.element(g).matrix for g in w.simple_gens]
    assert len(weyl.generate(gen_mats, kernel_model(family, n), guard=len(w))) == len(w)
    with pytest.raises(weyl.GuardExceededError):
        weyl.generate(gen_mats, kernel_model(family, n), guard=len(w) - 1)


def coxeter_matrix(k, bonds):
    """The k × k Coxeter matrix with m_ab = bonds[a, b], and 2 off the diagonal elsewhere."""
    m = [[1 if a == b else 2 for b in range(k)] for a in range(k)]
    for (a, b), label in bonds.items():
        m[a][b] = m[b][a] = label
    return m


def path(k, first=3, last=3):
    """A path 0 - 1 - … - k−1 with bonds 3, but first and last at its ends
    (on two nodes, its one bond is first unless that is 3)."""
    bonds = {(a, a + 1): 3 for a in range(k - 1)}
    if k > 1:
        bonds[k - 2, k - 1] = last
        if first != 3:
            bonds[0, 1] = first
    return bonds


def fork(arms):
    """A tree with bonds 3: a node 0 and one path from it of each arm length."""
    bonds, k = {}, 1
    for length in arms:
        nodes = [0] + list(range(k, k + length))
        bonds.update({(a, b): 3 for a, b in zip(nodes, nodes[1:])})
        k += length
    return k, bonds


def test_coxeter_order_of_the_finite_diagrams():
    order = weyl._coxeter_order
    fact = math.factorial
    assert order([]) == 1
    for k in range(1, 8):
        assert order(coxeter_matrix(k, path(k))) == fact(k + 1)  # A_k: S_{k+1}
    for k in range(2, 7):
        assert order(coxeter_matrix(k, path(k, last=4))) == order(coxeter_matrix(k, path(k, first=4))) == 2**k * fact(k)
    for k in range(4, 8):
        assert order(coxeter_matrix(*fork([1, 1, k - 3]))) == 2 ** (k - 1) * fact(k)  # D_k
    assert order(coxeter_matrix(2, {(0, 1): 6})) == 12  # G₂
    assert order(coxeter_matrix(4, {(0, 3): 3, (1, 3): 3, (2, 3): 3})) == 2**3 * fact(4)  # D₄, fork at the last node
    # A₂ on {0, 4}, B₃ on {1, 3, 5} and G₂ on {2, 6}, interleaved
    bonds = {(0, 4): 3, (1, 3): 3, (3, 5): 4, (2, 6): 6}
    assert order(coxeter_matrix(7, bonds)) == fact(3) * 2**3 * fact(3) * 12


@pytest.mark.parametrize(
    "name,m",
    [
        ("F₄, its 4-bond in the middle", coxeter_matrix(4, {(0, 1): 3, (1, 2): 4, (2, 3): 3})),
        ("E₆, three leaves", coxeter_matrix(*fork([1, 2, 2]))),
        ("E₈", coxeter_matrix(*fork([1, 2, 4]))),
        ("H₃", coxeter_matrix(3, path(3, last=5))),
        ("I₂(5)", coxeter_matrix(2, {(0, 1): 5})),
        ("Ã₂, a 3-cycle of bonds 3", coxeter_matrix(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3})),
        ("C̃₂, a path with two 4-bonds", coxeter_matrix(3, path(3, first=4, last=4))),
        ("G₂ with a third node", coxeter_matrix(3, path(3, first=6))),
        ("a fork with bond 4", coxeter_matrix(4, {(0, 1): 3, (0, 2): 3, (0, 3): 4})),
        ("two equal generators", [[1, 1], [1, 1]]),
        ("a bond 0", [[1, 0], [0, 1]]),
        ("a generator that is no involution", [[2]]),
        ("not symmetric", [[1, 3], [2, 1]]),
    ],
)
def test_coxeter_order_rejects_every_other_diagram(name, m):
    with pytest.raises(InvariantError):
        weyl._coxeter_order(m)


@pytest.mark.parametrize("family,n", GRID + [("AmbientSp", 3), ("Levi of Sp", 4)])
def test_closure_rejects_every_mutated_model(family, n):
    """The sign flip of any entry of a generator matrix raises, unless the
    flipped generators are again a Coxeter system on which the model is
    faithful: then the closure is the group they generate, as the dense
    closure finds it.  That happens once each for Sp₂ and SO_odd₂ (s₁ flipped
    to −1, with s₀ a Coxeter system of type A₁ × A₁) and for the Levi of Sp₄."""
    w = kernel_group(family, n)
    mats = [w.element(g).matrix for g in w.simple_gens]
    model = kernel_model(family, n)
    built = 0
    for t, m in enumerate(mats):
        for r, c in itertools.product(range(w.rank), repeat=2):
            if m[r][c]:
                flipped = tuple(tuple(-e if (i, j) == (r, c) else e for j, e in enumerate(row)) for i, row in enumerate(m))
                gens = mats[:t] + [flipped] + mats[t + 1 :]
                try:
                    x = weyl.generate(gens, model)
                except InvariantError:
                    continue
                built += 1
                perms = [weyl._model_perm(model, g) for g in gens]
                assert ([e.matrix for e in x.elements], list(x.perms)) == dense_closure(gens, perms, w.rank, len(model))[:2]
    assert built == int((family, n) in [("Sp", 2), ("SO_odd", 2), ("Levi of Sp", 4)])


# the class computation before orbits under the generators, kept as the
# reference: conjugate by every element of W
def all_w_classes(w):
    seen = [False] * len(w)
    classes = []
    for i in range(len(w)):
        if not seen[i]:
            orbit = {w.conj(g, i) for g in range(len(w))}
            for x in orbit:
                seen[x] = True
            classes.append(tuple(sorted(orbit)))
    return tuple(sorted(classes))


@pytest.mark.parametrize(
    "family,n", GRID + [("AmbientSp", 2), ("AmbientSp", 3), ("AmbientSp", 4), ("Levi of Sp", 4)]
)
def test_conjugacy_classes_match_all_w_orbits(family, n):
    """Classes, class_of and the index tables that they are walked on, against the oracles."""
    w = kernel_group(family, n)
    for t, s in enumerate(w.simple_gens):
        assert list(w.left[t]) == [w.mul(s, i) for i in range(len(w))]
    assert list(w.inverse) == [ref_inv(w, i) for i in range(len(w))]
    classes = all_w_classes(w)
    assert w.conjugacy_classes() == classes
    assert [w.class_of(x) for x in range(len(w))] == [next(c for c in classes if x in c) for x in range(len(w))]
    # a table read alone would wrap −1 to the last element
    for bad in (-1, len(w)):
        with pytest.raises(ValueError):
            w.class_of(bad)


# diagrams that the factor model must agree with
KNOWN_PATHS = {
    ("GL", 1): {(): ()},
    ("GL", 4): {(0, 1, 2): ((0, 1, 2),), (0, 2): ((0,), (2,))},
    ("Sp", 2): {(0, 1): None},
    ("Sp", 3): {(0, 1): ((0, 1),), (1, 2): None, (0, 2): ((0,), (2,))},  # (1, 2) has the double bond
    ("G2", 0): {(0,): ((0,),), (0, 1): None},
}


def test_a_type_paths_run_in_the_order_of_their_lesser_ends():
    # S₄ × S₂ × S₂ by transpositions numbered so that the path 3 − 0 − 4 has
    # its least node inside it, and the lone nodes 1 and 2 fall between that
    # node and the path's lesser end
    swaps = [(1, 2), (4, 5), (6, 7), (0, 1), (2, 3)]
    perms = [tuple(b if i == a else a if i == b else i for i in range(8)) for a, b in swaps]
    mats = [tuple(tuple(int(p[j] == i) for j in range(8)) for i in range(8)) for p in perms]
    w = weyl.generate(mats, la.identity_matrix(8))
    assert len(w) == 96
    assert w.parabolic(range(5)).paths == ((1,), (2,), (3, 0, 4))


@pytest.mark.parametrize("family,n", GRID + [("GL", 1)])
def test_a_type_paths_and_indecomposables_match_the_factor_model(family, n):
    """For every position subset: the diagram paths, W_P and the full-cycle
    products of the factor-permutation model against WeylGroup.parabolic,
    Parabolic.indecomposables and is_indecomposable."""
    w = group(family, n)
    r = len(w.simple_gens)
    for size in range(r + 1):
        for positions in itertools.combinations(range(r), size):
            model = factor_model(w, positions)
            paths = w.parabolic(positions).paths
            if positions in KNOWN_PATHS.get((family, n), {}):
                assert paths == KNOWN_PATHS[family, n][positions]
            if model is None:
                assert paths is None
                with pytest.raises(ValueError, match="product-A"):
                    w.parabolic(positions).indecomposables
                with pytest.raises(ValueError, match="product-A"):
                    weyl.is_indecomposable(w, w.identity_idx, positions)
                continue
            comps, phi = model
            assert paths == comps
            assert tuple(sorted(phi)) == parabolic_closure(w, positions)
            full = full_cycle_products(phi)
            assert w.parabolic(positions).indecomposables == full
            assert [x for x in sorted(phi) if weyl.is_indecomposable(w, x, positions)] == list(full)
    model = factor_model(w, range(r))
    if model is not None:
        assert verify.indecomposable_class_rep(build_group(family, n)) == full_cycle_products(model[1])[0]


@pytest.mark.parametrize("family,n", GRID)
def test_classify_centralizer_order_is_centralizer_size(family, n):
    g = build_group(family, n)
    for comp in circles.classify_components(g):
        assert comp.centralizer_order == len(g.weyl.centralizer(comp.class_rep))


@pytest.mark.parametrize("family,n", GRID)
def test_order_of_is_the_matrix_order(family, n):
    w = group(family, n)
    assert [w.order_of(i) for i in range(len(w))] == [matrix_order(e.matrix) for e in w.elements]


# SO_even5 has the one class on these groups with two distinct torsion factors, (2, 2, 4)
@pytest.mark.parametrize("family,n", GRID + [("SO_even", 5)])
def test_degree_fiber_reads_each_residue_off_its_index(family, n):
    # classify zips the torsion indices with the lifts; projecting each lift
    # is the reference
    g = build_group(family, n)
    for cls in g.weyl.conjugacy_classes():
        quotient = circles._cycle_quotient(g, cls[0])
        if quotient.order is not None:
            lifts = quotient.representatives()
            indices = list(itertools.product(*[range(e) for e in quotient.torsion]))
            assert [quotient.project(lift) for lift in lifts] == indices
            fiber = tuple((quotient.project(lift), g.pi1.project(lift)) for lift in lifts)
            assert circles.component_for_class(g, cls[0]).degree_fiber == fiber


@pytest.mark.parametrize("family,n", GRID)
def test_representatives_match_the_rational_inverse_lifts(family, n):
    # GL's quotients all have a free part, so it has nothing to compare
    g = build_group(family, n)
    for quotient in [g.pi1] + [circles._cycle_quotient(g, cls[0]) for cls in g.weyl.conjugacy_classes()]:
        if quotient.order is not None:
            assert quotient.representatives() == representatives_by_inverse(quotient)


@pytest.mark.parametrize("family,n", GRID)
def test_snf_matches_the_v_carrying_oracle_on_classify(family, n):
    # the class matrices 1 − w and the π₁ coroot matrix: the library's (d, u)
    # is the oracle's, and it carries the inverse of that u
    g = build_group(family, n)
    ident = la.identity_matrix(g.rank)
    mats = [la.mat_sub(ident, g.weyl.element(cls[0]).matrix) for cls in g.weyl.conjugacy_classes()]
    for a in mats + [la.transpose(g.datum.coroots)]:
        d, u, u_inv = la.smith_normal_form(a)
        assert (d, u) == smith_normal_form_with_v(a)[:2]
        assert la.mat_mul(u, u_inv) == ident
    for quotient in [g.pi1] + [circles._cycle_quotient(g, cls[0]) for cls in g.weyl.conjugacy_classes()]:
        assert la.mat_mul(quotient._u, quotient._u_inv) == ident
