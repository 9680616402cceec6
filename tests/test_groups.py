"""Group elements, centers, determinant maps, homomorphisms, matrix models."""

import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

import samplers
from lattice_oracles import lattice_index, rational_inverse, rational_kernel, scaled
from semiring_oracles import (
    check_g2,
    check_orthogonal,
    check_symplectic,
    is_invertible,
    normalize_pgl,
    transposition,
    trop_matrix_mul,
)
from tropgroups import groups as gr
from tropgroups import intlinalg as la
from tropgroups import rootdata as rd
from tropgroups import semiring as sr
from tropgroups import circles, cli, weyl
from tropgroups.errors import InvariantError
from tropgroups.groups import build_group

coords = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def identity(g):
    return g.element((0,) * g.rank, g.weyl.identity_idx)


def apply_hom(f, a):
    """The image (f(m), φ(w)) of a group element under the homomorphism (f, φ)."""
    return gr.TropGroupElement(f.target, la.mat_vec(f.lattice_map, a.m), f.weyl_map[a.w_idx])


def element_strategy(family, n):
    g = build_group(family, n)
    return st.tuples(
        st.lists(coords, min_size=g.rank, max_size=g.rank),
        st.integers(0, len(g.weyl) - 1),
    ).map(lambda mw: g.element(*mw))


@given(element_strategy("GL", 3), element_strategy("GL", 3), element_strategy("GL", 3))
def test_law_is_associative(a, b, c):
    assert gr.compose(gr.compose(a, b), c) == gr.compose(a, gr.compose(b, c))


@given(element_strategy("Sp", 2))
def test_inverse_cancels(a):
    ident = identity(a.group)
    assert gr.compose(a, gr.inverse(a)) == ident
    assert gr.compose(gr.inverse(a), a) == ident


def random_element(rng, g):
    m = [samplers.rational(rng, 6, 4) for _ in range(g.rank)]
    return g.element(m, rng.randrange(len(g.weyl)))


def test_identity_and_inverse():
    rng = random.Random(0)
    for family, n in [("GL", 3), ("Sp", 2), ("G2", 0)]:
        g = build_group(family, n)
        e = identity(g)
        for _ in range(30):
            a = random_element(rng, g)
            assert gr.compose(e, a) == a
            assert gr.compose(a, gr.inverse(a)) == e
            assert gr.compose(gr.inverse(a), a) == e


def test_composition_example():
    g = build_group("GL", 2)
    swap = 1 - g.weyl.identity_idx
    a = gr.compose(g.element((1, 2), g.weyl.identity_idx), g.element((0, 0), swap))
    sq = gr.compose(a, a)
    assert sq.m == (Q(3), Q(3)) and sq.w_idx == g.weyl.identity_idx


def test_inverse_of_translation():
    g = build_group("GL", 2)
    a = g.element((1, 2), g.weyl.identity_idx)
    assert gr.inverse(a).m == (Q(-1), Q(-2))


def test_associativity():
    rng = random.Random(1)
    g = build_group("Sp", 2)
    for _ in range(40):
        a, b, c = (random_element(rng, g) for _ in range(3))
        assert gr.compose(gr.compose(a, b), c) == gr.compose(a, gr.compose(b, c))


def test_parent_mismatch():
    a = identity(build_group("GL", 2))
    b = identity(build_group("GL", 3))
    with pytest.raises(gr.ParentMismatchError):
        gr.compose(a, b)


def test_centers():
    gl = build_group("GL", 3)
    basis = gr.center_basis(gl)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] == v[2] != 0
    assert gr.center_basis(build_group("SL", 3)) == ()
    assert gr.center_basis(build_group("G2", 0)) == ()
    assert len(gr.center_basis(build_group("GL", 1))) == 1


def test_determinant_map_is_sum_for_gl():
    rng = random.Random(2)
    g = build_group("GL", 3)
    for _ in range(30):
        a = random_element(rng, g)
        assert gr.determinant_map(a) == (sum(a.m, Q(0)),)


def test_determinant_map_additive_and_kills_coroots():
    rng = random.Random(3)
    g = build_group("GL", 4)
    for _ in range(30):
        a, b = random_element(rng, g), random_element(rng, g)
        ab = gr.compose(a, b)
        da, db = gr.determinant_map(a), gr.determinant_map(b)
        assert gr.determinant_map(ab) == tuple(x + y for x, y in zip(da, db))
    coroot = g.element(g.datum.coroots[0], g.weyl.identity_idx)
    assert gr.determinant_map(coroot) == (Q(0),)


def test_determinant_map_trivial_for_sp():
    g = build_group("Sp", 2)
    a = g.element((3, 5), 0)
    assert gr.determinant_map(a) == ()


def test_hom_respects_composition():
    rng = random.Random(4)
    for hom in [gr.hom_sl_to_gl(3), gr.hom_gl_to_pgl(3), gr.hom_det(3)]:
        for _ in range(30):
            a, b = random_element(rng, hom.source), random_element(rng, hom.source)
            assert apply_hom(hom, gr.compose(a, b)) == gr.compose(apply_hom(hom, a), apply_hom(hom, b))


def test_sl_to_pgl_composite_has_index_n():
    for n in (2, 3, 4):
        comp = gr.compose_hom(gr.hom_gl_to_pgl(n), gr.hom_sl_to_gl(n))
        assert lattice_index(comp.lattice_map) == n


def test_make_hom_rejects_incompatible_maps():
    gl2 = build_group("GL", 2)
    gl1 = build_group("GL", 1)
    with pytest.raises(ValueError):
        gr.make_hom(gl2, gl1, ((1, 0),), lambda i: gl1.weyl.identity_idx)


FAMILIES = [("GL", 3), ("SL", 3), ("PGL", 3), ("Sp", 2), ("SO_odd", 2), ("SO_even", 3), ("G2", 0)]


@pytest.mark.parametrize("family,n", FAMILIES)
def test_to_matrix_is_homomorphism(family, n):
    rng = random.Random(5)
    g = build_group(family, n)
    for _ in range(500):
        a, b = random_element(rng, g), random_element(rng, g)
        prod = trop_matrix_mul(gr.to_matrix(a), gr.to_matrix(b))
        expect = gr.to_matrix(gr.compose(a, b))
        if family == "PGL":
            prod = normalize_pgl(prod)
        assert prod == expect


@pytest.mark.parametrize("family,n", FAMILIES)
def test_from_matrix_roundtrip(family, n):
    rng = random.Random(6)
    g = build_group(family, n)
    for _ in range(40):
        a = random_element(rng, g)
        assert gr.from_matrix(gr.to_matrix(a), g) == a
    size = len(g.model[0])
    assert gr.from_matrix(sr.TropMatrix.gen_perm((0,) * size, range(size)), g) == identity(g)


def test_sp2_matrix_model_antisymmetric():
    g = build_group("Sp", 1)
    a = g.element((Q(5, 2),), g.weyl.identity_idx)
    mat = gr.to_matrix(a)
    dec = sr.invert_or_decompose(mat)
    assert dec.diag == (Q(5, 2), Q(-5, 2))


def test_gl2_model_example():
    g = build_group("GL", 2)
    swap = 1 - g.weyl.identity_idx
    mat = gr.to_matrix(g.element((1, -1), swap))
    assert mat == trop_matrix_mul(sr.TropMatrix.gen_perm([1, -1], range(2)), sr.TropMatrix.gen_perm((0, 0), (1, 0)))


def test_from_matrix_rejects_nonmembers():
    g = build_group("Sp", 2)
    with pytest.raises(gr.NotInGroupError):
        gr.from_matrix(sr.TropMatrix.gen_perm([1] * 4, range(4)), g)
    rng = random.Random(7)
    with pytest.raises(gr.NotInGroupError):
        gr.from_matrix(samplers.non_invertible(rng, 4), g)
    sl = build_group("SL", 2)
    with pytest.raises(gr.NotInGroupError):
        gr.from_matrix(sr.TropMatrix.gen_perm([1, 1], range(2)), sl)


@pytest.mark.parametrize("family,n", FAMILIES)
def test_from_matrix_rejects_a_wrong_size_at_the_boundary(family, n):
    g = build_group(family, n)
    k = len(g.model[0])
    for size in (k - 1, k + 1):
        with pytest.raises(gr.NotInGroupError, match=f"{k}×{k}, not {size}×{size}"):
            gr.from_matrix(sr.TropMatrix.gen_perm((0,) * size, range(size)), g)


def semiring_definition(family, mat):
    """Membership of a square matrix of the model's size by the literal
    definition of the family over the semiring."""
    if family in ("GL", "PGL"):
        return is_invertible(mat)
    if family == "SL":
        return is_invertible(mat) and sr.trop_det(mat) == sr.fin(0)
    if family == "Sp":
        return check_symplectic(mat)
    if family == "G2":
        return check_g2(mat)
    return check_orthogonal(mat) == "in_SO"


def membership_probes(rng, g, count):
    """count model elements with one y entry moved, count with two σ entries
    swapped and count uniformly random generalized permutation matrices."""
    size = len(g.model[0])
    for _ in range(count):
        dec = sr.invert_or_decompose(gr.to_matrix(random_element(rng, g)))
        y, perm = list(dec.diag), list(dec.perm)
        y[rng.randrange(size)] += rng.choice((Q(1), Q(-1, 2), Q(3)))
        yield sr.TropMatrix.gen_perm(y, dec.perm)
        i, j = rng.sample(range(size), 2)
        perm[i], perm[j] = perm[j], perm[i]
        yield sr.TropMatrix.gen_perm(dec.diag, perm)
        yield samplers.gen_perm(rng, size)


ORACLE_FAMILIES = [
    ("GL", 3), ("SL", 4), ("PGL", 4), ("Sp", 2), ("Sp", 3), ("SO_odd", 2), ("SO_odd", 3),
    ("SO_even", 3), ("SO_even", 4), ("G2", 0),
]

# SHA-256 of the outcomes below ("rejected" or the element accepted) over the
# 3,900 probes, as first recorded; the verdicts must stay byte-identical
ORACLE_GOLDEN = "60053d784919e4f04481351459f3ab8271bcaa80d02d7bac867419afdfa31fc6"


def test_from_matrix_agrees_with_the_semiring_definitions():
    """The model image is the whole membership test of from_matrix: it accepts
    exactly the matrices the literal definition of the family accepts."""
    outcomes, disagreements = [], []
    for family, n in ORACLE_FAMILIES:
        g = build_group(family, n)
        rng = random.Random(f"oracle {family}{n}")
        for mat in membership_probes(rng, g, 130):
            try:
                outcomes.append(gr.from_matrix(mat, g).to_json())
            except gr.NotInGroupError:
                outcomes.append("rejected")
            if (outcomes[-1] != "rejected") != semiring_definition(family, mat):
                disagreements.append((family, n, mat.to_json()))
    assert disagreements == []
    assert 0 < outcomes.count("rejected") < len(outcomes)
    assert sha256_json(outcomes) == ORACLE_GOLDEN


def test_g2_model_lattice_image():
    """The six model coordinates of integral cocharacters are exactly the
    integer solutions of x₁+x₄ = x₂+x₅ = x₃+x₆ = x₁+x₃+x₅ = 0."""
    g = build_group("G2", 0)
    rng = random.Random(8)
    for _ in range(40):
        m = (rng.randint(-6, 6), rng.randint(-6, 6))
        y = gr.model_coordinates(g.element(m, g.weyl.identity_idx))[:6]
        assert all(v.denominator == 1 for v in y)
        assert y[0] + y[3] == 0 and y[1] + y[4] == 0 and y[2] + y[5] == 0
        assert y[0] + y[2] + y[4] == 0
    # conversely, every integer point of the relation lattice is hit
    for y1 in range(-4, 5):
        for y2 in range(-4, 5):
            mat = sr.TropMatrix.gen_perm(
                [y1, y2, y2 - y1, -y1, -y2, y1 - y2, 0], tuple(range(7))
            )
            elt = gr.from_matrix(mat, g)
            assert all(x.denominator == 1 for x in elt.m)


def test_elements_are_frozen_values(monkeypatch):
    g = build_group("GL", 2)
    a = g.element((Q(1, 2), 3), 1)
    held = {a}
    for field, value in [("m", (5, 5)), ("w_idx", 0), ("group", build_group("GL", 3))]:
        # assigning m once succeeded, and the element dropped out of the set holding it
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field, value)
    assert a in held and (a.m, a.w_idx) == ((Q(1, 2), Q(3)), 1)
    back = gr.from_matrix(gr.to_matrix(a), g)
    assert back is not a and back == a and hash(back) == hash(a) and back in held
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    other = build_group("GL", 2)
    assert other is not g
    assert other.element(a.m, a.w_idx) != a  # parented by identity: equal only in the same group


def test_build_group_reads_n_as_an_integer(monkeypatch):
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    # True once built GL1 under its own cache key; None raised a bare TypeError
    for n, message in [(True, "True is not a rational"), (None, "None is not a rational"), (Q(1, 2), "not an integer")]:
        with pytest.raises(ValueError, match=f"field 'n': .*{message}"):
            build_group("GL", n)
    assert build_group("GL", 2.0) is build_group("GL", "2") is build_group("GL", 2)
    assert set(gr._GROUP_CACHE) == {("GL", 2)}


def test_element_json():
    g = build_group("GL", 2)
    a = g.element((Q(1, 2), 3), 1)
    assert a.to_json() == {"m": ["1/2", "3"], "w": 1}


def test_element_rejects_out_of_range_index():
    g = build_group("GL", 3)
    for w in (-1, len(g.weyl), 99):
        with pytest.raises(ValueError, match=f"index {w} .*= 6"):
            g.element((0, 0, 0), w)
    assert g.element((0, 0, 0), len(g.weyl) - 1).w_idx == len(g.weyl) - 1


def test_element_checks_its_fields():
    g = build_group("GL", 2)
    cases = [
        (((1, 2, 3), 0), "'m' must be a list of 2 entries"),  # once a vec_dot length error, later
        (("12", 0), "'m' must be a list of 2 entries"),
        (((True, 0), 0), "'m': True is not a rational"),  # once silently m = (1, 0)
        (((1, 2), True), "'w': True is not a rational"),  # once silently w = 1
        (((1, "1/0"), 0), "'m': '1/0' is not a rational"),
        (((1, 2), Q(1, 2)), "'w': Fraction\\(1, 2\\) is not an integer"),
        (((1, 2), g.weyl.elements[1]), "'w': WeylElement.* is not a rational"),  # an index is the one form
    ]
    for (m, w), message in cases:
        with pytest.raises(ValueError, match=message):
            g.element(m, w)
    a = g.element(["1/2", 3], 1)
    assert (a.m, a.w_idx) == ((Q(1, 2), Q(3)), 1)


# SHA-256 of the to_matrix JSON, of the from_matrix round trip's to_json, and
# of the outcome of from_matrix on the model with one coordinate moved by 1
# ("rejected" or the element accepted), over 40 seeded elements per group, as
# first recorded; the matrix models must stay byte-identical
MODEL_GOLDEN = [
    ("GL", 4, (
        "2ff6359905e69cc2d3ec08caee1f6d558122652da91d87c17e0b61c1a1d06972",
        "d892f075e0af735f022b91a34fa932723e22da5cd517293b49c68bad5bc6f4a8",
        "51ab45e0318cc21dd89f6ef81ea1ad0a5ad032793029b1e22b54758ca3e26292",
    )),
    ("SL", 4, (
        "8cc061e1d2d64c8324e35368c37481816b645dcabbed99608c8070ef36f36791",
        "26e569211499034d08c94d30a80c0f691be45d6cd748fbaf281e279214c520c2",
        "b78a8c69cf3e2503854139b0eb535658fd8132ed92a06a589f11a6353f2783a3",
    )),
    ("PGL", 4, (
        "48a93a64e0c6735a8987a69f57f1feca2a5c7da21e055c325ca8a36613f164c0",
        "6fbeae81f0395f4146f7b80fefcdb2efccd26c75f42390a05261dda7e494b996",
        "442846c0686543dd5b0f703e2103e4e21e8c0085ce9ea2fbf687a537b07db9b0",
    )),
    ("Sp", 3, (
        "ab391035815ae65eaacfbe8952edb0bba715a9552266d0812137d84aefe7ab35",
        "df496e0728421a9eb1c082e65c7b446aa5cbd06016168795dedc1accdd1da1bb",
        "b78a8c69cf3e2503854139b0eb535658fd8132ed92a06a589f11a6353f2783a3",
    )),
    ("SO_odd", 3, (
        "d7942829f483b311fd41f731525de0d1613976cbe4a89d79ff95a87ef480dd30",
        "85630ed4be4137b942c9619fbc511b3868ca0fed5d43f1978aab5971167faa4b",
        "b78a8c69cf3e2503854139b0eb535658fd8132ed92a06a589f11a6353f2783a3",
    )),
    ("SO_even", 4, (
        "1346d78fa0080701dd7ec74a4274b30965e3e41a352711817bf2e20085bdacf6",
        "943ec2a18be8cb0e30f77f27ade67bb8caeec8182b82f2667376bd6f8dc06571",
        "b78a8c69cf3e2503854139b0eb535658fd8132ed92a06a589f11a6353f2783a3",
    )),
    ("G2", 0, (
        "11236eac590c96c5921e2053b9a956cee58d17cda52f7d4c6ca9e0abe10bb098",
        "fb223b8ad67b094c98a1149834cd83b788e963b191c801e1289a0115d672b787",
        "b78a8c69cf3e2503854139b0eb535658fd8132ed92a06a589f11a6353f2783a3",
    )),
]


def sha256_json(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("family,n,digests", MODEL_GOLDEN)
def test_matrix_models_are_pinned(family, n, digests):
    g = build_group(family, n)
    rng = random.Random(f"{family}{n}")
    mats, trips, planted = [], [], []
    for _ in range(40):
        mat = gr.to_matrix(random_element(rng, g))
        mats.append(mat.to_json())
        trips.append(gr.from_matrix(mat, g).to_json())
        dec = sr.invert_or_decompose(mat)
        y = list(dec.diag)
        y[rng.randrange(len(y))] += 1
        try:
            planted.append(gr.from_matrix(sr.TropMatrix.gen_perm(y, dec.perm), g).to_json())
        except gr.NotInGroupError:
            planted.append("rejected")
    assert (sha256_json(mats), sha256_json(trips), sha256_json(planted)) == digests


# the permutation models as first written out by hand, one per family, kept
# as the reference for the permutations read off the model maps


def pairwise_swap(size, a, b, c, d):
    s = list(range(size))
    s[a], s[b] = s[b], s[a]
    s[c], s[d] = s[d], s[c]
    return tuple(s)


def g2_hexagon(datum):
    """The six short roots of G₂ in cyclic order, from the least one towards
    its lesser neighbour."""
    short = [
        alpha
        for alpha, cov in zip(datum.roots, datum.coroots)
        if any(abs(datum.pair(beta, cov)) == 3 for beta in datum.roots)
    ]
    order = [min(short)]
    while len(order) < 6:
        order.append(min(b for b in short if b not in order and la.vec_sub(b, order[-1]) in short))
    assert all(order[k + 3] == la.vec_neg(order[k]) for k in range(3))
    return order


def hand_written_perm_model(family, n, datum):
    """The images of the simple reflections in the permutation model."""
    if family in ("GL", "SL", "PGL"):
        return [transposition(n, t, t + 1) for t in range(n - 1)]
    if family == "Sp":
        gens = [pairwise_swap(2 * n, t, t + 1, n + t, n + t + 1) for t in range(n - 1)]
        return gens + [transposition(2 * n, n - 1, 2 * n - 1)]
    if family == "SO_odd":
        gens = [pairwise_swap(2 * n + 1, 1 + t, 2 + t, 1 + n + t, 2 + n + t) for t in range(n - 1)]
        return gens + [transposition(2 * n + 1, n, 2 * n)]
    if family == "SO_even":
        gens = [pairwise_swap(2 * n, t, t + 1, n + t, n + t + 1) for t in range(n - 1)]
        return gens + [pairwise_swap(2 * n, n - 2, 2 * n - 1, n - 1, 2 * n - 2)]
    hexagon = g2_hexagon(datum)
    return [tuple(hexagon.index(datum.reflect_char(i, b)) for b in hexagon) + (6,) for i in datum.simple]


MODEL_FAMILIES = (
    [("GL", n) for n in range(1, 7)]
    + [("SL", n) for n in range(2, 7)]
    + [("PGL", n) for n in range(2, 7)]
    + [("Sp", n) for n in range(1, 5)]
    + [("SO_odd", n) for n in range(1, 5)]
    + [("SO_even", n) for n in range(2, 5)]
    + [("G2", 0)]
)


@pytest.mark.parametrize("family,n", MODEL_FAMILIES)
def test_generator_permutations_match_the_hand_written_model(family, n):
    g = build_group(family, n)
    assert [g.weyl.perm(s) for s in g.weyl.simple_gens] == hand_written_perm_model(family, n, g.datum)


def test_a_model_map_that_is_not_equivariant_is_rejected(monkeypatch):
    # y₂ = 2·m₂ is moved by the reflection swapping m₁ and m₂ to no row of Y
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    monkeypatch.setattr(gr, "_model_map", lambda family, n: (((1, 0, 0), (0, 1, 0), (0, 0, 2)), 1))
    with pytest.raises(InvariantError, match="GL, n = 3: .* simple reflection 1"):
        build_group("GL", 3)


def model_perm_by_product(num, s):
    """σ with N·S = P_σ·N + 𝟙·c, or None, read off the full product N·S."""
    image, k = la.mat_mul(num, s), len(num)
    shift = [sum(a) - sum(b) for a, b in zip(la.transpose(image), la.transpose(num))]
    rows = {tuple([k * x for x in row]): i for i, row in enumerate(image)}
    sigma = tuple(rows.get(tuple([k * x + c for x, c in zip(row, shift)])) for row in num)
    return None if len(rows) != k or None in sigma else sigma


@pytest.mark.parametrize("family,n", MODEL_FAMILIES + [("GL", 7), ("Sp", 5), ("SO_odd", 5), ("SO_even", 5)])
def test_model_perm_agrees_with_the_full_product(family, n):
    datum = gr.rootdata.build_root_datum(family, n)
    num, _ = gr._model_map(family, n)
    for i in datum.simple:
        s = datum.cochar_reflection_matrix(i)
        assert weyl._model_perm(num, s) == model_perm_by_product(num, s) is not None


def test_model_perm_of_a_non_equivariant_matrix_is_none():
    # a shear moves rows of Y to rows that are no permutation of Y's, with or without the PGL shift
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    for family in ("GL", "PGL"):
        num, _ = gr._model_map(family, 4 if family == "PGL" else 3)
        assert weyl._model_perm(num, shear) is None is model_perm_by_product(num, shear)


# |W| in closed form, and the least valid n of each family
WEYL_ORDERS = {
    "GL": (1, math.factorial),
    "SL": (2, math.factorial),
    "PGL": (2, math.factorial),
    "Sp": (1, lambda n: 2**n * math.factorial(n)),
    "SO_odd": (1, lambda n: 2**n * math.factorial(n)),
    "SO_even": (2, lambda n: 2 ** (n - 1) * math.factorial(n)),
}


class RootDatumBuilt(Exception):
    """Raised by a stand-in for build_root_datum: the size guard let the build through."""


def _no_root_datum(family, n):
    raise RootDatumBuilt(family, n)


def test_size_guard_holds_before_the_root_datum_is_built(monkeypatch):
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    cases = [("G2", 0, 12)] + [(f, n, order(n)) for f, (low, order) in WEYL_ORDERS.items() for n in range(low, 9)]
    # the closed form is the order of the closure, where that is small enough to build
    for family, n, order in cases:
        if order <= 1000:
            assert len(build_group(family, n, guard=order).weyl) == order
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    monkeypatch.setattr(gr.rootdata, "build_root_datum", _no_root_datum)
    for family, n, order in cases:
        with pytest.raises(RootDatumBuilt):
            build_group(family, n, guard=order)
        with pytest.raises(weyl.GuardExceededError, match=f"{family}, n = {n}: .* guard {order - 1}"):
            build_group(family, n, guard=order - 1)
    with pytest.raises(weyl.GuardExceededError):
        build_group("GL", 200)
    monkeypatch.undo()
    # an unknown family or an invalid n stays a ValueError, however small the guard
    for family, n in [("E8", 0), ("SL", 1), ("SO_even", 1), ("Sp", 0), ("GL", -3), ("G2", 2)]:
        with pytest.raises(ValueError, match="unknown family|requires n >=|no rank parameter"):
            build_group(family, n, guard=1)


def test_one_group_per_family_and_n_under_any_guard(monkeypatch, capsys):
    """The guard gates a build and is no part of a group: a group built under
    one guard is the group read under another, and a cached group still
    refuses a guard below its order."""
    monkeypatch.setattr(gr, "_GROUP_CACHE", {})
    gl3 = build_group("GL", 3, guard=500)
    assert gl3 is build_group("GL", 3) is build_group("GL", 3, guard=6)
    assert set(gr._GROUP_CACHE) == {("GL", 3)}
    c = circles.cocycle(gl3, (1, 2, 0), (0, Q(1, 2), 0), 1, 1)
    assert circles.pushforward(gr.hom_det(3), c).slope == (3,)
    gl4 = build_group("GL", 4)
    with pytest.raises(weyl.GuardExceededError, match="GL, n = 4: .* guard 23"):
        build_group("GL", 4, guard=23)
    assert cli.main(["group-info", "GL", "4", "--guard", "23"]) == 3
    assert "exceeds guard 23" in capsys.readouterr().err
    assert gr._GROUP_CACHE["GL", 4] is gl4


def groups_up_to_the_guard(family):
    """The groups of the family at every n whose Weyl group is within the default guard."""
    for n in range(9):
        try:
            yield build_group(family, n)
        except weyl.GuardExceededError:
            return
        except ValueError:  # n below the family's least
            continue


@pytest.mark.parametrize("family", rd.FAMILIES)
def test_kept_pairs_equal_the_scaled_fraction_oracle(family):
    """The (N, d) pairs a group keeps, from the integer RREF, are those that
    scaling the Fraction Gauss–Jordan results gives: the model inverse, the
    coroot frame and the slope matrix of every standard parabolic.  The
    centre basis and the fundamental weights are the oracle's Fractions."""
    built = 0
    for g in groups_up_to_the_guard(family):
        built += 1
        datum, r = g.datum, len(g.datum.simple)
        num, d = g.model
        numt = la.transpose(num)
        assert g.model_inverse == scaled([la.vec_scale(d, row) for row in la.mat_mul(rational_inverse(la.mat_mul(numt, num)), numt)])

        def frame(positions):
            idxs = [datum.simple[t] for t in positions]
            coroots = tuple(tuple(datum.coroots[b][i] for b in idxs) for i in range(g.rank))
            pairings = tuple(la.mat_vec(la.transpose(datum.pairing), datum.roots[a]) for a in idxs)
            cartan = tuple(tuple(la.vec_dot(row, datum.coroots[b]) for b in idxs) for row in pairings)
            return coroots, la.mat_mul(rational_inverse(cartan), pairings)

        coroots, left = frame(tuple(range(r)))
        assert g.coroot_frame == ((coroots, 1), scaled(left))
        for size in range(r + 1):
            for positions in itertools.combinations(range(r), size):
                slope = la.identity_matrix(g.rank)
                if positions:
                    slope = la.mat_sub(slope, la.mat_mul(*frame(positions)))
                assert g.parabolic(positions).slope_matrix == scaled(slope), (g, positions)
        rows = tuple(la.mat_vec(la.transpose(datum.pairing), datum.roots[i]) for i in datum.simple)
        if rows:  # a torus keeps the unit basis, not a kernel
            assert gr.center_basis(g) == rational_kernel(rows)
        cinv = rational_inverse(datum.cartan_matrix())
        weights = tuple(
            tuple(sum((c * datum.roots[t][k] for c, t in zip(cinv[i], datum.simple)), Q(0)) for k in range(len(datum.pairing)))
            for i in range(r)
        )
        assert rd.fundamental_weights(datum) == weights
    assert built >= 1
