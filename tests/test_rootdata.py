"""Root datum builders, axioms, fundamental groups, weights, duality."""

import itertools
from fractions import Fraction as Q

import pytest

from lattice_oracles import so_even_datum_by_inverse
from rootdata_oracles import data_equal, enumerated_datum, levi_datum_by_span
from tropgroups import intlinalg as la
from tropgroups import rootdata as rd
from tropgroups.errors import InvariantError

ALL_BUILDS = [
    ("GL", 1),
    ("GL", 2),
    ("GL", 4),
    ("SL", 2),
    ("SL", 4),
    ("PGL", 2),
    ("PGL", 4),
    ("Sp", 1),
    ("Sp", 3),
    ("SO_odd", 2),
    ("SO_odd", 3),
    ("SO_even", 2),
    ("SO_even", 3),
    ("SO_even", 4),
    ("G2", 0),
]


@pytest.mark.parametrize("family,n", ALL_BUILDS)
def test_builders_validate(family, n):
    datum = rd.build_root_datum(family, n)
    assert rd.validate_root_datum(datum) == []
    for i, j in zip(datum.simple, datum.simple):
        assert datum.pair(datum.roots[i], datum.coroots[j]) == 2


def test_gl2_datum_contents():
    datum = rd.build_root_datum("GL", 2)
    assert datum.rank_char == datum.rank_cochar == 2
    assert set(datum.roots) == {(1, -1), (-1, 1)}
    assert set(datum.coroots) == {(1, -1), (-1, 1)}


def test_sl2_cochar_is_sum_zero_line():
    # cocharacters are sum-zero vectors; in the basis f₁ = e₁−e₂ the coroots are ±f₁
    datum = rd.build_root_datum("SL", 2)
    assert datum.rank_cochar == 1
    assert set(datum.coroots) == {(1,), (-1,)}


def test_sp2_roots():
    datum = rd.build_root_datum("Sp", 2)
    assert set(datum.roots) == {(2, 0), (-2, 0), (0, 2), (0, -2), (1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert set(datum.coroots) == {(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_invalid_families():
    with pytest.raises(ValueError):
        rd.build_root_datum("SL", 1)
    with pytest.raises(ValueError):
        rd.build_root_datum("SO_even", 1)
    with pytest.raises(ValueError):
        rd.build_root_datum("E8", 8)
    # G2 takes no rank parameter, so another n is not a second G2
    for n in (-1, 2, 5):
        with pytest.raises(ValueError, match="G2"):
            rd.build_root_datum("G2", n)


def test_validation_catches_scaled_coroot():
    datum = rd.build_root_datum("GL", 2)
    bad_coroots = tuple(la.vec_scale(2, c) if i == 0 else c for i, c in enumerate(datum.coroots))
    bad = rd.RootDatum(datum.pairing, datum.roots, bad_coroots, datum.simple)
    assert any("pairing axiom" in v for v in rd.validate_root_datum(bad))


def test_validation_catches_missing_reflection_image():
    datum = rd.build_root_datum("GL", 3)
    keep = [i for i, r in enumerate(datum.roots) if r != (1, 0, -1)]
    bad = rd.RootDatum(
        datum.pairing,
        tuple(datum.roots[i] for i in keep),
        tuple(datum.coroots[i] for i in keep),
        tuple(keep.index(i) for i in datum.simple),
    )
    assert any("stabilize" in v for v in rd.validate_root_datum(bad))


PI1_TABLE = [
    ("GL", 2, (0,)),
    ("GL", 4, (0,)),
    ("SL", 3, ()),
    ("PGL", 2, (2,)),
    ("PGL", 5, (5,)),
    ("Sp", 3, ()),
    ("SO_odd", 3, (2,)),
    ("SO_even", 2, (2, 2)),
    ("SO_even", 3, (4,)),
    ("SO_even", 4, (2, 2)),
    ("G2", 0, ()),
]


@pytest.mark.parametrize("family,n,factors", PI1_TABLE)
def test_fundamental_groups(family, n, factors):
    datum = rd.build_root_datum(family, n)
    assert rd.fundamental_group(datum).invariant_factors == factors


def test_fundamental_group_projection():
    datum = rd.build_root_datum("PGL", 3)
    pi1 = rd.fundamental_group(datum)
    x = (1, 0)
    for cor in datum.coroots:
        assert pi1.project(la.vec_add(x, cor)) == pi1.project(x)


def test_fundamental_weights_dual_to_simple_coroots():
    for family, n in ALL_BUILDS:
        datum = rd.build_root_datum(family, n)
        if not datum.simple:
            continue
        weights = rd.fundamental_weights(datum)
        for i, omega in enumerate(weights):
            for j, idx in enumerate(datum.simple):
                assert datum.pair(omega, datum.coroots[idx]) == (1 if i == j else 0)


def test_gl_fundamental_weight_formula():
    datum = rd.build_root_datum("GL", 4)
    weights = rd.fundamental_weights(datum)
    assert weights[0] == (Q(3, 4), Q(-1, 4), Q(-1, 4), Q(-1, 4))


def test_duality():
    gl = rd.build_root_datum("GL", 3)
    assert data_equal(rd.dual_datum(gl), gl)
    sl, pgl = rd.build_root_datum("SL", 4), rd.build_root_datum("PGL", 4)
    assert data_equal(rd.dual_datum(sl), pgl)
    assert data_equal(rd.dual_datum(pgl), sl)


def test_json_export():
    datum = rd.build_root_datum("Sp", 2)
    data = datum.to_json()
    assert data["rank_char"] == 2 and len(data["roots"]) == 8


@pytest.mark.parametrize("n", range(2, 8))
def test_so_even_coordinates_match_the_rational_inverse(n):
    assert rd.build_root_datum("SO_even", n) == so_even_datum_by_inverse(n)


ORACLE_BUILDS = (
    [("GL", n) for n in range(1, 9)]
    + [("SL", n) for n in range(2, 9)]
    + [("PGL", n) for n in range(2, 9)]
    + [("Sp", n) for n in range(1, 7)]
    + [("SO_odd", n) for n in range(1, 7)]
    + [("SO_even", n) for n in range(2, 8)]
    + [("G2", 0)]
)


@pytest.mark.parametrize("family,n", ORACLE_BUILDS)
def test_closure_matches_the_enumerated_roots(family, n):
    built, listed = rd.build_root_datum(family, n), enumerated_datum(family, n)
    assert built == listed  # pairing, roots, coroots and simple indices
    assert built.family == listed.family == (family, n)


# every parabolic of these groups (439 in all); the span filter takes one
# rational solve per root, so the largest groups of ORACLE_BUILDS are left out
LEVI_GROUPS = (
    [("GL", n) for n in range(1, 8)]
    + [("SL", n) for n in range(2, 7)]
    + [("PGL", n) for n in range(2, 7)]
    + [("Sp", n) for n in range(1, 6)]
    + [("SO_odd", n) for n in range(1, 6)]
    + [("SO_even", n) for n in range(2, 6)]
    + [("G2", 0)]
)


@pytest.mark.parametrize("family,n", LEVI_GROUPS)
def test_levi_closure_matches_the_span_filter(family, n):
    datum = rd.build_root_datum(family, n)
    for size in range(len(datum.simple) + 1):
        for positions in itertools.combinations(range(len(datum.simple)), size):
            pairs = [(datum.roots[i], datum.coroots[i]) for i in (datum.simple[p] for p in positions)]
            closed = rd._datum(pairs, datum.pairing, None)
            assert closed == levi_datum_by_span(datum, positions), positions


def test_closure_rejects_an_inconsistent_coroot():
    # SO₇ with the coroot of the short simple root e₂ moved from 2e₂ to e₁ + e₂:
    # ⟨e₂, e₁ + e₂⟩ = 1, so s_{e₂} is no reflection, and the closure reaches e₀
    # along two paths with different coroots
    datum = rd.build_root_datum("SO_odd", 3)
    pairs = [(datum.roots[i], datum.coroots[i]) for i in datum.simple]
    pairs[2] = ((0, 0, 1), (0, 1, 1))
    with pytest.raises(InvariantError, match=r"\(1, 0, 0\) has coroots \(1, 1, 0\) and \(1, 0, 1\)"):
        rd._datum(pairs, datum.pairing, None)
