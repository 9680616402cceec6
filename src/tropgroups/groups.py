"""Tropical reductive (and plain linear) groups: pairs (m, w) with the
semidirect-product law, homomorphisms, centers, determinant maps, and the
faithful matrix models of the classical families and G₂.

A group is its root datum, its Weyl group and its model map; the rank and
the family are the datum's.  ``build_group`` makes one group per (family, n):
the size guard is checked in closed form before the cache is read, and is
not part of a group's identity.  The group owns what is derived from it,
built on first use and kept on it: π₁, the dominance frame
``coroot_frame`` (the simple-coroot basis Č with its left inverse), the left
inverse of the model map, and each standard parabolic
``TropicalGroup.parabolic(positions)`` with its Weyl data, π₁(P) and slope
matrix, read by the stability module.  A group element is a translation m in
cocharacter coordinates (exact rationals) together with a Weyl element w;
the law is (m₁, w₁)·(m₂, w₂) = (m₁ + w₁·m₂, w₁w₂).

Each family has one model map Y, an integer matrix N over one denominator d
(d = 2 only for SO_even).  The matrix model of (m, w) is D(y)⊙P_σ with
y = Y·m, and σ is how w permutes the coordinates of y: ``weyl.generate``
reads it off N, Y·S = P_σ·Y + 𝟙·c for each simple reflection S (c = 0
except for PGL), and checks its closure on the matrices alone.  Membership
is the image of the model: from_matrix recovers m from y through a left
inverse of Y and w from σ, or raises NotInGroupError.  The membership tests
of the semiring module are the literal definitions it agrees with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Sequence

from . import intlinalg as la
from . import rootdata, semiring, weyl
from .errors import InvariantError
from .intlinalg import Mat, Vec
from .rootdata import RootDatum
from .semiring import TropMatrix, checked_integer, checked_rational, checked_vector, invert_or_decompose
from .weyl import Parabolic, WeylGroup


class ParentMismatchError(ValueError):
    """Operands belong to different groups."""


class NotInGroupError(ValueError):
    """A matrix is not a member of the requested matrix group."""


class TropicalGroup:
    """A tropical reductive group: the cocharacter lattice of a root datum
    with its Weyl group acting on it.  The rank and the family are the
    datum's; model is the matrix model map Y = N/d as (N, d)."""

    def __init__(self, w: WeylGroup, datum: RootDatum, model: tuple[Mat, int]):
        self.weyl = w
        self.datum = datum
        self.rank = datum.rank_cochar
        self.family = datum.family
        self.model = model
        self._parabolics: dict = {}  # sorted simple-root positions -> ParabolicSubgroup, built once

    def __repr__(self):
        tag = "x".join(map(str, self.family)) if self.family else f"rank{self.rank}"
        return f"TropicalGroup({tag}, |W|={len(self.weyl)})"

    @functools.cached_property
    def model_inverse(self) -> tuple[Mat, int]:
        """(L, e) with L/e = d·(NᵀN)⁻¹Nᵀ, a left inverse of the model map
        Y = N/d, built on the first from_matrix call."""
        num, d = self.model
        inv, e = la.rref_inverse(la.mat_mul(la.transpose(num), num))
        return la.lowest_terms([la.vec_scale(d, row) for row in la.mat_mul(inv, la.transpose(num))], e)

    @functools.cached_property
    def pi1(self) -> la.QuotientLattice:
        return rootdata.fundamental_group(self.datum)

    @functools.cached_property
    def coroot_frame(self) -> tuple[tuple[Mat, int], tuple[Mat, int]]:
        """The simple-coroot basis Č and its left inverse K⁻¹·A, each as an
        integer matrix over one denominator: the dominance order solves Č·c = v."""
        coroots, left_inverse = _coroot_frame(self, tuple(range(len(self.datum.simple))))
        return (coroots, 1), la.lowest_terms(*left_inverse)

    def parabolic(self, positions: Sequence[int]) -> "ParabolicSubgroup":
        """The standard parabolic at the simple-root positions, built once per
        sorted positions.  A ValueError naming positions unless each is an
        integer in range(r), read by checked_integer."""
        positions = tuple(sorted({checked_integer("positions", t) for t in positions}))
        p = self._parabolics.get(positions)
        if p is None:
            try:
                wp = self.weyl.parabolic(positions)
            except InvariantError as exc:
                raise InvariantError(f"parabolic at positions {positions} of {self!r}: {exc}") from None
            # the full parabolic is G: its π₁ is self.pi1, in the coordinates of circles.degree
            simple = [self.datum.coroots[self.datum.simple[t]] for t in positions]
            pi1 = self.pi1 if len(positions) == len(self.datum.simple) else la.QuotientLattice(self.rank, simple)
            # M_P = I − Č_P·K_P⁻¹·A_P, and I for the torus parabolic, whose Č_P has no columns
            slope_map = la.identity_matrix(self.rank), 1
            if positions:
                coroots, (num, den) = _coroot_frame(self, positions)
                identity = [la.vec_scale(den, row) for row in slope_map[0]]
                slope_map = la.lowest_terms(la.mat_sub(identity, la.mat_mul(coroots, num)), den)
            p = self._parabolics[positions] = ParabolicSubgroup(self, wp, pi1, slope_map)
        return p

    def element(self, m: Sequence, w) -> "TropGroupElement":
        """(m, w) with both fields checked: m a list of rank rationals, w a
        Weyl element index; a ValueError names a bad field."""
        widx = self.weyl.check_idx("w", w)
        return TropGroupElement(self, checked_vector("m", m, self.rank, checked_rational), widx)


@dataclass(frozen=True)
class ParabolicSubgroup:
    """Standard parabolic: its Weyl data (``WeylGroup.parabolic``), π₁(P), and
    the slope matrix M_P with φ_P = M_P·λ̌, kept as (N, d) with integer N,
    d > 0 and M_P = N/d."""

    group: TropicalGroup
    weyl: Parabolic
    pi1: la.QuotientLattice
    slope_matrix: tuple[Mat, int]


def _coroot_frame(g: TropicalGroup, positions: tuple[int, ...]) -> tuple[Mat, tuple[Mat, int]]:
    """(Č, (X, D)) with X/D = K⁻¹·A for the simple roots at the positions,
    exactly; X/D need not be in lowest terms.

    Č has their coroots as columns, K = A·Č is their Cartan matrix and A maps
    λ̌ to the pairings ⟨α, λ̌⟩, so K⁻¹·A is a left inverse of Č: it gives the
    coefficients of any vector of the coroot span.
    """
    datum = g.datum
    idxs = [datum.simple[t] for t in positions]
    coroots = tuple(tuple(datum.coroots[b][i] for b in idxs) for i in range(g.rank))
    pairings = tuple(la.mat_vec(la.transpose(datum.pairing), datum.roots[a]) for a in idxs)
    cartan = tuple(tuple(la.vec_dot(row, datum.coroots[b]) for b in idxs) for row in pairings)
    try:
        inv, den = la.rref_inverse(cartan)
    except ValueError:
        raise InvariantError(f"simple coroots at positions {positions} are not independent") from None
    return coroots, (la.mat_mul(inv, pairings), den)


@dataclass(frozen=True, slots=True)
class TropGroupElement:
    """Group element (m, w) as a value.  Equal elements share the group
    object, which has no __eq__, so elements of distinct groups differ."""

    group: TropicalGroup
    m: tuple
    w_idx: int

    def __repr__(self):
        return f"({self.m}, w{self.w_idx})"

    def to_json(self):
        return {"m": [semiring.rational_to_str(x) for x in self.m], "w": self.w_idx}


def compose(a: TropGroupElement, b: TropGroupElement) -> TropGroupElement:
    """(m₁, w₁)·(m₂, w₂) = (m₁ + w₁·m₂, w₁w₂)."""
    if a.group is not b.group:
        raise ParentMismatchError("elements belong to different groups")
    m = la.vec_add(a.m, la.mat_vec(a.group.weyl.matrices[a.w_idx], b.m))
    return TropGroupElement(a.group, m, a.group.weyl.mul(a.w_idx, b.w_idx))


def inverse(a: TropGroupElement) -> TropGroupElement:
    """(m, w)⁻¹ = (−w⁻¹·m, w⁻¹)."""
    winv = a.group.weyl.inverse[a.w_idx]
    mat = a.group.weyl.matrices[winv]
    return TropGroupElement(a.group, la.vec_neg(la.mat_vec(mat, a.m)), winv)


def center_basis(g: TropicalGroup) -> tuple[Vec, ...]:
    """Rational basis of R^⊥ = {m : ⟨α, m⟩ = 0 for all roots α}: one vector
    per free column c of the RREF of the simple roots, with x_c = 1 and the
    other free x at 0."""
    rd = g.datum
    num, d, pivots = la.integer_rref(tuple(la.mat_vec(la.transpose(rd.pairing), rd.roots[i]) for i in rd.simple))
    basis = []
    for c in (c for c in range(g.rank) if c not in pivots):
        v = [Q(int(t == c)) for t in range(g.rank)]
        for row, pc in zip(num, pivots):
            v[pc] = Q(-row[c], d)
        basis.append(tuple(v))
    return tuple(basis)


def determinant_map(a: TropGroupElement) -> Vec:
    """Image of m in the free part of π₁ ⊗ ℚ; the Weyl part is discarded."""
    return a.group.pi1.free_part(a.m)


@dataclass(frozen=True)
class TropGroupHom:
    """Homomorphism (f, φ): lattice map plus compatible Weyl-group map;
    ``circles.pushforward`` applies it to cocycles."""

    source: TropicalGroup
    target: TropicalGroup
    lattice_map: Mat
    weyl_map: tuple[int, ...]


def make_hom(source: TropicalGroup, target: TropicalGroup, f: Mat, phi: Callable[[int], int]) -> TropGroupHom:
    """Build a homomorphism, checking compatibility φ(g)∘f = f∘g on generators
    and multiplicativity of φ against the whole source group."""
    wmap = tuple(phi(i) for i in range(len(source.weyl)))
    fint = la.matrix(f)
    for g, left in zip(source.weyl.simple_gens, source.weyl.left):
        lhs = la.mat_mul(target.weyl.matrices[wmap[g]], fint)
        rhs = la.mat_mul(fint, source.weyl.matrices[g])
        if lhs != rhs:
            raise ValueError("lattice map is not equivariant for the Weyl maps")
        for b in range(len(source.weyl)):
            if wmap[left[b]] != target.weyl.mul(wmap[g], wmap[b]):
                raise ValueError("Weyl map is not a homomorphism")
    return TropGroupHom(source, target, fint, wmap)


def compose_hom(g: TropGroupHom, f: TropGroupHom) -> TropGroupHom:
    """g ∘ f."""
    if f.target is not g.source:
        raise ParentMismatchError("homomorphisms are not composable")
    return TropGroupHom(
        f.source,
        g.target,
        la.mat_mul(g.lattice_map, f.lattice_map),
        tuple(g.weyl_map[i] for i in f.weyl_map),
    )


# ---------------------------------------------------------------------------
# builders: the matrix model map of each family
# ---------------------------------------------------------------------------

# the six short roots of G₂ in cyclic order, so that y_{k+3} = −y_k, and a
# seventh coordinate fixed at 0
_G2_MODEL = ((-2, 1), (-1, 0), (1, -1), (2, -1), (1, 0), (-1, 1), (0, 0))


def _model_map(family: str, n: int) -> tuple[Mat, int]:
    """(N, d) with the model map Y = N/d: the matrix model of (m, w) has the
    diagonal y = Y·m, for m in cocharacter coordinates."""
    if family == "GL":
        return la.identity_matrix(n), 1
    if family == "SL":  # the basis f_t = e_t − e_{t+1} of the sum-zero lattice
        return tuple(tuple(int(r == t) - int(r == t + 1) for t in range(n - 1)) for r in range(n)), 1
    if family == "PGL":  # the representative with last coordinate 0
        return tuple(tuple(int(r == t) for t in range(n - 1)) for r in range(n)), 1
    if family == "G2":  # y_k = ⟨β_k, m⟩
        return _G2_MODEL, 1
    top, d = la.identity_matrix(n), 1
    if family == "SO_even":  # twice the basis of ℤⁿ + ℤ(½,…,½), over d = 2
        top, d = rootdata.so_even_cochar_basis(n), 2
    signed = top + tuple(la.vec_neg(row) for row in top)  # y_{−i} = −y_i
    if family == "SO_odd":
        return ((0,) * n,) + signed, 1
    if family in ("Sp", "SO_even"):
        return signed, d
    raise ValueError(f"no matrix model for family {family!r}")


# built groups by (family, n), so that clearing this one dict makes every
# build cold; the guard gates a build and is not part of a group's identity
_GROUP_CACHE: dict = {}


def build_group(family: str, n: int = 0, guard: int = weyl.DEFAULT_GUARD) -> TropicalGroup:
    """Tropical reductive group of the family with its matrix-model data: one
    object per (family, n), whatever guard it was built or looked up under."""
    n = checked_integer("n", n)
    if family not in rootdata.FAMILIES:
        raise ValueError(f"unknown family {family!r}; the families are {', '.join(rootdata.FAMILIES)}")
    # the guard holds before anything is built: |W| is the product of the order factors of the
    # family's Coxeter type, stopped past the guard; an invalid n has no factors
    if family == "G2":
        factors = weyl.order_factors("G", 2) if n == 0 else ()
    else:
        kind = {"Sp": "B", "SO_odd": "B", "SO_even": "D"}.get(family, "A")
        factors = weyl.order_factors(kind, n - 1 if kind == "A" else n)
    order = 1
    for factor in factors:
        order *= factor
        if order > guard:
            raise weyl.GuardExceededError(f"{family}, n = {n}: |W| exceeds guard {guard}")
    g = _GROUP_CACHE.get((family, n))
    if g is not None:
        return g
    datum = rootdata.build_root_datum(family, n)
    num, d = _model_map(family, n)
    try:
        w = weyl.generate([datum.cochar_reflection_matrix(i) for i in datum.simple], num, guard)
    except InvariantError as exc:
        raise InvariantError(f"{family}, n = {n}: {exc}") from None
    g = _GROUP_CACHE[family, n] = TropicalGroup(w, datum, (num, d))
    return g


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------


def model_coordinates(a: TropGroupElement) -> tuple:
    """The diagonal y = Y·m of the matrix model of the element."""
    num, d = a.group.model
    m, den = la.integer_numerators(a.m)
    return tuple([Q(la.vec_dot(row, m), d * den) for row in num])


def to_matrix(a: TropGroupElement) -> TropMatrix:
    """Faithful matrix model D(y)⊙P_σ of the element."""
    return TropMatrix.gen_perm(model_coordinates(a), a.group.weyl.perm(a.w_idx))


def from_matrix(mat: TropMatrix, g: TropicalGroup) -> TropGroupElement:
    """Inverse of to_matrix.  The members are the image of the model: D(y)⊙P_σ
    of the model's size with y = Y·m for some m and σ = σ(w) for some w in W;
    any other matrix raises NotInGroupError."""
    num, _ = g.model
    family, n = g.family
    size = len(num)
    if mat.n_rows != size or mat.n_cols != size:
        raise NotInGroupError(f"{family}, n = {n}: the model is {size}×{size}, not {mat.n_rows}×{mat.n_cols}")
    try:
        dec = invert_or_decompose(mat)
    except semiring.NotInvertibleError as exc:
        raise NotInGroupError(str(exc)) from exc
    y = dec.diag
    if family == "PGL":  # a scalar shift is the identity of PGL; Y·m ends in 0
        y = tuple(x - y[-1] for x in y)
    ynum, s = la.integer_numerators(y)
    mnum = la.solve_scaled(g.model, g.model_inverse, ynum)  # m = mnum/(e·s)
    if mnum is None:
        raise NotInGroupError(f"{family}, n = {n}: model coordinates {[str(x) for x in y]} are not Y·m for any m")
    try:
        w_idx = g.weyl.perm_idx(dec.perm)
    except ValueError as exc:
        raise NotInGroupError("permutation part is not in the Weyl group") from exc
    return TropGroupElement(g, tuple([Q(v, g.model_inverse[1] * s) for v in mnum]), w_idx)


# ---------------------------------------------------------------------------
# standard homomorphisms, whose groups are held to the given guard
# ---------------------------------------------------------------------------


def hom_sl_to_gl(n: int, guard: int = weyl.DEFAULT_GUARD) -> TropGroupHom:
    sl, gl = build_group("SL", n, guard), build_group("GL", n, guard)
    return make_hom(sl, gl, sl.model[0], lambda i: gl.weyl.perm_idx(sl.weyl.perm(i)))


def hom_gl_to_pgl(n: int, guard: int = weyl.DEFAULT_GUARD) -> TropGroupHom:
    gl, pgl = build_group("GL", n, guard), build_group("PGL", n, guard)
    f = tuple(
        tuple(int(t == c) - int(c == n - 1) for c in range(n)) for t in range(n - 1)
    )
    return make_hom(gl, pgl, f, lambda i: pgl.weyl.perm_idx(gl.weyl.perm(i)))


def hom_det(n: int, guard: int = weyl.DEFAULT_GUARD) -> TropGroupHom:
    gl, gl1 = build_group("GL", n, guard), build_group("GL", 1, guard)
    return make_hom(gl, gl1, ((1,) * n,), lambda i: gl1.weyl.identity_idx)
