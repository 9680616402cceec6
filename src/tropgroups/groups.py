"""Tropical reductive (and plain linear) groups: pairs (m, w) with the
semidirect-product law, homomorphisms, centers, determinant maps, and the
faithful matrix models of the classical families and G₂.

A group element is a translation m in cocharacter coordinates (exact
rationals) together with a Weyl element w; the law is
(m₁, w₁)·(m₂, w₂) = (m₁ + w₁·m₂, w₁w₂).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Optional, Sequence

from . import intlinalg as la
from . import rootdata, semiring, weyl
from .errors import InvariantError
from .intlinalg import Mat, Vec
from .permutations import transposition
from .rootdata import RootDatum
from .semiring import GenPermDecomposition, TropMatrix, invert_or_decompose
from .weyl import WeylElement, WeylGroup


class ParentMismatchError(ValueError):
    """Operands belong to different groups."""


class NotInGroupError(ValueError):
    """A matrix is not a member of the requested matrix group."""


class TropicalGroup:
    """A lattice with a finite matrix group acting on it.

    With a root datum attached this is a tropical reductive group; without
    one it is a plain tropical linear group (used for ambient signed
    permutation groups).
    """

    def __init__(self, rank: int, w: WeylGroup, datum: Optional[RootDatum], family=None):
        self.rank = rank
        self.weyl = w
        self.datum = datum
        self.family = family
        self._pi1 = None
        # per-group data of the stability module, built on first use: the
        # standard parabolics by sorted positions, and the simple-coroot basis
        # with a left inverse
        self.parabolics: dict = {}
        self.coroot_basis = None

    def __repr__(self):
        tag = "x".join(map(str, self.family)) if self.family else f"rank{self.rank}"
        return f"TropicalGroup({tag}, |W|={len(self.weyl)})"

    def pi1(self) -> la.QuotientLattice:
        if self.datum is None:
            raise ValueError("group carries no root datum")
        if self._pi1 is None:
            self._pi1 = rootdata.fundamental_group(self.datum)
        return self._pi1

    def identity(self) -> "TropGroupElement":
        return TropGroupElement(self, (Q(0),) * self.rank, self.weyl.identity_idx)

    def element(self, m: Sequence, w) -> "TropGroupElement":
        widx = self.weyl.check_idx(w) if isinstance(w, int) else self.weyl.idx(w)
        return TropGroupElement(self, tuple(Q(x) for x in m), widx)


class TropGroupElement:
    """Group element (m, w); immutable, parented by identity."""

    __slots__ = ("group", "m", "w_idx")

    def __init__(self, group: TropicalGroup, m: tuple, w_idx: int):
        self.group = group
        self.m = m
        self.w_idx = w_idx

    @property
    def w(self) -> WeylElement:
        return self.group.weyl.element(self.w_idx)

    def __eq__(self, other):
        return (
            isinstance(other, TropGroupElement)
            and self.group is other.group
            and self.m == other.m
            and self.w_idx == other.w_idx
        )

    def __hash__(self):
        return hash((id(self.group), self.m, self.w_idx))

    def __repr__(self):
        return f"({self.m}, w{self.w_idx})"

    def to_json(self):
        return {"m": [semiring.rational_to_str(x) for x in self.m], "w": self.w_idx}


def compose(a: TropGroupElement, b: TropGroupElement) -> TropGroupElement:
    """(m₁, w₁)·(m₂, w₂) = (m₁ + w₁·m₂, w₁w₂)."""
    if a.group is not b.group:
        raise ParentMismatchError("elements belong to different groups")
    m = la.vec_add(a.m, la.mat_vec(a.w.matrix, b.m))
    return TropGroupElement(a.group, m, a.group.weyl.mul(a.w_idx, b.w_idx))


def inverse(a: TropGroupElement) -> TropGroupElement:
    """(m, w)⁻¹ = (−w⁻¹·m, w⁻¹)."""
    winv = a.group.weyl.inv(a.w_idx)
    mat = a.group.weyl.element(winv).matrix
    return TropGroupElement(a.group, la.vec_neg(la.mat_vec(mat, a.m)), winv)


def center_basis(g: TropicalGroup) -> tuple[Vec, ...]:
    """Rational basis of R^⊥ = {m : ⟨α, m⟩ = 0 for all roots α}."""
    if g.datum is None:
        raise ValueError("group carries no root datum")
    rd = g.datum
    if not rd.roots:
        return tuple(tuple(Q(int(i == j)) for j in range(g.rank)) for i in range(g.rank))
    rows = tuple(la.mat_vec(la.transpose(rd.pairing), rd.roots[i]) for i in rd.simple)
    return la.rational_kernel(rows)


def determinant_map(a: TropGroupElement) -> Vec:
    """Image of m in the free part of π₁ ⊗ ℚ; the Weyl part is discarded."""
    return a.group.pi1().free_part(a.m)


@dataclass(frozen=True)
class TropGroupHom:
    """Homomorphism (f, φ): lattice map plus compatible Weyl-group map."""

    source: TropicalGroup
    target: TropicalGroup
    lattice_map: Mat
    weyl_map: tuple[int, ...]

    def apply(self, a: TropGroupElement) -> TropGroupElement:
        if a.group is not self.source:
            raise ParentMismatchError("element does not belong to the source group")
        m = la.mat_vec(self.lattice_map, a.m)
        return TropGroupElement(self.target, m, self.weyl_map[a.w_idx])


def make_hom(source: TropicalGroup, target: TropicalGroup, f: Mat, phi: Callable[[int], int]) -> TropGroupHom:
    """Build a homomorphism, checking compatibility φ(g)∘f = f∘g on generators
    and multiplicativity of φ against the whole source group."""
    wmap = tuple(phi(i) for i in range(len(source.weyl)))
    fint = la.matrix(f)
    for g in source.weyl.simple_gens:
        lhs = la.mat_mul(target.weyl.element(wmap[g]).matrix, fint)
        rhs = la.mat_mul(fint, source.weyl.element(g).matrix)
        if lhs != rhs:
            raise ValueError("lattice map is not equivariant for the Weyl maps")
        for b in range(len(source.weyl)):
            if wmap[source.weyl.mul(g, b)] != target.weyl.mul(wmap[g], wmap[b]):
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
# builders: permutation models aligned with the simple reflections
# ---------------------------------------------------------------------------


def _pairwise_swap(size: int, a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    s = list(range(size))
    s[a], s[b] = s[b], s[a]
    s[c], s[d] = s[d], s[c]
    return tuple(s)


def _perm_model(family: str, n: int, datum: RootDatum) -> tuple[int, list]:
    """Degree of the permutation model and the images of the simple reflections."""
    if family in ("GL", "SL", "PGL"):
        return n, [transposition(n, t, t + 1) for t in range(n - 1)]
    if family == "Sp":
        gens = [_pairwise_swap(2 * n, t, t + 1, n + t, n + t + 1) for t in range(n - 1)]
        gens.append(transposition(2 * n, n - 1, 2 * n - 1))
        return 2 * n, gens
    if family == "SO_odd":
        gens = [_pairwise_swap(2 * n + 1, 1 + t, 2 + t, 1 + n + t, 2 + n + t) for t in range(n - 1)]
        gens.append(transposition(2 * n + 1, n, 2 * n))
        return 2 * n + 1, gens
    if family == "SO_even":
        gens = [_pairwise_swap(2 * n, t, t + 1, n + t, n + t + 1) for t in range(n - 1)]
        gens.append(_pairwise_swap(2 * n, n - 2, 2 * n - 1, n - 1, 2 * n - 2))
        return 2 * n, gens
    if family == "G2":
        model = _g2_model(datum)
        return 7, [_g2_root_perm(model, datum.char_reflection_matrix(i)) for i in datum.simple]
    raise ValueError(family)


@dataclass(frozen=True)
class _G2Model:
    hexagon: tuple[Vec, ...]  # six short roots in cyclic order
    pairing_rows: Mat  # 6×2: y_k = ⟨β_k, m⟩


def _g2_model(datum: RootDatum) -> _G2Model:
    short = []
    for idx, (alpha, cov) in enumerate(zip(datum.roots, datum.coroots)):
        if any(abs(datum.pair(beta, cov)) == 3 for beta in datum.roots):
            short.append(alpha)
    if len(short) != 6:
        raise InvariantError(f"G2 root datum has {len(short)} short roots, not 6: {short}")
    short_set = set(short)
    start = min(short)
    neighbors = [b for b in short if la.vec_sub(b, start) in short_set]
    if len(neighbors) != 2:
        raise InvariantError(f"short root {start} has {len(neighbors)} hexagon neighbours, not 2: {neighbors}")
    order = [start, min(neighbors)]
    while len(order) < 6:
        nxt = [
            b
            for b in short
            if b not in order and la.vec_sub(b, order[-1]) in short_set
        ]
        order.append(nxt[0])
    for k in range(3):
        if order[k + 3] != la.vec_neg(order[k]):
            raise InvariantError(f"short-root hexagon {order} is not centrally symmetric")
    rows = tuple(la.mat_vec(la.transpose(datum.pairing), beta) for beta in order)
    return _G2Model(tuple(order), la.matrix(rows))


def _g2_root_perm(model: _G2Model, char_matrix: Mat) -> tuple[int, ...]:
    """Permutation of the hexagon (plus fixed 7th letter) induced on characters."""
    images = [la.mat_vec(char_matrix, b) for b in model.hexagon]
    perm = [model.hexagon.index(tuple(v)) for v in images]
    return tuple(perm) + (6,)


# built groups by (family, n, guard); also the ambient signed groups and their
# homomorphisms from an Sp group sp by ("AmbientSp", sp) and ("Sp→AmbientSp",
# sp), so that clearing this one dict makes every build cold
_GROUP_CACHE: dict = {}


def build_group(family: str, n: int = 0, guard: int = weyl.DEFAULT_GUARD) -> TropicalGroup:
    """Tropical reductive group of the family with its matrix-model data."""
    key = (family, n, guard)
    if key in _GROUP_CACHE:
        return _GROUP_CACHE[key]
    datum = rootdata.build_root_datum(family, n)
    degree, perm_gens = _perm_model(family, n, datum)
    w = weyl.generate(datum, perm_gens, degree, guard)
    g = TropicalGroup(datum.rank_cochar, w, datum, datum.family)
    _GROUP_CACHE[key] = g
    return g


def levi_group(g: TropicalGroup, positions) -> tuple[TropicalGroup, TropGroupHom]:
    """A standard parabolic as a standalone reductive group on the same
    lattice, together with its inclusion homomorphism into g."""
    datum = rootdata.levi_datum(g.datum, positions)
    # levi_datum lists the chosen simple roots in sorted position order
    gen_perms = [g.weyl.perm(g.weyl.simple_gens[p]) for p in sorted(set(positions))]
    # a subgroup of g.weyl, so the order of g.weyl is the guard
    sub = TropicalGroup(g.rank, weyl.generate(datum, gen_perms, len(g.weyl.perms[0]), len(g.weyl)), datum, None)
    inclusion = make_hom(sub, g, la.identity_matrix(g.rank), lambda i: g.weyl.perm_idx(sub.weyl.perm(i)))
    return sub, inclusion


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------


def _sl_embed_matrix(n: int) -> Mat:
    """Columns f_t = e_t − e_{t+1}: sum-zero coordinates to ambient ℤⁿ."""
    return la.from_columns([la.vec_sub(rootdata._e(n, t), rootdata._e(n, t + 1)) for t in range(n - 1)])


def _pgl_rep_matrix(n: int) -> Mat:
    """Quotient coordinates to the ambient representative with last coordinate 0."""
    return la.from_columns([rootdata._e(n, t) for t in range(n - 1)])


def model_coordinates(a: TropGroupElement) -> tuple:
    """The diagonal vector y of the matrix model of the element."""
    g = a.group
    family, n = g.family
    m = a.m
    if family == "GL":
        return m
    if family == "SL":
        return la.mat_vec(_sl_embed_matrix(n), m)
    if family == "PGL":
        return la.mat_vec(_pgl_rep_matrix(n), m)
    if family == "Sp":
        return m + tuple(-x for x in m)
    if family == "SO_odd":
        return (Q(0),) + m + tuple(-x for x in m)
    if family == "SO_even":
        y = la.mat_vec(rootdata.so_even_cochar_basis(n), m)
        return y + tuple(-x for x in y)
    if family == "G2":
        model = _g2_model(g.datum)
        return la.mat_vec(model.pairing_rows, m) + (Q(0),)
    raise ValueError(f"no matrix model for family {family}")


def to_matrix(a: TropGroupElement) -> TropMatrix:
    """Faithful matrix model D(y)⊙P_σ of the element."""
    return TropMatrix.gen_perm(model_coordinates(a), a.group.weyl.perm(a.w_idx))


def from_matrix(mat: TropMatrix, g: TropicalGroup) -> TropGroupElement:
    """Inverse of to_matrix; raises NotInGroupError on failed membership."""
    family, n = g.family
    try:
        dec = invert_or_decompose(mat)
    except semiring.NotInvertibleError as exc:
        raise NotInGroupError(str(exc)) from exc
    _check_model_membership(mat, dec, family, n)
    y = dec.diag
    if family == "GL":
        m = y
    elif family == "SL":
        m = rootdata._sum_zero_coords(n, y)
    elif family == "PGL":
        m = tuple(y[t] - y[n - 1] for t in range(n - 1))
    elif family == "Sp":
        m = y[:n]
    elif family == "SO_odd":
        m = y[1 : n + 1]
    elif family == "SO_even":
        m = la.mat_vec(la.rational_inverse(rootdata.so_even_cochar_basis(n)), y[:n])
    elif family == "G2":
        model = _g2_model(g.datum)
        rows = (model.pairing_rows[0], model.pairing_rows[2])
        m = la.rational_solve(rows, (y[0], y[2]))
        if la.mat_vec(model.pairing_rows, m) != y[:6]:
            raise InvariantError(f"G2 model coordinates {y} are not the pairings of one cocharacter")
    else:
        raise ValueError(family)
    try:
        w_idx = g.weyl.perm_idx(dec.perm)
    except ValueError as exc:
        raise NotInGroupError("permutation part is not in the Weyl group") from exc
    elt = g.element(m, w_idx)
    if family == "PGL":
        # normalize the representative: model coordinates have last entry 0
        if model_coordinates(elt) != tuple(x - y[n - 1] for x in y):
            raise InvariantError(f"PGL{n} representative of {y} does not end in 0")
    return elt


def _check_model_membership(mat: TropMatrix, dec: GenPermDecomposition, family: str, n: int):
    if family == "GL":
        return
    if family == "SL":
        if sum(dec.diag) != 0:
            raise NotInGroupError("tropical determinant is nonzero")
        return
    if family == "PGL":
        return
    if family == "Sp":
        if not semiring.check_symplectic(mat):
            raise NotInGroupError("symplectic identity fails")
        return
    if family in ("SO_odd", "SO_even"):
        if semiring.check_orthogonal(mat) != "in_SO":
            raise NotInGroupError("special orthogonal membership fails")
        return
    if family == "G2":
        if not semiring.check_g2(mat):
            raise NotInGroupError("cubic-form membership fails")
        return
    raise ValueError(family)


def normalize_pgl(mat: TropMatrix) -> TropMatrix:
    """Scale a generalized permutation matrix so the last diagonal entry is 0."""
    dec = invert_or_decompose(mat)
    shift = dec.diag[-1]
    return TropMatrix.gen_perm(tuple(x - shift for x in dec.diag), dec.perm)


# ---------------------------------------------------------------------------
# standard homomorphisms
# ---------------------------------------------------------------------------


def hom_sl_to_gl(n: int) -> TropGroupHom:
    sl, gl = build_group("SL", n), build_group("GL", n)
    return make_hom(sl, gl, _sl_embed_matrix(n), lambda i: gl.weyl.perm_idx(sl.weyl.perm(i)))


def hom_gl_to_pgl(n: int) -> TropGroupHom:
    gl, pgl = build_group("GL", n), build_group("PGL", n)
    f = tuple(
        tuple(int(t == c) - int(c == n - 1) for c in range(n)) for t in range(n - 1)
    )
    return make_hom(gl, pgl, f, lambda i: pgl.weyl.perm_idx(gl.weyl.perm(i)))


def hom_det(n: int) -> TropGroupHom:
    gl, gl1 = build_group("GL", n), build_group("GL", 1)
    return make_hom(gl, gl1, ((1,) * n,), lambda i: gl1.weyl.identity_idx)


def ambient_signed_group(sp: TropicalGroup) -> TropicalGroup:
    """ℝ^{[±n]} ⋊ S_n^B with the signed permutations of the Sp group sp acting
    on positions (cached per sp)."""
    if not sp.family or sp.family[0] != "Sp":
        raise ValueError(f"{sp} is not a symplectic-family group")
    key = ("AmbientSp", sp)
    if key not in _GROUP_CACHE:
        n = sp.family[1]
        gen_perms = [sp.weyl.perm(g) for g in sp.weyl.simple_gens]
        gen_mats = [tuple(tuple(int(r == p[c]) for c in range(2 * n)) for r in range(2 * n)) for p in gen_perms]
        # the same group as sp.weyl, so its order is the guard
        w = weyl.from_generators(gen_mats, gen_perms, 2 * n, 2 * n, len(sp.weyl))
        _GROUP_CACHE[key] = TropicalGroup(2 * n, w, None, ("AmbientSp", n))
    return _GROUP_CACHE[key]


def hom_sp_to_ambient(sp: TropicalGroup) -> TropGroupHom:
    """Lattice map e_i ↦ e_i − e_{−i} with the identity on the Weyl group,
    into ambient_signed_group(sp) (cached per sp)."""
    key = ("Sp→AmbientSp", sp)
    if key not in _GROUP_CACHE:
        n, amb = sp.family[1], ambient_signed_group(sp)
        rows = [rootdata._e(n, i) for i in range(n)] + [rootdata._e(n, i, -1) for i in range(n)]
        _GROUP_CACHE[key] = make_hom(sp, amb, la.matrix(rows), lambda i: amb.weyl.perm_idx(sp.weyl.perm(i)))
    return _GROUP_CACHE[key]


def hom_ambient_to_gl(n: int, ambient: TropicalGroup) -> TropGroupHom:
    """Sum over sign pairs on the lattice; quotient S_n^B → S_n on the groups."""
    gl = build_group("GL", n)
    f = tuple(tuple(int(c == i or c == n + i) for c in range(2 * n)) for i in range(n))
    return make_hom(ambient, gl, f, lambda i: gl.weyl.perm_idx([p % n for p in ambient.weyl.perm(i)[:n]]))
