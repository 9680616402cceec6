"""Principal bundles on a metric circle ℝ/jℤ as Čech cocycles (m, α, w).

A cocycle is a slope m in the cocharacter lattice, a rational offset α, and a
monodromy w in the Weyl group, computed against the two-vertex cover of the
circle.  Two cocycles are equivalent iff they differ by a gauge
(k, β, v) ∈ (M̌ × M̌⊗ℚ) ⋊ W acting by

    (m, α, w) ↦ (k + v·m − vwv⁻¹·k,  β + v·α − vwv⁻¹·(β + jk),  vwv⁻¹).

The isomorphism test below decides this relation exactly.  The candidate v
are the conjugators of the two monodromies, one coset of a centralizer read
off the class transversal of the Weyl group.  Since
ℚʳ = ker(1 − w₂) ⊕ im(1 − w₂), for each candidate v the slope equation fixes
the image component of k and the offset equation fixes its kernel component,
so k is unique over ℚ.  Both components are orbit sums under w₂: the group
inverse of 1 − w₂ applied to the slope difference, and the orbit mean of the
offset difference.  The integrality of k is the remaining condition, tested
on integer numerators; the orbit sums are taken once per pair, and each v
moves them by its matrix.  The gauge action itself works on the integer
numerators of α, β and j over one denominator.

One moduli component lies over each monodromy class [w]; it is described by
the lattice M̌/(1 − w)M̌, whose free rank is the torus rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Optional, Sequence

from . import intlinalg as la
from . import semiring
from .errors import InvariantError
from .groups import ParentMismatchError, TropGroupHom, TropicalGroup
from .intlinalg import Vec
from .permutations import cycles_of, sign_involution


@dataclass(frozen=True)
class CircleCocycle:
    """A bundle on the circle of circumference length, over the given group."""

    group: TropicalGroup
    slope: tuple[int, ...]
    offset: tuple[Q, ...]
    mono_idx: int
    length: Q

    def to_json(self):
        return {
            "m": list(self.slope),
            "alpha": [semiring.rational_to_str(x) for x in self.offset],
            "w": self.mono_idx,
            "j": semiring.rational_to_str(self.length),
        }


def cocycle(group: TropicalGroup, m: Sequence, alpha: Sequence, w, j) -> CircleCocycle:
    """The cocycle with every field checked: integral m and rational α of the
    group's rank, w a Weyl element index, and a positive j."""
    w_idx = group.weyl.check_idx("w", w)
    m = semiring.checked_vector("m", m, group.rank, semiring.checked_integer)
    alpha = semiring.checked_vector("alpha", alpha, group.rank, semiring.checked_rational)
    return CircleCocycle(group, m, alpha, w_idx, checked_length(j))


def checked_length(j) -> Q:
    """j read by checked_rational; a ValueError naming j unless it is positive."""
    jq = semiring.checked_rational("j", j)
    if jq <= 0:
        raise ValueError(f"field 'j': circle length must be positive, not {jq}")
    return jq


def cocycle_from_json(group: TropicalGroup, data) -> CircleCocycle:
    if not isinstance(data, dict):
        raise ValueError("a cocycle must be a JSON object")
    missing = [key for key in ("m", "alpha", "w", "j") if key not in data]
    if missing:
        raise ValueError(f"cocycle is missing field(s) {', '.join(map(repr, missing))}")
    return cocycle(group, data["m"], data["alpha"], data["w"], data["j"])


@dataclass(frozen=True)
class GaugeTriple:
    """A gauge (k, β, v): integral k, rational β, and a Weyl element index."""

    k: tuple[int, ...]
    beta: tuple[Q, ...]
    v_idx: int

    def to_json(self):
        return {
            "k": list(self.k),
            "beta": [semiring.rational_to_str(x) for x in self.beta],
            "v": self.v_idx,
        }


def compose_gauges(c: CircleCocycle, second: GaugeTriple, first: GaugeTriple) -> GaugeTriple:
    """The single gauge equal to applying `first` then `second`.

    Gauge triples compose by the plain semidirect-product law of
    (M̌ × M̌⊗ℚ) ⋊ W; the j-twist enters only when a gauge acts on a cocycle.
    """
    w = c.group.weyl
    v2, v1 = w.check_idx("v", second.v_idx), w.check_idx("v", first.v_idx)
    vmat = w.matrices[v2]
    k = la.vec_add(second.k, la.mat_vec(vmat, first.k))
    beta = la.vec_add(second.beta, la.mat_vec(vmat, first.beta))
    return GaugeTriple(tuple(k), tuple(beta), w.mul(v2, v1))


def gauge_transform(c: CircleCocycle, k: Sequence[int], beta: Sequence, v) -> CircleCocycle:
    """Apply the gauge (k, β, v) to the cocycle, with every field checked as
    cocycle checks m, α and w: integral k and rational β of the group's rank,
    and v a Weyl element index.

    The monodromy v·w·v⁻¹ is two products.  The offset is computed on the
    integer numerators of α, β and j over one denominator d, so the only
    Fractions made are its r entries."""
    w, rank = c.group.weyl, c.group.rank
    v_idx = w.check_idx("v", v)
    k = semiring.checked_vector("k", k, rank, semiring.checked_integer)
    beta = semiring.checked_vector("beta", beta, rank, semiring.checked_rational)
    w2_idx = w.mul(w.mul(v_idx, c.mono_idx), w.inverse[v_idx])
    vmat = w.matrices[v_idx]
    w2mat = w.matrices[w2_idx]
    m = la.vec_add(k, la.vec_sub(la.mat_vec(vmat, c.slope), la.mat_vec(w2mat, k)))
    nums, d = la.integer_numerators(c.offset + beta + (c.length,))
    n_alpha, n_beta, jd = nums[:rank], nums[rank : 2 * rank], nums[-1]  # jd = j·d
    shifted = [b + jd * x for b, x in zip(n_beta, k)]  # d·(β + j·k)
    n_out = la.vec_add(n_beta, la.vec_sub(la.mat_vec(vmat, n_alpha), la.mat_vec(w2mat, shifted)))
    return CircleCocycle(c.group, m, tuple([Q(x, d) for x in n_out]), w2_idx, c.length)


def degree(c: CircleCocycle) -> tuple[int, ...]:
    """Image of the slope in π₁ = M̌/⟨Ř⟩, in reduced SNF coordinates."""
    return c.group.pi1.project(c.slope)


def pushforward(f: TropGroupHom, c: CircleCocycle) -> CircleCocycle:
    """Componentwise image (f(m), f(α), φ(w)) of the cocycle."""
    if c.group is not f.source:
        raise ParentMismatchError("cocycle does not belong to the source group")
    fm = la.mat_vec(f.lattice_map, c.slope)
    fa = la.mat_vec(f.lattice_map, c.offset)
    return CircleCocycle(f.target, fm, fa, f.weyl_map[c.mono_idx], c.length)


def isomorphism_witness(a: CircleCocycle, b: CircleCocycle) -> Optional[GaugeTriple]:
    """A gauge carrying a to b, or None; deterministic (least v wins).

    The v with v·w_a·v⁻¹ = w_b are the coset t_b·C(rep)·t_a⁻¹ of
    ``WeylGroup.conjugators``, tried in index order; monodromies from two
    conjugacy classes have none, so such a pair is None at once.  For each v,
    writing w₂ = w_b and A = 1 − w₂:
      slope:  A·k = r,             r = m_b − v·m_a
      offset: A·β = t + j·w₂·k,    t = α_b − v·α_a
    Let P·x be the mean of the orbit of x under w₂, the projection onto
    ker A along im A, and A^# the group inverse of A, which inverts A on
    im A and vanishes on ker A.  The slope equation is solvable over ℚ iff
    P·r = 0, with solutions A^#·r + ker A.  The offset equation is solvable
    iff P·(t + j·w₂·k) = 0, that is P·k = −P·t/j as P·w₂ = P.  So ker A
    meeting im A only in 0 pins k to the single rational point
    k = A^#·r − P·t/j, and a witness for v exists iff that k is integral.

    The offsets are written once as integer numerators N over one common
    denominator d, so t = T/d with T = N_b − v·N_a.  P and A^# are weighted
    sums over the powers w₂ⁱ, i below the order n of w₂, and w₂ⁱ·v = v·w_aⁱ,
    so each sum of r or T is the sum of m_b or N_b under w_b minus v times
    that of m_a or N_a under w_a.  Those sums come from one orbit walk each,
    once per call; each v then costs three integer matrix-vector products,
    k = A^#·r − P·T/(d·j) is tested on integers, and Fractions enter only for
    the v whose k is integral.
    """
    if a.group is not b.group:
        raise ParentMismatchError("cocycles belong to different groups")
    if a.length != b.length:
        raise ValueError("cocycles live on circles of different lengths")
    w = a.group.weyl
    conjugators = w.conjugators(a.mono_idx, b.mono_idx)
    if not conjugators:
        return None
    j = a.length
    wa, wb = w.matrices[a.mono_idx], w.matrices[b.mono_idx]
    nums, d = la.integer_numerators(a.offset + b.offset)
    na, nb = nums[: a.group.rank], nums[a.group.rank :]
    n = w.order_of(a.mono_idx)  # that of w_b too; each orbit period divides it

    def sums(mat, x):  # over n steps: n/p times the sums over the orbit period p
        p, s, g = la.orbit_sums(mat, x)
        return la.vec_scale(n // p, s), la.vec_scale(n // p, g)

    (ma_sum, ma_inv), (mb_sum, mb_inv) = sums(wa, a.slope), sums(wb, b.slope)
    na_sum, nb_sum = sums(wa, na)[0], sums(wb, nb)[0]
    # k = r_inv/2n − t_sum/(n·d·j), over the common denominator 2n·d·j
    scale, den = d * j.numerator, 2 * n * d * j.numerator
    for v_idx in conjugators:
        vmat = w.matrices[v_idx]
        if la.mat_vec(vmat, ma_sum) != mb_sum:  # P·r ≠ 0
            continue
        r_inv = la.vec_sub(mb_inv, la.mat_vec(vmat, ma_inv))
        t_sum = la.vec_sub(nb_sum, la.mat_vec(vmat, na_sum))
        k = [x * scale - 2 * j.denominator * y for x, y in zip(r_inv, t_sum)]
        if any(x % den for x in k):
            continue
        k = tuple([x // den for x in k])
        t = la.vec_sub(b.offset, la.mat_vec(vmat, a.offset))
        beta_rhs = la.vec_add(t, la.vec_scale(j, la.mat_vec(wb, k)))
        beta = la.rref_solve(la.mat_sub(la.identity_matrix(len(wb)), wb), beta_rhs)
        if beta is None:
            raise InvariantError(f"offset equation (1 − w₂)·β = {beta_rhs} is unsolvable for v = {v_idx}")
        witness = GaugeTriple(k, tuple(beta), v_idx)
        if gauge_transform(a, witness.k, witness.beta, witness.v_idx) != b:
            raise InvariantError(f"witness {witness.to_json()} does not carry {a.to_json()} to {b.to_json()}")
        return witness
    return None


def are_isomorphic(a: CircleCocycle, b: CircleCocycle) -> bool:
    return isomorphism_witness(a, b) is not None


# ---------------------------------------------------------------------------
# component classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentDescription:
    """One connected component of the moduli space, indexed by a monodromy class."""

    class_rep: int
    class_size: int
    torus_rank: int
    invariant_factors: tuple[int, ...]
    centralizer_order: int
    degree_fiber: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def component_size(self) -> Optional[int]:
        """Number of points when finite (no torus part), else None."""
        if self.torus_rank:
            return None
        size = 1
        for d in self.invariant_factors:
            size *= d
        return size

    def to_json(self):
        return {
            "class_rep": self.class_rep,
            "class_size": self.class_size,
            "torus_rank": self.torus_rank,
            "invariant_factors": list(self.invariant_factors),
            "centralizer_order": self.centralizer_order,
            "degree_fiber": [
                {"residue": list(r), "degree": list(d)} for r, d in self.degree_fiber
            ],
        }


def _cycle_quotient(g: TropicalGroup, w_idx: int) -> la.QuotientLattice:
    """The lattice M̌/(1 − w)M̌ of slopes modulo the gauge by k, spanned by
    the columns e_c − w·e_c of 1 − w."""
    cols = [[-x for x in col] for col in zip(*g.weyl.matrices[w_idx])]
    for c, col in enumerate(cols):
        col[c] += 1
    return la.QuotientLattice(g.rank, cols)


def _component(g: TropicalGroup, cls: tuple[int, ...]) -> ComponentDescription:
    quotient = _cycle_quotient(g, cls[0])
    fiber = ()
    if quotient.order is not None:
        # the lift of the torsion index z is u⁻¹·z, which projects to z itself,
        # and representatives() runs through the z in this order
        residues = itertools.product(*[range(e) for e in quotient.torsion])
        fiber = tuple(zip(residues, map(g.pi1.project, quotient.representatives())))
    return ComponentDescription(
        class_rep=cls[0],
        class_size=len(cls),
        # 1 − w is square, so rank ker(1 − w) is the free rank of its cokernel
        torus_rank=quotient.free_rank,
        invariant_factors=quotient.invariant_factors,
        centralizer_order=len(g.weyl) // len(cls),  # orbit–stabilizer
        degree_fiber=fiber,
    )


def classify_components(g: TropicalGroup) -> tuple[ComponentDescription, ...]:
    """One component per conjugacy class [w]: torus rank = rank ker(1 − w),
    discrete invariants = invariant factors of M̌/(1 − w)M̌, plus the residual
    centralizer order and the degree of each discrete residue."""
    return tuple(_component(g, cls) for cls in g.weyl.conjugacy_classes())


def component_for_class(g: TropicalGroup, w_idx: int) -> ComponentDescription:
    return _component(g, g.weyl.class_of(w_idx))


def slope_residues(g: TropicalGroup, w_idx: int) -> tuple[Vec, ...]:
    """Integral slope representatives for M̌/(1 − w)M̌, one per class.  A
    ValueError naming w unless it is an index whose quotient is finite, that
    is, unless w fixes no nonzero cocharacter."""
    w = g.weyl.check_idx("w", w_idx)
    quotient = _cycle_quotient(g, w)
    if quotient.free_rank:
        raise ValueError(
            f"field 'w': Weyl element {w} fixes a rank-{quotient.free_rank} sublattice of cocharacters, "
            "so M̌/(1 − w)M̌ is infinite and has no finite set of slope residues"
        )
    return quotient.representatives()


# ---------------------------------------------------------------------------
# multi-line bundles for the general-linear and symplectic models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverComponent:
    """A circle component of the cover: the cycle of sheets it carries.

    jacobian is Σα over the cycle, listed from its least sheet, mod its
    length ℓ·j.  It is not an isomorphism invariant: the GL₂ cocycle
    (m, α, w) = ((0, 0), (0, 0), swap) and its gauge by k = (1, 0) are
    isomorphic, and their one component gets jacobian 0 and 1.
    """

    sheets: tuple[int, ...]
    length: Q
    line_degree: int
    jacobian: Q

    def to_json(self):
        return {
            "sheets": list(self.sheets),
            "length": semiring.rational_to_str(self.length),
            "degree": self.line_degree,
            "jacobian": semiring.rational_to_str(self.jacobian),
        }


@dataclass(frozen=True)
class MultiLineBundle:
    """Cover components, and for a symplectic bundle the involution that
    pairs opposite sheets."""

    components: tuple[CoverComponent, ...]
    involution: Optional[tuple[int, ...]] = None

    def to_json(self):
        """With an involution, "violations" lists the quotient-cover components
        whose paired line bundle is not trivial.  It is always empty: the
        sheets of the Sp model carry Y·m and Y·α with Y = (I; −I), so opposite
        sheets carry x and −x and every sum over a pair is 0."""
        data = {"components": [c.to_json() for c in self.components]}
        if self.involution is not None:
            data["involution"] = list(self.involution)
            data["violations"] = []
        return data


def _reduce_mod(x: Q, modulus: Q) -> Q:
    return x - math.floor(x / modulus) * modulus


def multiline_of(m: Sequence, alpha: Sequence, perm: Sequence[int], j: Q) -> tuple[CoverComponent, ...]:
    """Cover components from the cycles of the permutation: each cycle of
    length ℓ is a circle of length ℓ·j carrying the line bundle with degree
    the cycle sum of m and Jacobian coordinate Σα from the cycle's least
    sheet mod ℓ·j, which is not an isomorphism invariant (CoverComponent).
    m, α and j are read as cocycle reads them, m and α with one entry per
    sheet, and the permutation as gen_perm reads it."""
    perm = semiring.checked_perm(perm, len(perm))
    m = semiring.checked_vector("m", m, len(perm), semiring.checked_integer)
    alpha = semiring.checked_vector("alpha", alpha, len(perm), semiring.checked_rational)
    j = checked_length(j)
    comps = []
    for cyc in cycles_of(perm):
        length = j * len(cyc)
        deg = sum(m[i] for i in cyc)
        jac = _reduce_mod(sum((alpha[i] for i in cyc), Q(0)), length)
        comps.append(CoverComponent(cyc, length, deg, jac))
    return tuple(comps)


def to_multiline(c: CircleCocycle) -> MultiLineBundle:
    """Multi-line bundle of a cocycle over a general-linear family group."""
    family = c.group.family[0] if c.group.family else None
    if family in ("SL", "PGL"):
        raise ValueError("use the standard inclusion into GL first")
    if family != "GL":
        raise ValueError("multi-line decomposition needs a general-linear model")
    perm = c.group.weyl.perm(c.mono_idx)
    return MultiLineBundle(multiline_of(c.slope, c.offset, perm, c.length))


def sp_structure(c: CircleCocycle) -> MultiLineBundle:
    """Multi-line bundle with involution of a symplectic-family cocycle.

    Read off the Sp matrix model: the 2n sheets carry Y·m and Y·α for the
    model map Y = (I; −I), and the cover is the cycle decomposition of the
    signed permutation σ_w of the model.  The involution pairs opposite
    sheets; the induced bundle on the quotient cover is trivial by the form
    of Y (MultiLineBundle.to_json).
    """
    if not c.group.family or c.group.family[0] != "Sp":
        raise ValueError("cocycle is not over a symplectic-family group")
    num, _ = c.group.model  # d = 1
    m, alpha = la.mat_vec(num, c.slope), la.mat_vec(num, c.offset)
    perm = c.group.weyl.perm(c.mono_idx)
    return MultiLineBundle(multiline_of(m, alpha, perm, c.length), involution=sign_involution(len(perm)))
