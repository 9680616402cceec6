"""Slope maps, dominance order, and slope (semi)stability of circle cocycles.

A standard parabolic subgroup is cut out by a subset of the simple roots; it
keeps the full cocharacter space and restricts the Weyl group, so on a circle
its bundles are cocycles whose monodromy lies in the sub-Weyl-group.

Everything that depends only on the group is built by the group and kept
on it (see ``groups``): each standard parabolic from
``TropicalGroup.parabolic``, with π₁(P) and its slope matrix
M_P = I − Č_P·K_P⁻¹·A_P (so a slope is one matrix-vector product), and the
dominance frame ``TropicalGroup.coroot_frame``, the simple-coroot basis Č
with its left inverse K⁻¹·A, which also gives the minimal parabolic of a
degree.  Each is an integer matrix N over one denominator d.  W_P, its cosets
and the classes it meets are those of ``WeylGroup.parabolic``.  φ_P, [·]_P
and the test v·w·v⁻¹ ∈ W_P are constant on each left coset W_P·v, so a
verdict reads the reductions to P from the least index of each coset, not
from all of W.  Some v·w·v⁻¹ lies in W_P only if W_P meets the conjugacy
class of w, so a verdict skips every parabolic that misses the class of w:
no conjugate is formed for it (the torus parabolic, whose cosets are all of
W, runs only for w = 1).

The dominance order is decided on integers, by one test (``_dominance``)
that the verdict and ``dominance_leq`` share: μ̌ − λ̌ = y/s lies in the
coroot span iff Č·(L·y) = e·y for the left inverse L/e, and its
coefficients have the signs of L·y (the minimal parabolic of a degree
reads their residues).  A verdict writes φ_G − φ_P as y/(d_G·d_P) with
y = d_P·N_G·m − d_G·N_P·(v·m), reading N_P·(v·m) back off φ_P, so it makes
no Fraction for the difference or the coefficients.  Fractions are made for
the payload only: φ_G once per verdict, and φ_P once per reduction, whose
set fixes the order in which a parabolic's violations are listed
(``_slopes``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Sequence

from . import intlinalg as la
from .errors import InvariantError
from .circles import CircleCocycle
from .groups import ParabolicSubgroup, TropicalGroup
from .intlinalg import Vec
from .semiring import checked_integer, checked_rational, checked_vector


def slope(p: ParabolicSubgroup, lam: Sequence) -> Vec:
    """The unique φ = λ̌ − Σ c_i α̌_i with ⟨α_j, φ⟩ = 0 for all j in the subset,
    for λ̌ a list of rationals of the rank, each read by checked_rational.

    Well defined on π₁(P): shifting λ̌ by the parabolic's coroots moves only
    the c_i.  The c solve the Cartan system of the subset, which is
    invertible because simple coroots are linearly independent; the solve is
    folded into the parabolic's slope matrix.
    """
    lam, s = la.integer_numerators(checked_vector("lam", lam, p.group.rank, checked_rational))
    num, d = p.slope_matrix
    return tuple([Q(la.vec_dot(row, lam), d * s) for row in num])


def _dominance(g: TropicalGroup, y: Sequence[int]) -> tuple[bool, bool]:
    """(λ̌ ≤ μ̌, λ̌ < μ̌) for μ̌ − λ̌ = y/s with integer y and any s > 0: λ̌ ≤ μ̌
    iff μ̌ − λ̌ lies in the coroot span with coefficients X/(e·s) ≥ 0, X from
    ``la.solve_scaled`` through the coroot frame, and λ̌ < μ̌ iff moreover X ≠ 0."""
    x = la.solve_scaled(*g.coroot_frame, y)
    if x is None or any(v < 0 for v in x):
        return False, False
    return True, any(x)


def dominance_leq(g: TropicalGroup, lam: Sequence, mu: Sequence, strict: bool = False) -> bool:
    """λ̌ ≤ μ̌ iff μ̌ − λ̌ is a nonnegative combination of the simple coroots,
    for λ̌ and μ̌ lists of rationals of the rank, each read by checked_rational."""
    lam = checked_vector("lam", lam, g.rank, checked_rational)
    mu = checked_vector("mu", mu, g.rank, checked_rational)
    leq, lt = _dominance(g, la.integer_numerators(la.vec_sub(mu, lam))[0])
    return lt if strict else leq


def _conjugation_pass(c: CircleCocycle) -> tuple:
    """v ↦ v·w·v⁻¹ and v ↦ v·m, computed at most once per v, on demand."""
    w = c.group.weyl
    conj = functools.cache(lambda v: w.conj(v, c.mono_idx))
    return conj, functools.cache(lambda v: la.mat_vec(w.element(v).matrix, c.slope))


def _reduced_slopes(c: CircleCocycle, p: ParabolicSubgroup, scan: tuple) -> dict:
    """The distinct v·m over coset representatives v with vwv⁻¹ ∈ W_P, in order of
    v, as integer vectors; φ_P and [·]_P of these give their values in the
    order of a scan of W, which is the order in which callers fill their
    sets.  None of them exists, and no conjugate is formed, when W_P misses
    the conjugacy class of w."""
    if c.group is not p.group:
        raise ValueError("cocycle and parabolic belong to different groups")
    wp = p.weyl
    if c.group.weyl.class_id[c.mono_idx] not in wp.classes:
        return {}
    conj, moved = scan
    members = wp.members
    return dict.fromkeys(moved(v) for v in wp.cosets if conj(v) in members)


def reduction_degrees(c: CircleCocycle, p: ParabolicSubgroup) -> frozenset:
    """Degrees in π₁(P) of the reductions of the cocycle to the parabolic.

    Derivation of the finite formula: a reduction of (m, α, w) to P is a
    gauge-equivalent cocycle with monodromy in W_P, i.e. a gauge (k, β, v)
    with w' = vwv⁻¹ ∈ W_P; its slope is m' = k + v·m − w'·k.  In π₁(P) the
    term k − w'·k dies, because w'·k − k lies in the span of the parabolic's
    simple coroots for every w' ∈ W_P (induction on a word in the generating
    reflections: s_α·k − k = −⟨α, k⟩α̌).  The offset equation always has a
    solution β for any k (over ℝ the offsets form a torsor), so the set of
    reduction degrees is exactly {[v·m]_P : v ∈ W, vwv⁻¹ ∈ W_P}.
    """
    return frozenset({p.pi1.project(vm) for vm in _reduced_slopes(c, p, _conjugation_pass(c))})


def _slopes(c: CircleCocycle, p: ParabolicSubgroup, scan: tuple) -> frozenset:
    """φ_P of each distinct reduction to P, a Fraction tuple.

    The verdict lists P's violations in the iteration order of this set, as
    it has always been built: one set comprehension in scan order.  That
    order rests on how the set is built, not only on its keys: a frozenset
    of a dict sizes its table up front and lists them in another order.
    """
    num, d = p.slope_matrix
    return frozenset({tuple([Q(x, d) for x in la.mat_vec(num, vm)]) for vm in _reduced_slopes(c, p, scan)})


@dataclass(frozen=True)
class StabilityVerdict:
    semistable: bool
    stable: bool
    violations: tuple

    def to_json(self):
        return {
            "semistable": self.semistable,
            "stable": self.stable,
            "violations": [
                {
                    "positions": list(v[0]),
                    "slope_P": [str(x) for x in v[1]],
                    "slope_G": [str(x) for x in v[2]],
                    "strict_only": v[3],
                }
                for v in self.violations
            ],
        }


def stability_verdict(c: CircleCocycle) -> StabilityVerdict:
    """Check φ_P(λ̌_P) ≤ φ_G(λ̌_G) (resp. <) over every proper standard
    parabolic and every reduction degree; vacuous quantification is True."""
    g = c.group
    n_simple = len(g.datum.simple)
    num_g, d_g = g.parabolic(range(n_simple)).slope_matrix
    phi_g_num = la.mat_vec(num_g, c.slope)
    phi_g = tuple([Q(x, d_g) for x in phi_g_num])
    scan = _conjugation_pass(c)
    semistable = True
    stable = True
    violations = []
    for size in range(n_simple):
        for positions in itertools.combinations(range(n_simple), size):
            p = g.parabolic(positions)
            d_p = p.slope_matrix[1]
            scaled_g = [d_p * x for x in phi_g_num]
            for phi_p in _slopes(c, p, scan):
                # φ_G − φ_P = y/(d_G·d_P), with N_P·(v·m) read back off φ_P
                y = [a - d_g * x.numerator * (d_p // x.denominator) for a, x in zip(scaled_g, phi_p)]
                leq, lt = _dominance(g, y)
                if not leq:
                    semistable = False
                    stable = False
                    violations.append((positions, phi_p, phi_g, False))
                elif not lt:
                    stable = False
                    violations.append((positions, phi_p, phi_g, True))
    return StabilityVerdict(semistable, stable, tuple(violations))


def is_semistable(c: CircleCocycle) -> bool:
    return stability_verdict(c).semistable


def is_stable(c: CircleCocycle) -> bool:
    return stability_verdict(c).stable


# ---------------------------------------------------------------------------
# stable degrees and the minimal parabolic of a degree
# ---------------------------------------------------------------------------


def _adjoint_residues(g: TropicalGroup, lam: Sequence[int]) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(residues, paths): the residue of λ̌ per path of the ∏A diagram, read once.

    The adjoint fundamental group of an A_{k} path is cyclic of order k+1,
    and the coweight dual to the t-th simple root (counting from 1 along the
    path) maps to t; the residue of λ̌ is Σ_t t·⟨α_t, λ̌⟩.
    """
    lam = checked_vector("lam", lam, g.rank, checked_integer)
    paths = g.weyl.parabolic(range(len(g.datum.simple))).paths
    if paths is None:
        raise ValueError("group is not of product-A type")
    datum = g.datum
    out = []
    for path in paths:
        total = 0
        for t, pos in enumerate(path, start=1):
            total += t * datum.pair(datum.roots[datum.simple[pos]], lam)
        out.append(total % (len(path) + 1))
    return tuple(out), paths


def adjoint_degree(g: TropicalGroup, lam: Sequence[int]) -> tuple[int, ...]:
    """Image of the degree in π₁ of the adjoint group ∏ ℤ/n_i, one residue
    per type-A diagram component (a ValueError unless g is of type ∏A)."""
    return _adjoint_residues(g, lam)[0]


def is_stable_degree(g: TropicalGroup, lam: Sequence[int]) -> bool:
    """Whether the degree has coprime residues in π₁ of the adjoint group."""
    residues, paths = _adjoint_residues(g, lam)
    return all(gcd(d, len(path) + 1) == 1 for d, path in zip(residues, paths))


def minimal_parabolic_for_degree(g: TropicalGroup, lam: Sequence[int]) -> ParabolicSubgroup:
    """The parabolic with simple subset {i : c_i ∉ ℤ} for λ̌ − φ_G(λ̌) = Σ c_i α̌_i,
    that is ⟨ω_i, λ̌ − φ_G(λ̌)⟩ ∉ ℤ.  The subset does not depend on the chosen
    integral lift of the degree: shifting by a coroot moves each c_i by an integer.

    On integers: with φ_G = N_G/d_G, λ̌ − φ_G(λ̌) = y/d_G for y = d_G·λ̌ − N_G·λ̌,
    and c_i = X_i/(e·d_G) for X = L·y (``la.solve_scaled`` through the coroot frame).
    """
    lam = checked_vector("lam", lam, g.rank, checked_integer)
    num, d_g = g.parabolic(range(len(g.datum.simple))).slope_matrix
    x = la.solve_scaled(*g.coroot_frame, [d_g * a - b for a, b in zip(lam, la.mat_vec(num, lam))])
    if x is None:
        raise InvariantError(f"λ̌ − φ_G(λ̌) for λ̌ = {list(lam)} lies outside the coroot span of {g!r}")
    scale = g.coroot_frame[1][1] * d_g
    return g.parabolic([t for t, v in enumerate(x) if v % scale])
