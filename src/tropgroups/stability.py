"""Slope maps, dominance order, and slope (semi)stability of circle cocycles.

A standard parabolic subgroup is cut out by a subset of the simple roots; it
keeps the full cocharacter space and restricts the Weyl group, so on a circle
its bundles are cocycles whose monodromy lies in the sub-Weyl-group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Optional, Sequence

from . import intlinalg as la
from . import rootdata as rdmod
from .errors import InvariantError
from .circles import CircleCocycle
from .groups import TropicalGroup
from .intlinalg import QuotientLattice, Vec
from .weyl import a_type_structure


@dataclass
class ParabolicSubgroup:
    """Standard parabolic: simple-root positions, sub-Weyl-group, and π₁(P)."""

    group: TropicalGroup
    positions: tuple[int, ...]
    weyl_indices: tuple[int, ...]
    pi1: QuotientLattice

    @property
    def is_proper(self) -> bool:
        return len(self.positions) < len(self.group.datum.simple)


def parabolic_subgroup(g: TropicalGroup, positions: Sequence[int]) -> ParabolicSubgroup:
    positions = tuple(sorted(set(positions)))
    datum = g.datum
    if any(p < 0 or p >= len(datum.simple) for p in positions):
        raise ValueError("invalid simple-root position")
    sub = g.weyl.parabolic_subgroup(positions)
    coroots = [datum.coroots[datum.simple[p]] for p in positions]
    return ParabolicSubgroup(g, positions, sub, QuotientLattice(g.rank, coroots))


def slope(p: ParabolicSubgroup, lam: Sequence) -> Vec:
    """The unique φ = λ̌ − Σ c_i α̌_i with ⟨α_j, φ⟩ = 0 for all j in the subset.

    Well defined on π₁(P): shifting λ̌ by the parabolic's coroots moves only
    the c_i.  The c solve the Cartan system of the subset, which is
    invertible because simple coroots are linearly independent.
    """
    datum = p.group.datum
    lam = tuple(Q(x) for x in lam)
    if not p.positions:
        return lam
    idxs = [datum.simple[t] for t in p.positions]
    cartan = tuple(
        tuple(Q(datum.pair(datum.roots[a], datum.coroots[b])) for b in idxs) for a in idxs
    )
    rhs = tuple(Q(datum.pair(datum.roots[a], lam)) for a in idxs)
    coeffs = la.rational_solve(cartan, rhs)
    if coeffs is None:
        raise InvariantError(f"simple coroots at positions {p.positions} are not independent")
    phi = lam
    for c, b in zip(coeffs, idxs):
        phi = la.vec_sub(phi, la.vec_scale(c, datum.coroots[b]))
    return phi


def slope_of_group(g: TropicalGroup, lam: Sequence) -> Vec:
    """φ_G: the slope for the full set of simple roots."""
    return slope(parabolic_subgroup(g, range(len(g.datum.simple))), lam)


def dominance_coeffs(g: TropicalGroup, lam: Sequence, mu: Sequence) -> Optional[Vec]:
    """Coefficients of μ̌ − λ̌ in the simple-coroot basis, or None if outside the span."""
    datum = g.datum
    diff = la.vec_sub(tuple(Q(x) for x in mu), tuple(Q(x) for x in lam))
    if not datum.simple:
        return () if la.is_zero_vec(diff) else None
    basis = la.from_columns([tuple(map(Q, datum.coroots[i])) for i in datum.simple])
    coeffs = la.rational_solve(basis, diff)
    if coeffs is None:
        return None
    if la.mat_vec(basis, coeffs) != diff:
        return None
    return coeffs


def dominance_leq(g: TropicalGroup, lam: Sequence, mu: Sequence, strict: bool = False) -> bool:
    """λ̌ ≤ μ̌ iff μ̌ − λ̌ is a nonnegative combination of the simple coroots."""
    coeffs = dominance_coeffs(g, lam, mu)
    if coeffs is None or any(c < 0 for c in coeffs):
        return False
    if strict:
        return any(c > 0 for c in coeffs)
    return True


def _reduced_slopes(c: CircleCocycle, p: ParabolicSubgroup) -> dict:
    """The distinct v·m over v ∈ W with vwv⁻¹ ∈ W_P, in order of least v.  Callers
    fill a set in this order and freeze it; stability_verdict's violations follow
    the resulting iteration order."""
    if c.group is not p.group:
        raise ValueError("cocycle and parabolic belong to different groups")
    w = c.group.weyl
    sub = frozenset(p.weyl_indices)
    return dict.fromkeys(
        la.mat_vec(w.element(v).matrix, c.slope)
        for v in range(len(w))
        if w.conj(v, c.mono_idx) in sub
    )


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
    return frozenset({p.pi1.project(vm) for vm in _reduced_slopes(c, p)})


def reduction_slopes(c: CircleCocycle, p: ParabolicSubgroup) -> frozenset:
    """Slopes φ_P(λ̌_P) of all reductions of the cocycle to the parabolic."""
    return frozenset({slope(p, vm) for vm in _reduced_slopes(c, p)})


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
    phi_g = slope_of_group(g, c.slope)
    semistable = True
    stable = True
    violations = []
    for size in range(n_simple):
        for positions in itertools.combinations(range(n_simple), size):
            p = parabolic_subgroup(g, positions)
            for phi_p in reduction_slopes(c, p):
                leq = dominance_leq(g, phi_p, phi_g)
                lt = dominance_leq(g, phi_p, phi_g, strict=True)
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


def a_type_components(g: TropicalGroup) -> Optional[tuple[tuple[int, ...], ...]]:
    """Path components of the full diagram when it is of type ∏A, else None."""
    structure = a_type_structure(g.weyl, range(len(g.datum.simple)))
    return structure.components if structure is not None else None


def adjoint_degree(g: TropicalGroup, lam: Sequence[int]) -> tuple[int, ...]:
    """Image of the degree in π₁ of the adjoint group ∏ ℤ/n_i, one residue
    per type-A diagram component.

    The adjoint fundamental group of an A_{k} path is cyclic of order k+1,
    and the coweight dual to the t-th simple root (counting from 1 along the
    path) maps to t; the residue of λ̌ is Σ_t t·⟨α_t, λ̌⟩.
    """
    comps = a_type_components(g)
    if comps is None:
        raise ValueError("group is not of product-A type")
    datum = g.datum
    out = []
    for comp in comps:
        modulus = len(comp) + 1
        total = 0
        for t, pos in enumerate(comp, start=1):
            total += t * datum.pair(datum.roots[datum.simple[pos]], tuple(lam))
        out.append(total % modulus)
    return tuple(out)


def is_stable_degree(g: TropicalGroup, lam: Sequence[int]) -> bool:
    """Whether the degree has coprime residues in π₁ of the adjoint group."""
    comps = a_type_components(g)
    if comps is None:
        raise ValueError("group is not of product-A type")
    residues = adjoint_degree(g, lam)
    return all(gcd(d, len(comp) + 1) == 1 for d, comp in zip(residues, comps))


def minimal_parabolic_for_degree(g: TropicalGroup, lam: Sequence[int]) -> ParabolicSubgroup:
    """The parabolic with simple subset {i : ⟨ω_i, φ_G(λ̌) − λ̌⟩ ∉ ℤ}.

    The subset does not depend on the chosen integral lift of the degree,
    because shifting by a coroot changes each pairing by an integer.
    """
    datum = g.datum
    lam = tuple(int(x) for x in lam)
    phi_g = slope_of_group(g, lam)
    diff = la.vec_sub(phi_g, tuple(map(Q, lam)))
    weights = rdmod.fundamental_weights(datum)
    positions = tuple(
        t for t, omega in enumerate(weights) if Q(datum.pair(omega, diff)).denominator != 1
    )
    return parabolic_subgroup(g, positions)
