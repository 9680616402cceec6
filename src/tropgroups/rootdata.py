"""Root data for the classical families and G₂, with validation and π₁.

A root datum is stored in explicit integer coordinates: a pairing matrix Π
with ⟨u, v⟩ = uᵀΠv for u in character coordinates and v in cocharacter
coordinates, parallel tuples of roots and coroots (the bijection is by
index), and the indices of a fixed choice of simple roots.  The two lattices
are the integer vectors in those coordinates, so their ranks are the shape
of Π: rows for the characters, columns for the cocharacters.  Each builder
states only the simple (root, coroot) pairs and the pairing; every other
root is W-conjugate to a simple one, and one closure (_datum) reaches it.  A
standard parabolic needs no datum of its own: the stability and Weyl modules
read it off the simple-root positions.

Coordinate conventions for the builders:

* GL_n, Sp_2n, SO_{2n+1}: both lattices are ℤⁿ with the standard pairing.
* SL_n: cocharacters are the sum-zero lattice in the basis f_t = e_t − e_{t+1};
  characters are ℤⁿ/ℤ(1,…,1) via representatives with last coordinate 0.
* PGL_n: the mirror image of SL_n (lattices exchanged).
* SO_{2n}: characters are the even-sum sublattice of ℤⁿ, cocharacters the
  dual lattice ℤⁿ + ℤ(½,…,½), each in a fixed integer basis.  This is the
  lattice choice for which the quotient by the coroot span has invariant
  factors [4] (n odd) and [2, 2] (n even).  The simple roots are the
  character basis e_t − e_{t+1} (t < n − 1), e_{n−2} + e_{n−1}, so their
  coordinates are the unit vectors.  Only the simple coroots are converted:
  in the cocharacter basis e_i (i < n − 1), (½,…,½) the coordinates of v are
  the closed-form integers v_i − v_{n−1} and 2·v_{n−1}.
* G₂: cocharacters in the simple-coroot basis, characters in the dual basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import mul
from typing import Optional

from . import intlinalg as la
from .errors import InvariantError
from .intlinalg import Mat, QuotientLattice, Vec

FAMILIES = ("GL", "SL", "PGL", "Sp", "SO_odd", "SO_even", "G2")


@dataclass(frozen=True)
class RootDatum:
    pairing: Mat
    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]
    simple: tuple[int, ...]
    family: Optional[tuple[str, int]] = field(default=None, compare=False)

    @property
    def rank_cochar(self) -> int:
        return len(self.pairing[0])

    def pair(self, u: Vec, v: Vec):
        """⟨u, v⟩ for u in character and v in cocharacter coordinates."""
        return la.vec_dot(la.mat_vec(self.pairing, v), u)

    def reflect_char(self, idx: int, u: Vec) -> Vec:
        """s_α(u) = u − ⟨u, α̌⟩α for the root with index idx."""
        alpha, cov = self.roots[idx], self.coroots[idx]
        return la.vec_sub(u, la.vec_scale(self.pair(u, cov), alpha))

    def reflect_cochar(self, idx: int, v: Vec) -> Vec:
        """s_α̌(v) = v − ⟨α, v⟩α̌ for the root with index idx."""
        alpha, cov = self.roots[idx], self.coroots[idx]
        return la.vec_sub(v, la.vec_scale(self.pair(alpha, v), cov))

    def cochar_reflection_matrix(self, idx: int) -> Mat:
        """Integer matrix of s_α̌ acting on cocharacter coordinates."""
        n = self.rank_cochar
        alpha, cov = self.roots[idx], self.coroots[idx]
        weights = la.mat_vec(la.transpose(self.pairing), alpha)
        return tuple(
            tuple(int(r == c) - cov[r] * weights[c] for c in range(n)) for r in range(n)
        )

    def cartan_matrix(self) -> Mat:
        """C[t][j] = ⟨α_t, α̌_j⟩ over the simple roots."""
        return tuple(
            tuple(self.pair(self.roots[t], self.coroots[j]) for j in self.simple)
            for t in self.simple
        )


def _datum(simple_pairs, pairing, family) -> RootDatum:
    """Close the simple (root, coroot) pairs to a root datum, roots sorted
    lexicographically.

    Every positive root is reached from a simple one by steps β ↦ β + c·α with
    α simple and c = −⟨β, α̌⟩ > 0 (the reflection s_α raising β); the coroot
    steps alike, β̌ ↦ β̌ + e·α̌ with e = −⟨α, β̌⟩.  The negative roots follow.
    A root reached with two different coroots raises InvariantError.
    """
    pairing = la.matrix(pairing)
    columns = la.transpose(pairing)
    # ⟨β, α̌⟩ = β·(Π α̌) and ⟨α, β̌⟩ = (Πᵀ α)·β̌, one vector of each per simple pair
    steps = [
        (alpha, cov, tuple([sum(map(mul, row, cov)) for row in pairing]), tuple([sum(map(mul, col, alpha)) for col in columns]))
        for alpha, cov in simple_pairs
    ]
    coroot = dict(simple_pairs)
    positive = list(coroot.items())
    # positive grows while it is walked
    for beta, cob in positive:
        for alpha, cov, pcov, palpha in steps:
            c = -sum(map(mul, beta, pcov))
            if c <= 0:
                continue
            new = tuple([b + c * a for b, a in zip(beta, alpha)])
            e = -sum(map(mul, palpha, cob))
            new_cov = tuple([b + e * a for b, a in zip(cob, cov)])
            known = coroot.get(new)
            if known is None:
                coroot[new] = new_cov
                positive.append((new, new_cov))
            elif known != new_cov:
                raise InvariantError(f"inconsistent coroot closure: {new} has coroots {known} and {new_cov}")
    pairs = sorted(positive + [(tuple([-x for x in a]), tuple([-x for x in b])) for a, b in positive])
    roots = tuple([a for a, _ in pairs])
    coroots = tuple([b for _, b in pairs])
    simple = tuple([roots.index(a) for a, _ in simple_pairs])
    return RootDatum(pairing, roots, coroots, simple, family)


def _e(n: int, i: int, c: int = 1) -> Vec:
    v = [0] * n
    v[i] = c
    return tuple(v)


def _a_pairs(n: int) -> list:
    """(e_i − e_{i+1}, same vector) for i < n − 1: the simple pairs of GL_n."""
    return [(v, v) for v in (la.vec_sub(_e(n, i), _e(n, i + 1)) for i in range(n - 1))]


def build_root_datum(family: str, n: int = 0) -> RootDatum:
    """Construct the root datum of the given family at rank parameter n.

    n is the rank parameter: GL/SL/PGL_n act on n letters, Sp is Sp_{2n},
    SO_odd is SO_{2n+1}, SO_even is SO_{2n}; G2 takes no rank parameter, so
    its n must be 0.  Each family gives its simple (root, coroot) pairs and its
    pairing, in the coordinates of the module docstring; the other roots come
    from the closure.
    """
    if family == "GL":
        if n < 1:
            raise ValueError("GL requires n >= 1")
        return _datum(_a_pairs(n), la.identity_matrix(n), ("GL", n))
    if family in ("SL", "PGL"):
        if n < 2:
            raise ValueError(f"{family} requires n >= 2")
        pairing = tuple(
            tuple(int(u == v) - int(u == v + 1) for v in range(n - 1)) for u in range(n - 1)
        )
        # the simple root e_i − e_{i+1} of ℤⁿ: its representative with last
        # coordinate 0 in the quotient, f_i in the sum-zero basis
        simple = [(tuple([x - v[-1] for x in v[:-1]]), _e(n - 1, i)) for i, (v, _) in enumerate(_a_pairs(n))]
        if family == "SL":
            return _datum(simple, pairing, ("SL", n))
        return _datum([(f, r) for r, f in simple], la.transpose(pairing), ("PGL", n))
    if family in ("Sp", "SO_odd"):
        if n < 1:
            raise ValueError(f"{family} requires n >= 1")
        # Sp: the long root 2e_{n−1} with coroot e_{n−1}; SO_odd: the short
        # root e_{n−1} with coroot 2e_{n−1}
        last = (_e(n, n - 1, 2), _e(n, n - 1)) if family == "Sp" else (_e(n, n - 1), _e(n, n - 1, 2))
        return _datum(_a_pairs(n) + [last], la.identity_matrix(n), (family, n))
    if family == "SO_even":
        if n < 2:
            raise ValueError("SO_even requires n >= 2")
        # the simple roots are the character basis, so their coordinates are
        # the unit vectors; only their coroots are converted (module docstring)
        basis = so_even_char_basis(n)
        simple = [(_e(n, t), tuple([x - v[-1] for x in v[:-1]] + [2 * v[-1]])) for t, v in enumerate(la.transpose(basis))]
        # each character basis vector has an even coordinate sum, so its pairing
        # with twice a cocharacter basis vector is even
        pairing = tuple(tuple([x // 2 for x in row]) for row in la.mat_mul(la.transpose(basis), so_even_cochar_basis(n)))
        return _datum(simple, pairing, ("SO_even", n))
    if family == "G2":
        if n != 0:
            raise ValueError(f"G2 takes no rank parameter, not n = {n}")
        # simple root coordinates in the basis dual to the simple coroots
        return _datum((((2, -1), (1, 0)), ((-3, 2), (0, 1))), la.identity_matrix(2), ("G2", 0))
    raise ValueError(f"unknown family {family!r}")


def so_even_char_basis(n: int) -> Mat:
    """Columns: basis of the even-sum sublattice of ℤⁿ."""
    cols = [la.vec_sub(_e(n, t), _e(n, t + 1)) for t in range(n - 1)]
    cols.append(la.vec_add(_e(n, n - 2), _e(n, n - 1)))
    return la.transpose(cols)


def so_even_cochar_basis(n: int) -> Mat:
    """Columns: twice the basis e_0, …, e_{n−2}, (½,…,½) of ℤⁿ + ℤ(½,…,½)."""
    return la.transpose([_e(n, i, 2) for i in range(n - 1)] + [(1,) * n])


def validate_root_datum(rd: RootDatum) -> list[str]:
    """Check the root-datum axioms; returns a list of violation messages."""
    violations = []
    if len(rd.roots) != len(rd.coroots):
        violations.append("roots and coroots are not in bijection")
        return violations
    if len(set(rd.roots)) != len(rd.roots) or len(set(rd.coroots)) != len(rd.coroots):
        violations.append("duplicate roots or coroots")
    for alpha, cov in zip(rd.roots, rd.coroots):
        if rd.pair(alpha, cov) != 2:
            violations.append(f"pairing axiom fails: <{alpha},{cov}> != 2")
    root_set = set(rd.roots)
    coroot_set = set(rd.coroots)
    for idx in range(len(rd.roots)):
        if set(rd.reflect_char(idx, beta) for beta in rd.roots) != root_set:
            violations.append(f"reflection s_{rd.roots[idx]} does not stabilize the roots")
        if set(rd.reflect_cochar(idx, cob) for cob in rd.coroots) != coroot_set:
            violations.append(f"reflection s_{rd.roots[idx]} does not stabilize the coroots")
    for alpha in rd.roots:
        if la.vec_scale(2, alpha) in root_set:
            violations.append(f"not reduced: 2*{alpha} is a root")
    return violations


def fundamental_group(rd: RootDatum) -> QuotientLattice:
    """π₁ = cocharacters modulo the coroot span, with SNF projection."""
    return QuotientLattice(rd.rank_cochar, rd.coroots)


def fundamental_weights(rd: RootDatum) -> tuple[tuple[Q, ...], ...]:
    """ω_i in the root span with ⟨ω_i, α̌_j⟩ = δ_ij over the simple coroots."""
    inv, d = la.rref_inverse(rd.cartan_matrix())
    simple_roots = la.transpose([rd.roots[t] for t in rd.simple])
    return tuple([tuple([Q(x, d) for x in la.mat_vec(simple_roots, row)]) for row in inv])


def dual_datum(rd: RootDatum) -> RootDatum:
    """Swap (M, R) ↔ (M̌, Ř); the pairing transposes."""
    return RootDatum(la.transpose(rd.pairing), rd.coroots, rd.roots, rd.simple, None)
