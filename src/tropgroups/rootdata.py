"""Root data for the classical families and G₂, with validation and π₁.

A root datum is stored in explicit integer coordinates: a pairing matrix Π
with ⟨u, v⟩ = uᵀΠv for u in character coordinates and v in cocharacter
coordinates, parallel tuples of roots and coroots (the bijection is by
index), and the indices of a fixed choice of simple roots.

Coordinate conventions for the builders:

* GL_n, Sp_2n, SO_{2n+1}: both lattices are ℤⁿ with the standard pairing.
* SL_n: cocharacters are the sum-zero lattice in the basis f_t = e_t − e_{t+1};
  characters are ℤⁿ/ℤ(1,…,1) via representatives with last coordinate 0.
* PGL_n: the mirror image of SL_n (lattices exchanged).
* SO_{2n}: characters are the even-sum sublattice of ℤⁿ, cocharacters the
  dual lattice ℤⁿ + ℤ(½,…,½), each in a fixed integer basis.  This is the
  lattice choice for which the quotient by the coroot span has invariant
  factors [4] (n odd) and [2, 2] (n even).  Coordinates are closed-form
  integers: in the character basis e_t − e_{t+1} (t < n − 1), e_{n−2} + e_{n−1}
  they are the partial sums s_t, ending in (s_{n−2} ∓ v_{n−1})/2; in the
  cocharacter basis e_i (i < n − 1), (½,…,½) they are v_i − v_{n−1} and
  2·v_{n−1}.
* G₂: cocharacters in the simple-coroot basis, characters in the dual basis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Optional

from . import intlinalg as la
from .errors import InvariantError
from .intlinalg import Mat, QuotientLattice, Vec

FAMILIES = ("GL", "SL", "PGL", "Sp", "SO_odd", "SO_even", "G2")


@dataclass(frozen=True)
class Lattice:
    rank: int
    label: str = ""
    relations: tuple[Vec, ...] = ()

    def invariant_factors(self) -> tuple[int, ...]:
        """Invariant factors of the quotient presentation (re-derivable from relations)."""
        if not self.relations:
            return ()
        ambient = len(self.relations[0])
        return QuotientLattice(ambient, self.relations).invariant_factors


@dataclass(frozen=True)
class RootDatum:
    char_lattice: Lattice
    cochar_lattice: Lattice
    pairing: Mat
    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]
    simple: tuple[int, ...]
    family: Optional[tuple[str, int]] = field(default=None, compare=False)

    @property
    def rank_char(self) -> int:
        return self.char_lattice.rank

    @property
    def rank_cochar(self) -> int:
        return self.cochar_lattice.rank

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

    def char_action_matrix(self, w_cochar: Mat) -> Mat:
        """Matrix of the same Weyl element on character coordinates.

        Determined by ⟨w·u, w·v⟩ = ⟨u, v⟩, i.e. W_M = (Π W⁻¹ Π⁻¹)ᵀ.
        """
        pinv = la.rational_inverse(self.pairing)
        winv = la.rational_inverse(w_cochar)
        m = la.transpose(la.mat_mul(la.mat_mul(self.pairing, winv), pinv))
        if not la.mat_is_integral(m):
            raise InvariantError(f"Weyl element {w_cochar} acts non-integrally on characters: {m}")
        return la.mat_to_int(m)

    def cartan_matrix(self) -> Mat:
        """C[t][j] = ⟨α_t, α̌_j⟩ over the simple roots."""
        return tuple(
            tuple(self.pair(self.roots[t], self.coroots[j]) for j in self.simple)
            for t in self.simple
        )

    def to_json(self):
        return {
            "rank_char": self.rank_char,
            "rank_cochar": self.rank_cochar,
            "pairing": [list(r) for r in self.pairing],
            "roots": [list(r) for r in self.roots],
            "coroots": [list(r) for r in self.coroots],
            "simple": list(self.simple),
            "family": list(self.family) if self.family else None,
        }


def _sorted_datum(pairs, simple_roots, pairing, char: Lattice, cochar: Lattice, family) -> RootDatum:
    """Freeze a root datum with roots sorted lexicographically."""
    pairs = sorted(set(pairs))
    roots = tuple(p[0] for p in pairs)
    coroots = tuple(p[1] for p in pairs)
    simple = tuple(roots.index(a) for a in simple_roots)
    return RootDatum(char, cochar, la.matrix(pairing), roots, coroots, simple, family)


def _e(n: int, i: int, c: int = 1) -> Vec:
    v = [0] * n
    v[i] = c
    return tuple(v)


def _gl_pairs(n: int):
    for i in range(n):
        for j in range(n):
            if i != j:
                v = la.vec_sub(_e(n, i), _e(n, j))
                yield v, v


def _sum_zero_coords(n: int, v: Vec) -> Vec:
    """Coordinates of a sum-zero vector in the basis f_t = e_t − e_{t+1}."""
    coords = []
    acc = 0
    for t in range(n - 1):
        acc += v[t]
        coords.append(acc)
    return tuple(coords)


def _quotient_coords(n: int, v: Vec) -> Vec:
    """Coordinates of v + ℤ(1,…,1) via the representative with last coordinate 0."""
    return tuple(v[t] - v[n - 1] for t in range(n - 1))


def build_root_datum(family: str, n: int = 0) -> RootDatum:
    """Construct the root datum of the given family at rank parameter n.

    n is the rank parameter: GL/SL/PGL_n act on n letters, Sp is Sp_{2n},
    SO_odd is SO_{2n+1}, SO_even is SO_{2n}; G2 takes no rank parameter, so
    its n must be 0.
    """
    if family == "GL":
        if n < 1:
            raise ValueError("GL requires n >= 1")
        std = Lattice(n, "Z^n")
        return _sorted_datum(
            list(_gl_pairs(n)),
            [la.vec_sub(_e(n, i), _e(n, i + 1)) for i in range(n - 1)],
            la.identity_matrix(n),
            std,
            std,
            ("GL", n),
        )
    if family in ("SL", "PGL"):
        if n < 2:
            raise ValueError(f"{family} requires n >= 2")
        ones = (1,) * n
        sum_zero = Lattice(n - 1, "Z^n_0")
        quotient = Lattice(n - 1, "Z^n/Z(1,...,1)", relations=(ones,))
        pairing_sl = tuple(
            tuple(int(u == v) - int(u == v + 1) for v in range(n - 1)) for u in range(n - 1)
        )
        pairs = []
        simple = []
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                v = la.vec_sub(_e(n, i), _e(n, j))
                rep = _quotient_coords(n, v)
                sz = _sum_zero_coords(n, v)
                pairs.append((rep, sz) if family == "SL" else (sz, rep))
                if j == i + 1:
                    simple.append((i, rep if family == "SL" else sz))
        simple_roots = [r for _, r in sorted(simple)]
        if family == "SL":
            return _sorted_datum(pairs, simple_roots, pairing_sl, quotient, sum_zero, ("SL", n))
        return _sorted_datum(
            pairs, simple_roots, la.transpose(pairing_sl), sum_zero, quotient, ("PGL", n)
        )
    if family == "Sp":
        if n < 1:
            raise ValueError("Sp requires n >= 1")
        pairs = []
        for i in range(n):
            pairs.append((_e(n, i, 2), _e(n, i)))
            pairs.append((_e(n, i, -2), _e(n, i, -1)))
        pairs.extend(_pm_pairs(n))
        simple = [la.vec_sub(_e(n, i), _e(n, i + 1)) for i in range(n - 1)] + [_e(n, n - 1, 2)]
        std = Lattice(n, "Z^n")
        return _sorted_datum(pairs, simple, la.identity_matrix(n), std, std, ("Sp", n))
    if family == "SO_odd":
        if n < 1:
            raise ValueError("SO_odd requires n >= 1")
        pairs = []
        for i in range(n):
            pairs.append((_e(n, i), _e(n, i, 2)))
            pairs.append((_e(n, i, -1), _e(n, i, -2)))
        pairs.extend(_pm_pairs(n))
        simple = [la.vec_sub(_e(n, i), _e(n, i + 1)) for i in range(n - 1)] + [_e(n, n - 1)]
        std = Lattice(n, "Z^n")
        return _sorted_datum(pairs, simple, la.identity_matrix(n), std, std, ("SO_odd", n))
    if family == "SO_even":
        if n < 2:
            raise ValueError("SO_even requires n >= 2")
        return _build_so_even(n)
    if family == "G2":
        if n != 0:
            raise ValueError(f"G2 takes no rank parameter, not n = {n}")
        return _build_g2()
    raise ValueError(f"unknown family {family!r}")


def _pm_pairs(n: int):
    """(±e_i ± e_j, same vector) for i ≠ j, each root listed once."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = la.vec_add(_e(n, i, si), _e(n, j, sj))
                    out.append((v, v))
    return out


def so_even_char_basis(n: int) -> Mat:
    """Columns: basis of the even-sum sublattice of ℤⁿ."""
    cols = [la.vec_sub(_e(n, t), _e(n, t + 1)) for t in range(n - 1)]
    cols.append(la.vec_add(_e(n, n - 2), _e(n, n - 1)))
    return la.from_columns(cols)


def so_even_cochar_basis(n: int) -> Mat:
    """Columns: twice the basis e_0, …, e_{n−2}, (½,…,½) of ℤⁿ + ℤ(½,…,½)."""
    return la.from_columns([_e(n, i, 2) for i in range(n - 1)] + [(1,) * n])


def _build_so_even(n: int) -> RootDatum:
    """Integer coordinates in closed form, as in the module docstring; the
    simple roots are the character basis."""

    def char_coords(v):
        sums = list(itertools.accumulate(v[:-1]))
        s, last = sums.pop(), v[-1]
        if (s + last) % 2:
            raise InvariantError(f"SO_even{n}: {v} is not in the character lattice")
        return tuple(sums + [(s - last) // 2, (s + last) // 2])

    def cochar_coords(v):
        return tuple([x - v[-1] for x in v[:-1]] + [2 * v[-1]])

    pairs = [(char_coords(v), cochar_coords(v)) for v, _ in _pm_pairs(n)]
    basis = so_even_char_basis(n)
    simple = [char_coords(v) for v in la.columns(basis)]
    # each character basis vector has an even coordinate sum, so its pairing
    # with twice a cocharacter basis vector is even
    pairing = tuple(tuple([x // 2 for x in row]) for row in la.mat_mul(la.transpose(basis), so_even_cochar_basis(n)))
    char = Lattice(n, "Q(D_n)")
    cochar = Lattice(n, "P(D_n^dual)")
    return _sorted_datum(pairs, simple, pairing, char, cochar, ("SO_even", n))


def _build_g2() -> RootDatum:
    # simple root coordinates in the basis dual to the simple coroots
    a1, ca1 = (2, -1), (1, 0)
    a2, ca2 = (-3, 2), (0, 1)
    # the roots are the orbit of the simple roots under the simple reflections;
    # pairs grows while it is walked
    simple = [(a1, ca1), (a2, ca2)]
    coroot, pairs = dict(simple), list(simple)
    for beta, cob in pairs:
        for alpha, cov in simple:
            nr = la.vec_sub(beta, la.vec_scale(la.vec_dot(beta, cov), alpha))
            nc = la.vec_sub(cob, la.vec_scale(la.vec_dot(alpha, cob), cov))
            if nr not in coroot:
                coroot[nr] = nc
                pairs.append((nr, nc))
            elif coroot[nr] != nc:
                raise InvariantError(f"inconsistent coroot closure: {nr} has coroots {coroot[nr]} and {nc}")
    if len(coroot) != 12:
        raise InvariantError(f"G2 root closure has {len(coroot)} roots, not 12")
    std = Lattice(2, "hexagonal")
    return _sorted_datum(coroot.items(), [a1, a2], la.identity_matrix(2), std, std, ("G2", 0))


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
    cinv = la.rational_inverse(rd.cartan_matrix())
    out = []
    for i in range(len(rd.simple)):
        coeffs = tuple(cinv[i][t] for t in range(len(rd.simple)))
        omega = tuple(Q(0) for _ in range(rd.rank_char))
        for c, t in zip(coeffs, rd.simple):
            omega = la.vec_add(omega, la.vec_scale(c, rd.roots[t]))
        out.append(omega)
    return tuple(out)


def levi_datum(rd: RootDatum, positions) -> RootDatum:
    """Root datum of a standard parabolic: same lattices, roots restricted to
    the rational span of the chosen simple roots (a parabolic subgroup of a
    tropical reductive group coincides with its Levi and is again reductive)."""
    chosen = [rd.simple[p] for p in sorted(set(positions))]
    keep = ()
    if chosen:
        span = la.from_columns([rd.roots[i] for i in chosen])
        keep = tuple(i for i, alpha in enumerate(rd.roots) if la.rational_solve(span, alpha) is not None)
    roots = tuple(rd.roots[i] for i in keep)
    coroots = tuple(rd.coroots[i] for i in keep)
    simple = tuple(roots.index(rd.roots[i]) for i in chosen)
    return RootDatum(rd.char_lattice, rd.cochar_lattice, rd.pairing, roots, coroots, simple, None)


def dual_datum(rd: RootDatum) -> RootDatum:
    """Swap (M, R) ↔ (M̌, Ř); the pairing transposes."""
    return RootDatum(
        rd.cochar_lattice,
        rd.char_lattice,
        la.transpose(rd.pairing),
        rd.coroots,
        rd.roots,
        rd.simple,
        None,
    )


def data_equal(a: RootDatum, b: RootDatum) -> bool:
    """Equality of the underlying data (lattice ranks, pairing, root sets)."""
    return (
        a.rank_char == b.rank_char
        and a.rank_cochar == b.rank_cochar
        and a.pairing == b.pairing
        and sorted(zip(a.roots, a.coroots)) == sorted(zip(b.roots, b.coroots))
    )
