"""Finite Weyl groups as integer matrices on cocharacter coordinates.

Every group carries a faithful permutation model, which drives
multiplication; the matrices give the action on the lattice.  Groups are
enumerated by breadth-first closure of their generators and frozen in
lexicographic matrix order, so element indices are deterministic and
serializable.  Conjugacy classes, centralizers, parabolic subgroups,
normalizers, and the indecomposability/relative-Weyl machinery for parabolic
subgroups whose diagram is a product of type-A paths all work on indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import intlinalg as la
from .intlinalg import Mat
from .permutations import compose_perm, cycles_of, identity_perm, invert_perm, perm_sign, transposition
from .rootdata import RootDatum

DEFAULT_GUARD = 10_000


class GuardExceededError(RuntimeError):
    """Raised when group enumeration exceeds the size guard."""


@dataclass(frozen=True)
class WeylElement:
    matrix: Mat


class WeylGroup:
    """A finite matrix group with deterministic element ordering; perms[i] is
    element i in the faithful permutation model that products are looked up in."""

    def __init__(self, datum: Optional[RootDatum], elements, gen_indices, perms):
        self.datum = datum
        self.elements: tuple[WeylElement, ...] = tuple(elements)
        self.simple_gens: tuple[int, ...] = tuple(gen_indices)
        self.perms: tuple[tuple[int, ...], ...] = tuple(perms)
        self._index = {w.matrix: i for i, w in enumerate(self.elements)}
        self._by_perm = {p: i for i, p in enumerate(self.perms)}
        if len(self._by_perm) != len(self.elements):
            raise AssertionError("permutation model is not faithful")
        self.identity_idx = self._index[la.identity_matrix(self.rank)]
        self._classes = None

    @property
    def rank(self) -> int:
        return len(self.elements[0].matrix)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def idx(self, w) -> int:
        key = w.matrix if isinstance(w, WeylElement) else la.matrix(w)
        if key not in self._index:
            raise ValueError("element not in group")
        return self._index[key]

    def perm_idx(self, perm: Sequence[int]) -> int:
        """Index of the element with the given permutation."""
        i = self._by_perm.get(tuple(perm))
        if i is None:
            raise ValueError("permutation is not in the group")
        return i

    def element(self, i: int) -> WeylElement:
        return self.elements[i]

    def mul(self, i: int, j: int) -> int:
        return self._by_perm[compose_perm(self.perms[i], self.perms[j])]

    def inv(self, i: int) -> int:
        return self._by_perm[invert_perm(self.perms[i])]

    def conj(self, v: int, x: int) -> int:
        """Index of v·x·v⁻¹."""
        return self.mul(self.mul(v, x), self.inv(v))

    def order_of(self, i: int) -> int:
        return la.matrix_order(self.elements[i].matrix)

    def perm(self, i: int) -> tuple[int, ...]:
        return self.perms[i]

    def sgn(self, i: int) -> int:
        return perm_sign(self.perms[i])

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        if self._classes is None:
            seen = [False] * len(self.elements)
            classes = []
            for i in range(len(self.elements)):
                if seen[i]:
                    continue
                orbit = {self.conj(g, i) for g in range(len(self.elements))}
                for x in orbit:
                    seen[x] = True
                classes.append(tuple(sorted(orbit)))
            self._classes = tuple(sorted(classes, key=lambda c: c[0]))
        return self._classes

    def class_of(self, i: int) -> tuple[int, ...]:
        for cls in self.conjugacy_classes():
            if i in cls:
                return cls
        raise ValueError("element not in group")

    def centralizer(self, i: int) -> tuple[int, ...]:
        return tuple(g for g in range(len(self.elements)) if self.mul(g, i) == self.mul(i, g))

    def subgroup_closure(self, gen_indices: Sequence[int]) -> tuple[int, ...]:
        out = {self.identity_idx}
        frontier = [self.identity_idx]
        while frontier:
            nxt = []
            for i in frontier:
                for g in gen_indices:
                    j = self.mul(i, g)
                    if j not in out:
                        out.add(j)
                        nxt.append(j)
            frontier = nxt
        return tuple(sorted(out))

    def parabolic_subgroup(self, positions: Sequence[int]) -> tuple[int, ...]:
        """Subgroup generated by the simple reflections at the given positions."""
        return self.subgroup_closure([self.simple_gens[p] for p in positions])

    def normalizer(self, subgroup: Sequence[int]) -> tuple[int, ...]:
        sub = frozenset(subgroup)
        return tuple(
            g for g in range(len(self.elements)) if all(self.conj(g, s) in sub for s in sub)
        )


def from_generators(
    gen_mats, gen_perms, rank: int, degree: int, guard: int = DEFAULT_GUARD, datum=None
) -> WeylGroup:
    """Enumerate the finite group of rank × rank integer matrices generated by
    gen_mats, with the permutation model on `degree` letters in which
    gen_perms[k] is the image of gen_mats[k]."""
    gen_mats = [la.matrix(g) for g in gen_mats]
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
                    if len(seen) >= guard:
                        raise GuardExceededError(f"group size exceeds guard {guard}")
                    seen[prod] = image
                    nxt.append(prod)
                elif seen[prod] != image:
                    raise AssertionError("permutation model is not a homomorphism")
        frontier = nxt
    mats = sorted(seen)
    index = {m: i for i, m in enumerate(mats)}
    return WeylGroup(
        datum, (WeylElement(m) for m in mats), (index[g] for g in gen_mats), (seen[m] for m in mats)
    )


def generate(datum: RootDatum, gen_perms, degree: int, guard: int = DEFAULT_GUARD) -> WeylGroup:
    """Enumerate the Weyl group of a root datum acting on cocharacters, with
    the permutation model on `degree` letters in which gen_perms[k] is the
    image of the k-th simple reflection."""
    gen_mats = [datum.cochar_reflection_matrix(i) for i in datum.simple]
    return from_generators(gen_mats, gen_perms, datum.rank_cochar, degree, guard, datum)


# ---------------------------------------------------------------------------
# product-of-type-A structure of parabolic subgroups
# ---------------------------------------------------------------------------


@dataclass
class AtypeStructure:
    """A parabolic subgroup whose diagram is a disjoint union of type-A paths.

    components[c] is the path of simple-root positions for factor c, which is
    isomorphic to the symmetric group on len+1 letters; factor_perms maps each
    subgroup element index to its tuple of factor permutations.
    """

    group: WeylGroup
    positions: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    element_indices: tuple[int, ...]
    factor_perms: dict[int, tuple[tuple[int, ...], ...]]

    @property
    def factor_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) + 1 for c in self.components)

    def is_indecomposable(self, elt_idx: int) -> bool:
        """True iff every factor permutation is a single full cycle."""
        perms = self.factor_perms[elt_idx]
        return all(len(cycles_of(p)) == 1 for p in perms)

    def indecomposable_elements(self) -> tuple[int, ...]:
        return tuple(i for i in self.element_indices if self.is_indecomposable(i))


def a_type_structure(w: WeylGroup, positions: Sequence[int]) -> Optional[AtypeStructure]:
    """Structure data when the parabolic at the given positions is type ∏A, else None."""
    positions = tuple(sorted(positions))
    bond = {}
    for a in positions:
        for b in positions:
            if a < b:
                prod = w.mul(w.simple_gens[a], w.simple_gens[b])
                bond[(a, b)] = la.matrix_order(w.elements[prod].matrix)
    adj = {p: [] for p in positions}
    for (a, b), m in bond.items():
        if m > 2:
            adj[a].append(b)
            adj[b].append(a)
    # components must be simply laced paths
    comps = []
    unseen = set(positions)
    while unseen:
        start = min(unseen)
        comp = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x])
        unseen -= comp
        if any(len(adj[x]) > 2 for x in comp):
            return None
        edges = sum(len(adj[x]) for x in comp) // 2
        if edges != len(comp) - 1:
            return None
        if any(bond[tuple(sorted((a, b)))] != 3 for a in comp for b in adj[a] if a < b):
            return None
        ends = sorted(x for x in comp if len(adj[x]) <= 1)
        path = [ends[0]]
        while len(path) < len(comp):
            nxt = [x for x in adj[path[-1]] if x not in path]
            path.append(nxt[0])
        comps.append(tuple(path))
    comps = tuple(sorted(comps))

    # factor permutation model: path position t acts as the transposition (t, t+1)
    gen_indices = [w.simple_gens[p] for p in positions]
    gen_tuples = []
    for p in positions:
        tup = []
        for comp in comps:
            k = len(comp) + 1
            if p in comp:
                t = comp.index(p)
                tup.append(transposition(k, t, t + 1))
            else:
                tup.append(identity_perm(k))
        gen_tuples.append(tuple(tup))

    ident = w.identity_idx
    reached = {ident: tuple(identity_perm(len(c) + 1) for c in comps)}
    frontier = [ident]
    while frontier:
        nxt = []
        for i in frontier:
            for g, gp in zip(gen_indices, gen_tuples):
                j = w.mul(i, g)
                image = tuple(compose_perm(a, b) for a, b in zip(reached[i], gp))
                if j not in reached:
                    reached[j] = image
                    nxt.append(j)
                elif reached[j] != image:
                    raise AssertionError("type-A factor model is not a homomorphism")
        frontier = nxt
    return AtypeStructure(w, positions, comps, tuple(sorted(reached)), reached)


def is_indecomposable(w: WeylGroup, elt_idx: int, positions: Optional[Sequence[int]] = None) -> bool:
    """Whether the element is a product of full cycles in a ∏A-type group.

    With positions omitted the whole group must be of type ∏A (its full
    diagram is used); otherwise the element must lie in the parabolic at the
    given positions.
    """
    if positions is None:
        if w.datum is None:
            raise ValueError("group carries no root datum")
        positions = range(len(w.datum.simple))
    structure = a_type_structure(w, positions)
    if structure is None:
        raise ValueError("group is not of product-A type")
    if elt_idx not in structure.factor_perms:
        raise ValueError("element not in the parabolic subgroup")
    return structure.is_indecomposable(elt_idx)


@dataclass
class RelativeWeylResult:
    centralizer_big: tuple[int, ...]
    centralizer_small: tuple[int, ...]
    normalizer: tuple[int, ...]
    iso_witness: tuple[tuple[int, int], ...]


def relative_weyl_check(w: WeylGroup, positions: Sequence[int], elt_idx: int) -> RelativeWeylResult:
    """Verify C_{W'}(w)/C_W(w) ≅ N_{W'}(W)/W by explicit coset comparison.

    W' is the ambient group, W the type-∏A parabolic at the given positions,
    and the element must be indecomposable in W.  Raises if a hypothesis or
    the bijectivity fails.
    """
    structure = a_type_structure(w, positions)
    if structure is None:
        raise ValueError("parabolic subgroup is not of product-A type")
    if elt_idx not in structure.factor_perms:
        raise ValueError("element does not lie in the parabolic subgroup")
    if not structure.is_indecomposable(elt_idx):
        raise ValueError("element is not indecomposable")
    sub = structure.element_indices
    sub_set = frozenset(sub)
    c_big = w.centralizer(elt_idx)
    c_small = tuple(g for g in c_big if g in sub_set)
    normal = w.normalizer(sub)
    norm_set = frozenset(normal)
    if any(g not in norm_set for g in c_big):
        raise AssertionError("centralizer is not contained in the normalizer")

    def cosets(groupies, modulus):
        out = []
        seen = set()
        for g in groupies:
            if g in seen:
                continue
            coset = frozenset(w.mul(g, h) for h in modulus)
            seen |= coset
            out.append((min(coset), coset))
        return out

    big_cosets = cosets(c_big, c_small)
    n_cosets = cosets(normal, sub)
    witness = []
    images = set()
    for rep, _ in big_cosets:
        image_rep = next(r for r, coset in n_cosets if rep in coset)
        witness.append((rep, image_rep))
        images.add(image_rep)
    if len(images) != len(big_cosets) or len(big_cosets) != len(n_cosets):
        raise AssertionError("coset map is not a bijection")
    return RelativeWeylResult(c_big, c_small, normal, tuple(witness))
