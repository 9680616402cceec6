"""Finite Weyl groups as integer matrices on cocharacter coordinates.

Every group carries a faithful permutation model, which drives
multiplication; the matrices give the action on the lattice.  Groups are
enumerated by breadth-first closure of their generators, keyed by
permutation, and frozen in lexicographic matrix order, so element indices are
deterministic and serializable.  The closure multiplies on the left: g·x
recomputes only the rows where g differs from the identity (one or two for
most simple reflections of the built families), copies a row of x where g
has a lone 1, and shares every computed row as it is made, so equal rows are
one object.  Its edges x → s·x are kept as the left tables left[t][i] = s_t·i,
and one routine, ``WeylGroup.orbits``, walks index maps built from them: the
conjugacy classes (under x ↦ s·x·s⁻¹) and the left cosets of W_P (under
x ↦ s·x, s in W_P) need no permutation product.  Centralizers, the
normalizer of W_P (tested on the simple reflections of P alone) and the
relative-Weyl check for a parabolic W_P of type ∏A (``a_type_paths``) work on
indices; the indecomposable elements of W_P, a full cycle in every factor
S_{k+1}, are the W_P-class of the Coxeter element.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from math import lcm
from typing import Optional, Sequence

from . import intlinalg as la
from .errors import InvariantError
from .intlinalg import Mat
from .permutations import compose_perm, cycles_of, identity_perm, invert_perm, precompose
from .rootdata import RootDatum

DEFAULT_GUARD = 10_000


class GuardExceededError(RuntimeError):
    """Raised when group enumeration exceeds the size guard."""


@dataclass(frozen=True)
class WeylElement:
    matrix: Mat


class WeylGroup:
    """A finite matrix group with deterministic element ordering; perms[i] is
    element i in the faithful permutation model that products are looked up in,
    left[t][i] is the index of s_t·i for the t-th simple generator s_t (so
    simple_gens[t] = left[t][identity_idx]), inverse[i] is the index of i⁻¹,
    and class_id[i] is the position of the class of i in conjugacy_classes()."""

    def __init__(self, datum: Optional[RootDatum], elements, perms, left):
        self.datum = datum
        self.elements: tuple[WeylElement, ...] = tuple(elements)
        self.perms: tuple[tuple[int, ...], ...] = tuple(perms)
        self._by_perm = {p: i for i, p in enumerate(self.perms)}
        self.left: tuple[tuple[int, ...], ...] = tuple(left)
        self.identity_idx = self._by_perm[identity_perm(len(self.perms[0]))]
        self.simple_gens: tuple[int, ...] = tuple([s[self.identity_idx] for s in self.left])
        self._classes = None

    @functools.cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple([self._by_perm[invert_perm(p)] for p in self.perms])

    @functools.cached_property
    def _index(self) -> dict:
        return {w.matrix: i for i, w in enumerate(self.elements)}

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

    def check_idx(self, i: int) -> int:
        """i, if it is an element index; ValueError otherwise."""
        if not 0 <= i < len(self.elements):
            raise ValueError(f"Weyl element index {i!r} is out of range for |W| = {len(self.elements)}")
        return i

    def mul(self, i: int, j: int) -> int:
        return self._by_perm[compose_perm(self.perms[i], self.perms[j])]

    def conj(self, v: int, x: int) -> int:
        """Index of v·x·v⁻¹, whose permutation sends v(t) to v(x(t))."""
        pv = self.perms[v]
        out = [0] * len(pv)
        for s, t in zip(pv, self.perms[x]):
            out[s] = pv[t]
        return self._by_perm[tuple(out)]

    def order_of(self, i: int) -> int:
        """The lcm of the cycle lengths of the element's permutation, which is
        its order because the permutation model is faithful."""
        return lcm(*map(len, cycles_of(self.perms[i])))

    def perm(self, i: int) -> tuple[int, ...]:
        return self.perms[i]

    def orbits(self, maps: Sequence[Sequence[int]]) -> list[list[int]]:
        """The orbits of the indices under the index maps (maps[k][i] is the image
        of i), each found breadth-first from its least index, in that order."""
        seen = [False] * len(self.elements)
        out = []
        for i, done in enumerate(seen):
            if not done:
                seen[i] = True
                orbit = [i]
                for x in orbit:
                    for f in maps:
                        y = f[x]
                        if not seen[y]:
                            seen[y] = True
                            orbit.append(y)
                out.append(orbit)
        return out

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, ordered by least element: the orbits
        under x ↦ s·x·s⁻¹ = s·(s·x⁻¹)⁻¹ for the simple generators s."""
        if self._classes is None:
            inv = self.inverse
            orbits = self.orbits([[s[inv[s[x_inv]]] for x_inv in inv] for s in self.left])
            self._classes = tuple(tuple(sorted(orbit)) for orbit in orbits)
        return self._classes

    @functools.cached_property
    def class_id(self) -> tuple[int, ...]:
        ids = {x: c for c, cls in enumerate(self.conjugacy_classes()) for x in cls}
        return tuple([ids[x] for x in range(len(ids))])

    def class_of(self, i: int) -> tuple[int, ...]:
        return self.conjugacy_classes()[self.class_id[self.check_idx(i)]]

    def centralizer(self, i: int) -> tuple[int, ...]:
        return tuple(g for g in range(len(self.elements)) if self.conj(g, i) == i)


def from_generators(
    gen_mats, gen_perms, rank: int, degree: int, guard: int = DEFAULT_GUARD, datum=None
) -> WeylGroup:
    """Enumerate the finite group of rank × rank integer matrices generated by
    gen_mats, with the permutation model on `degree` letters in which
    gen_perms[k] is the image of gen_mats[k].

    The closure is keyed by permutation and multiplies on the left: g·x has
    the permutation σ_g∘σ_x and differs from x only in the rows where g
    differs from the identity; the edges x → g·x, numbered as found, become the
    left tables once the elements are sorted.  A permutation reached with two
    matrices means the model is not faithful or not a homomorphism; two
    permutations of one matrix mean it is not a homomorphism.
    """
    rows: dict = {}  # elements share equal rows (GL₆: 6 rows for 720 elements)
    gens = [(_row_ops(la.matrix(g)), tuple(p)) for g, p in zip(gen_mats, gen_perms, strict=True)]
    perms = [identity_perm(degree)]
    found = {perms[0]: 0}
    mats = [tuple([rows.setdefault(r, r) for r in la.identity_matrix(rank)])]
    edges = [[] for _ in gens]  # edges[t][a] is the number of s_t·(element a)
    for a, px in enumerate(perms):  # perms grows as elements are found
        x, after_x = mats[a], precompose(px)
        for ((copies, sums), pg), out in zip(gens, edges):
            prod, image = _times(copies, sums, x, rows), after_x(pg)  # image = σ_g∘σ_x
            b = found.get(image)
            if b is None:
                if len(perms) >= guard:
                    raise GuardExceededError(f"group size exceeds guard {guard}")
                b = found[image] = len(perms)
                perms.append(image)
                mats.append(prod)
            elif mats[b] != prod:
                msg = f"{image} is the permutation of {mats[b]} and of {prod}"
                raise InvariantError(f"permutation model is not faithful, or not a homomorphism: {msg}")
            out.append(b)
    order = sorted(range(len(mats)), key=mats.__getitem__)
    for a, b in zip(order, order[1:]):
        if mats[a] == mats[b]:
            raise InvariantError(f"permutation model is not a homomorphism: {mats[a]} has two permutations")
    index, reorder = invert_perm(order), precompose(order)  # index[a] is the place of a in order
    left = [tuple(map(index.__getitem__, reorder(out))) for out in edges]
    return WeylGroup(datum, [WeylElement(m) for m in reorder(mats)], reorder(perms), left)


def _row_ops(g: Mat) -> tuple[tuple, tuple]:
    """(copies, sums) over the rows r where g differs from the identity:
    (r, c) when row r is the unit row e_c, and otherwise (r, entries, take,
    memo) with the (column, entry) pairs of the row's nonzero entries, the
    getter of the rows of x that they read, and a memo of results by those rows."""
    copies, sums = [], []
    for r, row in enumerate(g):
        entries = tuple((c, e) for c, e in enumerate(row) if e)
        if len(entries) == 1 and entries[0][1] == 1:
            if entries[0][0] != r:
                copies.append((r, entries[0][0]))
        else:
            sums.append((r, entries, operator.itemgetter(*[c for c, _ in entries]), {}))
    return tuple(copies), tuple(sums)


def _times(copies, sums, x: Mat, rows: dict) -> Mat:
    """The rows of g·x, exactly, from the rows of x and _row_ops(g): row r of
    g·x is Σ g[r][c]·(row c of x).  A copied row is the row of x itself; a
    computed row is looked up in rows, so that equal rows are one object."""
    out = list(x)
    for r, c in copies:
        out[r] = x[c]
    for r, entries, take, memo in sums:
        src = take(x)
        row = memo.get(src)
        if row is None:
            row = tuple([sum(col) for col in zip(*[x[c] if e == 1 else [e * v for v in x[c]] for c, e in entries])])
            row = memo[src] = rows.setdefault(row, row)
        out[r] = row
    return tuple(out)


def generate(datum: RootDatum, gen_mats, gen_perms, degree: int, guard: int = DEFAULT_GUARD) -> WeylGroup:
    """Enumerate the Weyl group of a root datum acting on cocharacters, from
    the matrices gen_mats[k] of its simple reflections in the order of
    datum.simple, with the permutation model on `degree` letters in which
    gen_perms[k] is the image of the k-th simple reflection."""
    return from_generators(gen_mats, gen_perms, datum.rank_cochar, degree, guard, datum)


# ---------------------------------------------------------------------------
# parabolic subgroups of type ∏A and their indecomposable elements
# ---------------------------------------------------------------------------


def _positions(w: WeylGroup, positions: Sequence[int]) -> tuple[int, ...]:
    """The simple-root positions, sorted; ValueError if one is out of range."""
    positions = tuple(sorted(set(positions)))
    if any(not 0 <= p < len(w.simple_gens) for p in positions):
        raise ValueError("invalid simple-root position")
    return positions


def a_type_paths(w: WeylGroup, positions: Sequence[int]) -> Optional[tuple[tuple[int, ...], ...]]:
    """The Coxeter diagram at the positions as paths, each from its lesser end,
    in order, if it is of type ∏A; else None.  The bond of a and b is the order
    of s_a·s_b: 3 joins them, 2 keeps them apart, any other is not type A."""
    positions = _positions(w, positions)
    adj = {p: [] for p in positions}
    for a, b in itertools.combinations(positions, 2):
        m = w.order_of(w.left[a][w.simple_gens[b]])
        if m == 3:
            adj[a].append(b)
            adj[b].append(a)
        elif m != 2:
            return None
    if any(len(n) > 2 for n in adj.values()):
        return None
    paths = []
    for end in positions:  # the first end met of each path is its lesser end
        if len(adj[end]) < 2 and not any(end in path for path in paths):
            path = [end]
            while nxt := [x for x in adj[path[-1]] if x not in path]:
                path.append(nxt[0])
            paths.append(tuple(path))
    return tuple(paths) if sum(map(len, paths)) == len(positions) else None  # a cycle has no end


def _parabolic(w: WeylGroup, positions: tuple[int, ...]) -> list[int]:
    """W_P: the orbit of the identity under the left tables of P."""
    return next(o for o in w.orbits([w.left[p] for p in positions]) if w.identity_idx in o)


def indecomposable_elements(w: WeylGroup, positions: Sequence[int]) -> tuple[int, ...]:
    """The elements of the type-∏A parabolic W_P at the positions that are a
    full cycle in every factor S_{k+1}, sorted.  They form the W_P-conjugacy
    class of the Coxeter element c = s_{p_k}⋯s_{p_1} (Humphreys, Reflection
    Groups and Coxeter Groups, §3.16): its orbit under x ↦ s·x·s⁻¹ for s in P."""
    positions = _positions(w, positions)
    if a_type_paths(w, positions) is None:
        raise ValueError("parabolic subgroup is not of product-A type")
    c, inv = w.identity_idx, w.inverse
    for p in positions:
        c = w.left[p][c]
    orbits = w.orbits([[w.left[p][inv[w.left[p][x_inv]]] for x_inv in inv] for p in positions])
    return tuple(sorted(next(o for o in orbits if c in o)))


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
    positions = _positions(w, positions)
    if a_type_paths(w, positions) is None:
        raise ValueError("group is not of product-A type")
    if elt_idx not in _parabolic(w, positions):
        raise ValueError("element not in the parabolic subgroup")
    return elt_idx in indecomposable_elements(w, positions)


def parabolic_normalizer(w: WeylGroup, positions: Sequence[int]) -> tuple[int, ...]:
    """N_W(W_P): the g with g·s·g⁻¹ in W_P for each simple reflection s of P.
    That suffices: conjugation by g is a homomorphism, so it then maps W_P,
    which those s generate, into W_P, and onto it, as W_P is finite."""
    positions = _positions(w, positions)
    sub = frozenset(_parabolic(w, positions))
    gens = [w.simple_gens[p] for p in positions]
    return tuple(g for g in range(len(w.elements)) if all(w.conj(g, s) in sub for s in gens))


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
    positions = _positions(w, positions)
    if a_type_paths(w, positions) is None:
        raise ValueError("parabolic subgroup is not of product-A type")
    sub = _parabolic(w, positions)
    if elt_idx not in sub:
        raise ValueError("element does not lie in the parabolic subgroup")
    if elt_idx not in indecomposable_elements(w, positions):
        raise ValueError("element is not indecomposable")
    sub_set = frozenset(sub)
    c_big = w.centralizer(elt_idx)
    c_small = tuple(g for g in c_big if g in sub_set)
    normal = parabolic_normalizer(w, positions)
    norm_set = frozenset(normal)
    if any(g not in norm_set for g in c_big):
        raise InvariantError(f"centralizer of {elt_idx} leaves the normalizer of parabolic {positions}")

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
        raise InvariantError(f"coset map is not a bijection for {elt_idx} and parabolic {positions}")
    return RelativeWeylResult(c_big, c_small, normal, tuple(witness))
