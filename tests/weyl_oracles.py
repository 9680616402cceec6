"""Subgroup closures of a Weyl group that only the tests use: the
centralizer of an element by a scan of all of W, the oracle for
``WeylGroup.centralizer`` and ``WeylGroup.conjugators``, the subgroup
generated by given elements, the standard parabolic W_P as the closure of
its simple reflections, the oracle for the coset search of
``WeylGroup.parabolic``, the normalizer of a subgroup by conjugating all
of its elements, the oracle for ``Parabolic.normalizer``, the index
of each element by its matrix, for oracles that multiply matrices, the
relative-Weyl coset comparison built from permutation products, the oracle
for ``weyl.relative_weyl_check``, the factor-permutation model of a
type-∏A parabolic, the oracle for ``WeylGroup.parabolic`` paths and
``Parabolic.indecomposables``, and a standard parabolic as a standalone
group with its inclusion homomorphism, and the identity permutation that
these oracles and the closure tests start from."""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from rootdata_oracles import levi_datum_by_span
from semiring_oracles import transposition
from tropgroups import intlinalg as la
from tropgroups import weyl
from tropgroups.errors import InvariantError
from tropgroups.groups import TropGroupHom, TropicalGroup, make_hom
from tropgroups.permutations import compose_perm, cycles_of
from tropgroups.weyl import RelativeWeylResult, WeylGroup


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


@functools.cache
def matrix_index(w: WeylGroup) -> dict:
    """The index of each element of W by its matrix, a tuple of row tuples."""
    return {m: i for i, m in enumerate(w.matrices)}


def centralizer_by_scan(w: WeylGroup, i: int) -> tuple[int, ...]:
    """The g with g·i·g⁻¹ = i, by conjugating i by every element of W."""
    return tuple(g for g in range(len(w)) if w.conj(g, i) == i)


def subgroup_closure(w: WeylGroup, gen_indices: Sequence[int]) -> tuple[int, ...]:
    """Sorted indices of the subgroup generated by the given elements."""
    out = {w.identity_idx}
    frontier = [w.identity_idx]
    while frontier:
        nxt = []
        for i in frontier:
            for g in gen_indices:
                j = w.mul(i, g)
                if j not in out:
                    out.add(j)
                    nxt.append(j)
        frontier = nxt
    return tuple(sorted(out))


def parabolic_closure(w: WeylGroup, positions: Sequence[int]) -> tuple[int, ...]:
    """Subgroup generated by the simple reflections at the given positions."""
    return subgroup_closure(w, [w.simple_gens[p] for p in positions])


def normalizer(w: WeylGroup, subgroup: Sequence[int]) -> tuple[int, ...]:
    sub = frozenset(subgroup)
    return tuple(
        g for g in range(len(w)) if all(w.conj(g, s) in sub for s in sub)
    )


def relative_weyl_by_products(w: WeylGroup, positions: Sequence[int], elt_idx: int) -> RelativeWeylResult:
    """C_{W'}(w)/C_W(w) → N_{W'}(W_P)/W_P for an indecomposable element of the
    type-∏A parabolic at the positions, with both coset spaces built from
    permutation products: each coset g·C_W(w), taken in the order of its least
    element, is matched with the coset g'·W_P that holds that element."""
    positions = tuple(sorted(set(positions)))
    sub = parabolic_closure(w, positions)
    sub_set = frozenset(sub)
    c_big = tuple(g for g in range(len(w)) if w.mul(g, elt_idx) == w.mul(elt_idx, g))
    c_small = tuple(g for g in c_big if g in sub_set)
    normal = normalizer(w, sub)
    if not set(c_big) <= set(normal):
        raise InvariantError(f"centralizer of {elt_idx} leaves the normalizer of parabolic {positions}")

    def cosets(members, modulus):
        out, seen = [], set()
        for g in members:
            if g not in seen:
                coset = frozenset(w.mul(g, h) for h in modulus)
                seen |= coset
                out.append((min(coset), coset))
        return out

    big_cosets, n_cosets = cosets(c_big, c_small), cosets(normal, sub)
    witness = tuple((rep, next(r for r, coset in n_cosets if rep in coset)) for rep, _ in big_cosets)
    if len({r for _, r in witness}) != len(big_cosets) or len(big_cosets) != len(n_cosets):
        raise InvariantError(f"coset map is not a bijection for {elt_idx} and parabolic {positions}")
    return RelativeWeylResult(c_big, c_small, normal, witness)


def levi_group(g: TropicalGroup, positions) -> tuple[TropicalGroup, TropGroupHom]:
    """The standard parabolic of g at the positions as a standalone reductive
    group on the same lattice, its root datum from the span filter, together
    with its inclusion homomorphism into g."""
    datum = levi_datum_by_span(g.datum, positions)
    # the span filter lists the chosen simple roots in sorted position order
    gens = [g.weyl.simple_gens[p] for p in sorted(set(positions))]
    mats = [g.weyl.matrices[i] for i in gens]
    # a subgroup of g.weyl on g's model map, so the order of g.weyl is the guard
    sub = TropicalGroup(weyl.generate(mats, g.model[0], len(g.weyl)), datum, g.model)
    inclusion = make_hom(sub, g, la.identity_matrix(g.rank), lambda i: g.weyl.perm_idx(sub.weyl.perm(i)))
    return sub, inclusion


def factor_model(w: WeylGroup, positions: Sequence[int]) -> Optional[tuple[tuple, dict]]:
    """(components, φ) when the parabolic at the positions is of type ∏A, else None.

    components[c] is the path of simple-root positions of factor c, from its
    lesser end, which is the symmetric group on len + 1 letters; φ maps each
    element index of W_P to its tuple of factor permutations, found by walking
    W_P on the left tables with φ(s_p·x) = φ(s_p)∘φ(x), checked on every edge.
    """
    positions = tuple(sorted(positions))
    bond = {}
    for a in positions:
        for b in positions:
            if a < b:
                bond[(a, b)] = w.order_of(w.left[a][w.simple_gens[b]])
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

    # path position t acts as the transposition (t, t+1) of its factor
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
    queue = [ident]
    for i in queue:
        for p, gp in zip(positions, gen_tuples):
            j = w.left[p][i]
            image = tuple(compose_perm(a, b) for a, b in zip(gp, reached[i]))
            if j not in reached:
                reached[j] = image
                queue.append(j)
            elif reached[j] != image:
                raise InvariantError(f"type-A factor model is not a homomorphism at positions {positions}")
    return comps, reached


def full_cycle_products(phi: dict) -> tuple[int, ...]:
    """Sorted indices whose factor permutations are all single full cycles."""
    return tuple(sorted(x for x, perms in phi.items() if all(len(cycles_of(p)) == 1 for p in perms)))
