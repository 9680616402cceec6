"""Finite Weyl groups as integer matrices on cocharacter coordinates.

Every group carries a faithful permutation model, which drives
multiplication; the matrices give the action on the lattice.  A group keeps
no root datum: ``generate``, the one closure, takes the matrices of its
simple generators and the integer matrix N of a model map, reads each
permutation off N, and reads the diagram off the matrices' products.  The
closure is breadth-first, keyed by permutation, and frozen in lexicographic
matrix order, so element indices are deterministic and serializable.
Inside ``generate`` a permutation is ``bytes``, and an edge is one
``bytes.translate`` through a table per simple generator (so a model has at
most 256 letters).  It multiplies matrices on the left, and only on the
|W| − 1 edges x → s·x that find an element: g·x recomputes only the rows
where g differs from the identity, copies a row of x where g has a lone 1,
and shares every computed row as it is made, so equal rows are one object.
The other edges are checked at once, on the matrices alone, by the Coxeter
presentation (Humphreys, Reflection Groups and Coxeter Groups, 1990, §1.9
and ch. 2) and a row-sum argument on N (``generate``).  Its edges x → s·x
are kept as the left tables left[t][i] = s_t·i, and one routine,
``WeylGroup.orbits``, walks index maps built from them: the left cosets of
W_P (under x ↦ s·x, s in W_P) need no permutation product.  The conjugacy
classes are walked under x ↦ s·x·s⁻¹ = s·x·s, a left-table step followed by
a right-table step x ↦ x·s, which is built down the closure's spanning
tree, (s_t·p)·s = s_t·(p·s), with no permutation product and no inverse.
The class walk also records a transversal: t_x with t_x·rep·t_x⁻¹ = x for the least index rep of
the class, as t_{s·x·s⁻¹} = s·t_x is a left-table lookup.  The centralizer
C(rep) is found once per class, by one scan of W; the v with v·x·v⁻¹ = y are
then the coset t_y·C(rep)·t_x⁻¹ (``WeylGroup.conjugators``), and C(x) is
t_x·C(rep)·t_x⁻¹.  ``WeylGroup.parabolic`` builds each standard parabolic
once, from one coset walk: a frozen ``Parabolic`` with W_P, its cosets W_P·v,
the classes it meets and its ∏A diagram, read by the stability module and by
the functions below.  The parabolic owns what is derived from it, found on
first use and kept on it: ``Parabolic.normalizer``, N_W(W_P), tested on the
simple reflections of P alone, on indices, and for W_P of type ∏A
``Parabolic.indecomposables``, the elements that are a full cycle in every
factor S_{k+1}: the conjugates of the Coxeter element by W_P (|W_P|
products, no walk of W).  The relative-Weyl bijection is read off the
W_P-cosets that the centralizer meets.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from math import factorial, lcm
from typing import Optional, Sequence

from . import intlinalg as la
from .errors import InvariantError
from .intlinalg import Mat
from .permutations import compose_perm, cycles_of, identity_perm, invert_perm, precompose
from .semiring import checked_integer

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
    and class_id[i] is the position of the class of i in conjugacy_classes().
    tree is the closure's spanning tree: the elements other than the
    identity in the order found, the generator t and the element p that each
    was found from, x = s_t·p."""

    def __init__(self, elements, perms, left, tree):
        self.elements: tuple[WeylElement, ...] = tuple(elements)
        self.perms: tuple[tuple[int, ...], ...] = tuple(perms)
        self._by_perm = {p: i for i, p in enumerate(self.perms)}
        self.left: tuple[tuple[int, ...], ...] = tuple(left)
        self._tree: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] = tree
        self.identity_idx = self._by_perm[identity_perm(len(self.perms[0]))]
        self.simple_gens: tuple[int, ...] = tuple([s[self.identity_idx] for s in self.left])
        self._centralizers: dict = {}  # class id -> permutations of C(rep), found once
        self._parabolics: dict = {}  # sorted simple-root positions -> Parabolic, built once

    @functools.cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple([self._by_perm[invert_perm(p)] for p in self.perms])

    @property
    def rank(self) -> int:
        return len(self.elements[0].matrix)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def perm_idx(self, perm: Sequence[int]) -> int:
        """Index of the element with the given permutation."""
        i = self._by_perm.get(tuple(perm))
        if i is None:
            raise ValueError("permutation is not in the group")
        return i

    def element(self, i: int) -> WeylElement:
        return self.elements[i]

    def check_idx(self, field: str, w) -> int:
        """w as an element index, read by checked_integer; a ValueError naming
        the field unless it is an integer in range(|W|)."""
        i = checked_integer(field, w)
        if not 0 <= i < len(self.elements):
            raise ValueError(f"field {field!r}: Weyl element index {i!r} is out of range for |W| = {len(self.elements)}")
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
        # unpacked from a list, so the argument tuple is made at its length
        # (see intlinalg on tuples built from generators)
        return lcm(*[len(c) for c in cycles_of(self.perms[i])])

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

    @functools.cached_property
    def _class_walk(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(classes, transversal) from one walk under x ↦ s·x·s⁻¹ for the
        simple generators s, each class from its least index rep: y, first
        reached as s·x·s⁻¹, gets t_y = s·t_x, so t_x·rep·t_x⁻¹ = x.  A step
        is the left table x ↦ s·x followed by the right table x ↦ x·s⁻¹ =
        x·s (each simple generator is an involution, which ``generate``
        checks).  The right table is built down the closure's spanning tree
        with index lookups alone, as (s_t·p)·s = s_t·(p·s).  It is the walk
        of ``orbits`` with the conjugators carried along, kept apart so that
        the coset walks carry nothing."""
        left, e = self.left, self.identity_idx
        steps = []
        for s in left:
            right = [0] * len(self.elements)
            right[e] = s[e]
            for x, t, p in zip(*self._tree):  # p is found before x
                right[x] = left[t][right[p]]
            steps.append((list(map(right.__getitem__, s)), s))
        t: list = [None] * len(self.elements)
        classes = []
        for rep, seen in enumerate(t):
            if seen is None:
                t[rep] = self.identity_idx
                cls = [rep]
                for x in cls:
                    for conj_by_s, s in steps:
                        y = conj_by_s[x]
                        if t[y] is None:
                            t[y] = s[t[x]]
                            cls.append(y)
                classes.append(tuple(sorted(cls)))
        return tuple(classes), tuple(t)

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes as sorted index tuples, ordered by least element, the class
        representative."""
        return self._class_walk[0]

    @property
    def transversal(self) -> tuple[int, ...]:
        """transversal[x] is an element t_x with t_x·rep·t_x⁻¹ = x, for rep the
        least index of the class of x."""
        return self._class_walk[1]

    @functools.cached_property
    def class_id(self) -> tuple[int, ...]:
        ids = {x: c for c, cls in enumerate(self.conjugacy_classes()) for x in cls}
        return tuple([ids[x] for x in range(len(ids))])

    def class_of(self, i: int) -> tuple[int, ...]:
        return self.conjugacy_classes()[self.class_id[self.check_idx("w", i)]]

    def conjugators(self, x: int, y: int) -> tuple[int, ...]:
        """The v with v·x·v⁻¹ = y, sorted: none across two classes, and
        otherwise the coset t_y·C(rep)·t_x⁻¹ of the centralizer of the class
        representative, which is built once per class, by one scan of W."""
        x, y = self.check_idx("x", x), self.check_idx("y", y)
        c = self.class_id[x]
        if c != self.class_id[y]:
            return ()
        cent = self._centralizers.get(c)
        if cent is None:
            rep = self.perms[self.conjugacy_classes()[c][0]]
            cent = self._centralizers[c] = [p for p in self.perms if compose_perm(p, rep) == compose_perm(rep, p)]
        t_y = self.perms[self.transversal[y]]
        after_t_x_inv = precompose(self.perms[self.inverse[self.transversal[x]]])  # q ↦ q∘t_x⁻¹
        by_perm = self._by_perm
        return tuple(sorted([by_perm[after_t_x_inv(compose_perm(t_y, p))] for p in cent]))

    def centralizer(self, i: int) -> tuple[int, ...]:
        """C(i) = t_i·C(rep)·t_i⁻¹, sorted."""
        return self.conjugators(i, i)

    def parabolic(self, positions: Sequence[int]) -> Parabolic:
        """The standard parabolic at the simple-root positions, built once per
        sorted positions: its cosets W_P·v are the orbits under the left tables
        of P's simple reflections, from one walk, and W_P is the coset of the
        identity.  A ValueError naming positions unless each is an integer
        in range(r), read by checked_integer."""
        positions = tuple(sorted({checked_integer("positions", t) for t in positions}))
        p = self._parabolics.get(positions)
        if p is None:
            if any(not 0 <= t < len(self.simple_gens) for t in positions):
                raise ValueError(f"field 'positions': invalid simple-root position in {list(positions)}")
            cosets = self.orbits([self.left[t] for t in positions])
            members = frozenset(next(c for c in cosets if self.identity_idx in c))
            least = [0] * len(self.elements)
            for coset in cosets:
                if len(coset) != len(members):
                    raise InvariantError(
                        f"left cosets of W_P at positions {positions} do not all have {len(members)} elements"
                    )
                for x in coset:
                    least[x] = coset[0]
            reps, classes = tuple([c[0] for c in cosets]), frozenset([self.class_id[x] for x in members])
            p = Parabolic(self, positions, members, reps, tuple(least), classes, _a_type_paths(self, positions))
            self._parabolics[positions] = p
        return p


def generate(gen_mats, model: Mat, guard: int = DEFAULT_GUARD) -> WeylGroup:
    """Enumerate the finite group of integer matrices generated by gen_mats,
    on len(N[0]) coordinates, with its permutation model on the rows of the
    integer matrix N of a model map: σ_t with N·S_t = P_t·N + 𝟙·c_t for the
    generator S_t (``_model_perm``; an InvariantError names a generator that
    has none).  The generators become the simple generators, in order; past
    guard elements the enumeration stops with GuardExceededError.  They must
    be a Coxeter system of types A, B/C, D and G₂, as the simple reflections
    of every built Weyl group are.

    The closure is keyed by permutation, as ``bytes`` (a ValueError names a
    model past 256 rows), and multiplies on the left, only on the edges
    x → s·x that find an element; numbered as found, they become the left
    tables once the elements are sorted.  The other edges are checked at once
    on the matrices (``_check_presentation``), by a row-sum argument: the
    rows of N are distinct, so a word M in the S_t, and P the same word in
    the P_t, have N·M = P·N + 𝟙·c.  If M = 1, summing the k rows gives
    k·c = 0, so P·N = N and P = 1: the permutations satisfy every relation
    of the matrices.  By the same argument for M₁ = M₂, distinct
    permutations have distinct matrices.
    """
    if len(model) > 256:
        raise ValueError(f"permutation model on {len(model)} letters: the closure's bytes hold at most 256")
    gens = [(_row_ops(g), _model_perm(model, g)) for g in map(la.matrix, gen_mats)]
    for t, (_, sigma) in enumerate(gens):
        if sigma is None:
            raise InvariantError(f"the model map is not equivariant for simple reflection {t}, or its rows repeat")
    rows: dict = {}  # elements share equal rows (GL₆: 6 rows for 720 elements)
    ident = tuple([rows.setdefault(r, r) for r in la.identity_matrix(len(model[0]))])
    perms, mats = [bytes(range(len(model)))], [ident]
    found = {perms[0]: 0}
    edges = [[] for _ in gens]  # edges[t][a] is the number of s_t·(element a)
    # σ_g as a table for bytes.translate, which maps each letter i of σ_x to σ_g(i)
    steps = [
        (t, copies, sums, bytes(pg) + bytes(range(len(pg), 256)), out)
        for t, (((copies, sums), pg), out) in enumerate(zip(gens, edges))
    ]
    via, parent = [], []  # element b > 0 is s_{via[b − 1]}·(element parent[b − 1])
    for a, px in enumerate(perms):  # perms grows as elements are found
        for t, copies, sums, table, out in steps:
            image = px.translate(table)  # σ_g∘σ_x
            b = found.get(image)
            if b is None:
                if len(perms) >= guard:
                    raise GuardExceededError(f"group size exceeds guard {guard}")
                b = found[image] = len(perms)
                perms.append(image)
                mats.append(_times(copies, sums, mats[a], rows))
                via.append(t)
                parent.append(a)
            out.append(b)
    _check_presentation([ops for ops, _ in gens], ident, rows, len(perms))
    order = sorted(range(len(mats)), key=mats.__getitem__)
    index, reorder = invert_perm(order), precompose(order)  # index[a] is the place of a in order
    left = [tuple(map(index.__getitem__, reorder(out))) for out in edges]
    tree = (index[1:], tuple(via), tuple(map(index.__getitem__, parent)))
    return WeylGroup([WeylElement(m) for m in reorder(mats)], [tuple(p) for p in reorder(perms)], left, tree)


def _model_perm(num: Mat, s: Mat) -> Optional[tuple[int, ...]]:
    """σ with Y·S = P_σ·Y + 𝟙·c for the model map Y = N/d, or None if there
    is none.

    Row σ(j) of Y·S is Y[j] + c.  The shift c is the mean change of a column
    of Y; it is 0 except for PGL, whose model coordinates end in 0.  Both
    sides scale by d, so N stands in for Y, and are compared times the
    degree k, so that k·c = ΣY·S − ΣY is integral.  Y·S is formed as
    Y + Σ Y[:, r]·(S[r] − e_r) over the rows r where S is not the identity:
    one or two rows for a reflection, whose S − 1 has rank one.
    """
    k = len(num)
    moved = []
    for r, row in enumerate(s):
        delta = list(row)
        delta[r] -= 1
        if any(delta):
            moved.append((r, delta))
    image = []
    for row in num:
        out = row
        for r, delta in moved:
            if row[r]:
                out = [x + row[r] * t for x, t in zip(out, delta)]
        image.append(out)
    shift = [sum(a) - sum(b) for a, b in zip(la.transpose(image), la.transpose(num))]
    rows = {tuple([k * x for x in row]): i for i, row in enumerate(image)}
    sigma = tuple(rows.get(tuple([k * x + c for x, c in zip(row, shift)])) for row in num)
    return None if len(rows) != k or None in sigma else sigma


def _check_presentation(gens, ident: Mat, rows: dict, order: int) -> None:
    """Check that the closure's matrices are the image of its permutations
    under an isomorphism, from the row operations of the generators, with
    O(r²) small products rather than one per edge; an InvariantError if not.

    Let m_ab be the order of g_a·g_b (m_aa = 1: each g_a is an involution)
    and C the Coxeter group that (m_ab) presents (Humphreys, §1.9; its order
    by the classification of ch. 2, ``_coxeter_order``).  The matrices
    satisfy C's relations, and the permutations every relation of the
    matrices (``generate``), so c_a ↦ σ_a factors as C → W → P, each onto,
    and |C| = |P| makes both isomorphisms.  For involutions a and b,
    (a·b)^k = 1 iff the alternating words a·b·a⋯ and b·a·b⋯ of length k are
    equal, so m_ab is read off the two words as they grow.
    """
    g = [_times(*ops, ident, rows) for ops in gens]
    m = [[1] * len(gens) for _ in gens]
    for a, ops_a in enumerate(gens):
        if _times(*ops_a, g[a], rows) != ident:
            raise InvariantError(f"g_{a} is not an involution")
        for b in range(a + 1, len(gens)):
            u, v, k = g[a], g[b], 1  # the words of length k from a and from b
            while u != v:
                if k == 6:  # no diagram of type A, B, D or G₂ has a longer bond
                    raise InvariantError(f"g_{a}·g_{b} has order more than 6")
                u, v, k = _times(*ops_a, v, rows), _times(*gens[b], u, rows), k + 1
            m[a][b] = m[b][a] = k
    presented = _coxeter_order(m)
    if presented != order:
        raise InvariantError(
            f"permutation model is not faithful: the matrices present a Coxeter group of order {presented}, "
            f"and the permutations generate {order} elements"
        )


def _coxeter_order(m: Sequence[Sequence[int]]) -> int:
    """The order of the Coxeter group with Coxeter matrix m: the product over
    the components of its diagram (``_diagram``) of (k+1)! for A_k, 2ᵏ·k! for
    B_k = C_k, 2ᵏ⁻¹·k! for D_k and 12 for G₂."""
    order = 1
    for kind, nodes in _diagram(m):
        k = len(nodes)
        order *= {"A": factorial(k + 1), "B": 2**k * factorial(k), "D": 2 ** (k - 1) * factorial(k), "G": 12}[kind]
    return order


def _diagram(m: Sequence[Sequence[int]]) -> list[tuple[str, tuple[int, ...]]]:
    """The components of the Coxeter diagram of the Coxeter matrix m by least
    node, typed by the classification (Humphreys, Reflection Groups and
    Coxeter Groups, 1990, §2.4 and §2.11): ("A", its path from the lesser
    end), ("B", nodes) for B_k = C_k, ("D", nodes) or ("G", nodes) for G₂.
    An InvariantError on any other matrix or diagram."""
    r = len(m)
    if any(m[a][b] != m[b][a] or not (m[a][b] == 1 if a == b else m[a][b] >= 2) for a in range(r) for b in range(r)):
        raise InvariantError(f"{m} is not a Coxeter matrix")
    bonds = [{b: m[a][b] for b in range(r) if m[a][b] > 2} for a in range(r)]
    out = []
    for start in range(r):
        if any(start in nodes for _, nodes in out):
            continue
        comp = [start]
        for a in comp:  # breadth first, as comp grows
            comp += [b for b in bonds[a] if b not in comp]
        labels = sorted(label for a in comp for label in bonds[a].values())[::2]  # each bond is seen twice
        if len(labels) != len(comp) - 1:  # a connected diagram is a tree iff it has one bond fewer than nodes
            raise InvariantError(f"Coxeter diagram {m} has a cycle")
        branch = [a for a in comp if len(bonds[a]) > 2]
        if labels == [6]:
            kind = "G"
        elif not branch and set(labels) <= {3}:  # a path
            kind, comp = "A", [min(a for a in comp if len(bonds[a]) < 2)]
            for a in comp:  # from an end, breadth first is along the path
                comp += [b for b in bonds[a] if b not in comp]
        elif not branch and labels[-1:] == [4] and set(labels[:-1]) <= {3} and any(
            list(bonds[a].values()) == [4] for a in comp
        ):  # a path whose one 4-bond ends at a leaf (F₄ has it in the middle)
            kind = "B"
        elif (
            set(labels) == {3}
            and len(branch) == 1
            and len(bonds[branch[0]]) == 3
            and sum(len(bonds[b]) == 1 for b in bonds[branch[0]]) >= 2
        ):  # one fork with two arms of length one (E₆₋₈ have one)
            kind = "D"
        else:
            raise InvariantError(f"Coxeter diagram {m} is not a product of types A, B, D and G₂")
        out.append((kind, tuple(comp)))
    return out


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


# ---------------------------------------------------------------------------
# standard parabolic subgroups, those of type ∏A and their indecomposable
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Parabolic:
    """The standard parabolic W_P of the Weyl group at sorted simple-root
    positions: W_P as element indices, the least index of each left coset
    W_P·v in the order of v, least[x] the least index of the coset of x, the
    ids (``class_id``) of the conjugacy classes that meet W_P, and the Coxeter
    diagram at the positions as paths when it is of type ∏A, else None.  Its
    normalizer and, for type ∏A, its indecomposable elements are found on
    first use and kept on it."""

    group: WeylGroup = field(compare=False, repr=False)
    positions: tuple[int, ...]
    members: frozenset
    cosets: tuple[int, ...]
    least: tuple[int, ...]
    classes: frozenset
    paths: Optional[tuple[tuple[int, ...], ...]]

    @functools.cached_property
    def normalizer(self) -> tuple[int, ...]:
        """N_W(W_P): the g with g·s·g⁻¹ in W_P for each simple reflection s of P.
        That suffices: conjugation by g is a homomorphism, so it then maps W_P,
        which those s generate, into W_P, and onto it, as W_P is finite.  One
        scan of W."""
        w = self.group
        gens = [w.simple_gens[t] for t in self.positions]
        return tuple(g for g in range(len(w)) if all(w.conj(g, s) in self.members for s in gens))

    @functools.cached_property
    def indecomposables(self) -> tuple[int, ...]:
        """The elements of W_P, of type ∏A, that are a full cycle in every
        factor S_{k+1}, sorted.  They form the W_P-conjugacy class of the
        Coxeter element c = s_{p_k}⋯s_{p_1} (Humphreys, Reflection Groups and
        Coxeter Groups, §3.16): the v·c·v⁻¹ for v in W_P.  A ValueError unless
        W_P is of type ∏A."""
        if self.paths is None:
            raise ValueError("parabolic subgroup is not of product-A type")
        w, c = self.group, self.group.identity_idx
        for t in self.positions:
            c = w.left[t][c]
        return tuple(sorted({w.conj(v, c) for v in self.members}))


def _a_type_paths(w: WeylGroup, positions: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], ...]]:
    """The Coxeter diagram at the sorted positions as paths, each from its
    lesser end, in the order of those ends, if it is of type ∏A; else None.
    The bond of a and b is the order of s_a·s_b (``_diagram``)."""
    m = [[1] * len(positions) for _ in positions]
    for i, j in itertools.combinations(range(len(positions)), 2):
        m[i][j] = m[j][i] = w.order_of(w.left[positions[i]][w.simple_gens[positions[j]]])
    comps = _diagram(m)
    if any(kind != "A" for kind, _ in comps):
        return None
    return tuple(sorted([tuple([positions[i] for i in path]) for _, path in comps]))


def is_indecomposable(w: WeylGroup, elt_idx: int, positions: Optional[Sequence[int]] = None) -> bool:
    """Whether the element is a product of full cycles in a ∏A-type group.

    With positions omitted the whole group must be of type ∏A (the positions
    of all its simple generators are used); otherwise the element must lie in
    the parabolic at the given positions.
    """
    p = w.parabolic(range(len(w.simple_gens)) if positions is None else positions)
    indecomposables = p.indecomposables  # a ValueError unless W_P is of type ∏A
    if elt_idx not in p.members:
        raise ValueError("element not in the parabolic subgroup")
    return elt_idx in indecomposables


@dataclass(frozen=True)
class RelativeWeylResult:
    centralizer_big: tuple[int, ...]
    centralizer_small: tuple[int, ...]
    normalizer: tuple[int, ...]
    iso_witness: tuple[tuple[int, int], ...]


def relative_weyl_check(w: WeylGroup, positions: Sequence[int], elt_idx: int) -> RelativeWeylResult:
    """Verify C_{W'}(w)/C_W(w) ≅ N_{W'}(W)/W on the cosets of W.

    W' is the ambient group, W the type-∏A parabolic at the given positions,
    and the element must be indecomposable in W.  Raises if a hypothesis or
    the bijectivity fails.
    """
    p = w.parabolic(positions)
    indecomposables = p.indecomposables  # a ValueError unless W_P is of type ∏A
    if elt_idx not in p.members:
        raise ValueError("element does not lie in the parabolic subgroup")
    if elt_idx not in indecomposables:
        raise ValueError("element is not indecomposable")
    c_big = w.centralizer(elt_idx)
    c_small = tuple(g for g in c_big if g in p.members)
    normal = p.normalizer
    # N(W_P) is a union of W_P-cosets, so g lies in it iff its coset does.
    # For g, g′ in C = C_{W'}(w) ⊆ N(W_P), with C_W(w) = C ∩ W_P and g·W_P = W_P·g:
    #   g·C_W(w) = g′·C_W(w) ⇔ g⁻¹g′ ∈ W_P ⇔ W_P·g = W_P·g′.
    # So g·C_W(w) ↦ W_P·g is injective by construction, and a bijection onto
    # N(W_P)/W_P iff C meets every W_P-coset inside N(W_P).  g·C_W(w) is
    # C ∩ W_P·g, so its least element is the least g of C in that W_P-coset,
    # met first in index order; the witness pairs it with the least element
    # of the W_P-coset.
    least = p.least
    in_normalizer = {least[g] for g in normal}
    witness: dict = {}
    for g in c_big:
        witness.setdefault(least[g], (g, least[g]))
    if not witness.keys() <= in_normalizer:
        raise InvariantError(f"centralizer of {elt_idx} leaves the normalizer of parabolic {p.positions}")
    if len(witness) != len(in_normalizer):
        raise InvariantError(f"coset map is not a bijection for {elt_idx} and parabolic {p.positions}")
    return RelativeWeylResult(c_big, c_small, normal, tuple(witness.values()))
