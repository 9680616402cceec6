"""Root data built the long way, as references for the closure that builds
them from their simple roots: every root of each family listed by hand (G₂'s
twelve pairs written out), the Levi datum of a standard parabolic as the
roots in the rational span of its simple roots, one rational solve per root,
and the equality of two data up to the order of their roots."""

from __future__ import annotations

import itertools

from lattice_oracles import rational_solve
from tropgroups import intlinalg as la
from tropgroups import rootdata as rd
from tropgroups.intlinalg import Vec

G2_PAIRS = (
    ((-3, 1), (-1, -1)), ((-3, 2), (0, 1)), ((-2, 1), (-1, 0)), ((-1, 0), (-2, -3)),
    ((-1, 1), (1, 3)), ((0, -1), (-1, -2)), ((0, 1), (1, 2)), ((1, -1), (-1, -3)),
    ((1, 0), (2, 3)), ((2, -1), (1, 0)), ((3, -2), (0, -1)), ((3, -1), (1, 1)),
)


def sorted_datum(pairs, simple_roots, pairing, family) -> rd.RootDatum:
    """Freeze a root datum with roots sorted lexicographically."""
    pairs = sorted(set(pairs))
    roots = tuple(p[0] for p in pairs)
    coroots = tuple(p[1] for p in pairs)
    simple = tuple(roots.index(a) for a in simple_roots)
    return rd.RootDatum(la.matrix(pairing), roots, coroots, simple, family)


def _e(n: int, i: int, c: int = 1) -> Vec:
    return tuple(c if t == i else 0 for t in range(n))


def _gl_pairs(n: int):
    """(e_i − e_j, same vector) for i ≠ j."""
    for i in range(n):
        for j in range(n):
            if i != j:
                v = la.vec_sub(_e(n, i), _e(n, j))
                yield v, v


def _pm_pairs(n: int):
    """(±e_i ± e_j, same vector) for i ≠ j, each root listed once."""
    for i in range(n):
        for j in range(i + 1, n):
            for si, sj in itertools.product((1, -1), repeat=2):
                v = la.vec_add(_e(n, i, si), _e(n, j, sj))
                yield v, v


def _a_simple(n: int) -> list:
    return [la.vec_sub(_e(n, i), _e(n, i + 1)) for i in range(n - 1)]


def _so_even(n: int) -> rd.RootDatum:
    """Every root ±e_i ± e_j converted to the closed-form coordinates of the
    rootdata module docstring, in both lattices."""

    def char_coords(v):
        sums = list(itertools.accumulate(v[:-1]))
        s, last = sums.pop(), v[-1]
        if (s + last) % 2:
            raise ValueError(f"SO_even{n}: {v} is not in the character lattice")
        return tuple(sums + [(s - last) // 2, (s + last) // 2])

    def cochar_coords(v):
        return tuple([x - v[-1] for x in v[:-1]] + [2 * v[-1]])

    pairs = [(char_coords(v), cochar_coords(v)) for v, _ in _pm_pairs(n)]
    basis = rd.so_even_char_basis(n)
    simple = [char_coords(v) for v in la.transpose(basis)]
    pairing = tuple(tuple([x // 2 for x in row]) for row in la.mat_mul(la.transpose(basis), rd.so_even_cochar_basis(n)))
    return sorted_datum(pairs, simple, pairing, ("SO_even", n))


def enumerated_datum(family: str, n: int = 0) -> rd.RootDatum:
    """The root datum of build_root_datum(family, n) from a list of all its
    roots and coroots."""
    if family == "GL":
        return sorted_datum(_gl_pairs(n), _a_simple(n), la.identity_matrix(n), ("GL", n))
    if family in ("SL", "PGL"):
        pairing_sl = tuple(tuple(int(u == v) - int(u == v + 1) for v in range(n - 1)) for u in range(n - 1))
        pairs = []
        for v, _ in _gl_pairs(n):
            rep = tuple(v[t] - v[n - 1] for t in range(n - 1))  # the representative with last coordinate 0
            sz = tuple(itertools.accumulate(v[:-1]))  # coordinates in the basis f_t = e_t − e_{t+1}
            pairs.append((rep, sz) if family == "SL" else (sz, rep))
        simple_sl = [tuple(v[t] - v[n - 1] for t in range(n - 1)) for v in _a_simple(n)]
        if family == "SL":
            return sorted_datum(pairs, simple_sl, pairing_sl, ("SL", n))
        simple_pgl = [tuple(itertools.accumulate(v[:-1])) for v in _a_simple(n)]
        return sorted_datum(pairs, simple_pgl, la.transpose(pairing_sl), ("PGL", n))
    if family in ("Sp", "SO_odd"):
        # Sp: long roots ±2e_i with coroots ±e_i; SO_odd: short roots ±e_i with coroots ±2e_i
        long_short = [(2, 1), (-2, -1)] if family == "Sp" else [(1, 2), (-1, -2)]
        pairs = [(_e(n, i, a), _e(n, i, c)) for i in range(n) for a, c in long_short] + list(_pm_pairs(n))
        simple = _a_simple(n) + [_e(n, n - 1, long_short[0][0])]
        return sorted_datum(pairs, simple, la.identity_matrix(n), (family, n))
    if family == "SO_even":
        return _so_even(n)
    if family == "G2":
        return sorted_datum(G2_PAIRS, [(2, -1), (-3, 2)], la.identity_matrix(2), ("G2", 0))
    raise ValueError(f"unknown family {family!r}")


def levi_datum_by_span(datum: rd.RootDatum, positions) -> rd.RootDatum:
    """The Levi datum of the chosen simple positions: the roots of datum in
    the rational span of the chosen simple roots, each found by a rational
    solve, in the order of datum."""
    chosen = [datum.simple[p] for p in sorted(set(positions))]
    keep = ()
    if chosen:
        span = la.transpose([datum.roots[i] for i in chosen])
        keep = tuple(i for i, alpha in enumerate(datum.roots) if rational_solve(span, alpha) is not None)
    roots = tuple(datum.roots[i] for i in keep)
    coroots = tuple(datum.coroots[i] for i in keep)
    simple = tuple(roots.index(datum.roots[i]) for i in chosen)
    return rd.RootDatum(datum.pairing, roots, coroots, simple, None)


def data_equal(a: rd.RootDatum, b: rd.RootDatum) -> bool:
    """Equality of the underlying data (pairing, root sets)."""
    return a.pairing == b.pairing and sorted(zip(a.roots, a.coroots)) == sorted(zip(b.roots, b.coroots))
