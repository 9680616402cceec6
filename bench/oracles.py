"""Closed forms and exact linear algebra the benchmark checks outputs against.

Nothing here calls the library, so an oracle cannot share a defect with the
routine it checks.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import factorial


@lru_cache(maxsize=None)
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts at most `largest`, parts descending."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    out = []
    for part in range(min(n, largest), 0, -1):
        out.extend((part,) + rest for rest in partitions(n - part, part))
    return tuple(out)


def weyl_order(family: str, n: int) -> int:
    """|W| of the family: n! for type A, 2ⁿn! for B/C, 2ⁿ⁻¹n! for D, 12 for G₂."""
    if family in ("GL", "SL", "PGL"):
        return factorial(n)
    if family in ("Sp", "SO_odd"):
        return 2**n * factorial(n)
    if family == "SO_even":
        return 2 ** (n - 1) * factorial(n)
    if family == "G2":
        return 12
    raise ValueError(family)


def weyl_class_count(family: str, n: int) -> int:
    """Number of conjugacy classes of W (Carter 1972).

    Type A: partitions of n.  Types B/C: bipartitions (α, β) of n, β holding
    the negative cycles.  Type D: bipartitions whose β has an even number of
    parts, plus one more class for each β = ∅ with every part of α even, where
    the B-class splits in two.  G₂: the dihedral group of order 12 has 6.
    """
    if family in ("GL", "SL", "PGL"):
        return len(partitions(n))
    if family == "G2":
        return 6
    pairs = [(a, b) for k in range(n + 1) for a in partitions(n - k) for b in partitions(k)]
    if family in ("Sp", "SO_odd"):
        return len(pairs)
    if family == "SO_even":
        split = sum(1 for a in partitions(n) if all(p % 2 == 0 for p in a))
        return sum(1 for _, b in pairs if len(b) % 2 == 0) + split
    raise ValueError(family)


def rank_and_det(rows) -> tuple[int, Q]:
    """Rank and determinant (0 unless square and invertible) by exact elimination."""
    a = [[Q(x) for x in row] for row in rows]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    rank, det = 0, Q(1)
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if a[r][col] != 0), None)
        if pivot is None:
            det = Q(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        det *= a[rank][col]
        for r in range(rank + 1, n_rows):
            f = a[r][col] / a[rank][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, det if n_rows == n_cols else Q(0)


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def conjugacy_class_ids(elements, generators) -> list[int]:
    """Class id of each element: orbits under conjugation by the generators.

    `elements` are the group's matrices in index order and `generators`
    indices of involutions generating the group, so s·x·s is conjugation.
    """
    index = {m: i for i, m in enumerate(elements)}
    gens = [elements[g] for g in generators]
    ids = [-1] * len(elements)
    for start in range(len(elements)):
        if ids[start] >= 0:
            continue
        ids[start] = start
        stack = [start]
        while stack:
            x = elements[stack.pop()]
            for s in gens:
                y = index[mat_mul(mat_mul(s, x), s)]
                if ids[y] < 0:
                    ids[y] = start
                    stack.append(y)
    return ids


def permutation_of_signed_matrix(w) -> tuple[int, ...]:
    """Sheet permutation of a signed permutation matrix acting on ℤⁿ.

    Sheet i carries +e_i and sheet n+i carries −e_i, the labelling of the
    symplectic cover; w·e_c = ±e_r sends sheet c to r or n+r.
    """
    n = len(w)
    image = [0] * (2 * n)
    for c in range(n):
        r = next(r for r in range(n) if w[r][c])
        image[c], image[n + c] = (r, n + r) if w[r][c] > 0 else (n + r, r)
    return tuple(image)


def cycle_sets(perm) -> set[frozenset[int]]:
    out, seen = set(), set()
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = perm[x]
        out.add(frozenset(cyc))
    return out
