"""Permutations as 0-based tuples: sigma[i] is the image of i."""

from __future__ import annotations

import operator
from typing import Callable, Sequence


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def precompose(s: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map t ↦ t∘s = (t[s[0]], t[s[1]], …), one C call for s of degree
    two or more (itemgetter with a single index returns an item, not a tuple)."""
    return operator.itemgetter(*s) if len(s) > 1 else lambda t: tuple([t[i] for i in s])


def compose_perm(s: Sequence[int], t: Sequence[int]) -> tuple[int, ...]:
    """(s∘t)(i) = s(t(i))."""
    return precompose(t)(s)


def invert_perm(s: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(s)
    for i, v in enumerate(s):
        inv[v] = i
    return tuple(inv)


def cycles_of(s: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles sorted by least element, each starting at its least element."""
    seen = [False] * len(s)
    out = []
    for i in range(len(s)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = s[j]
        out.append(tuple(cyc))
    return tuple(out)


def sign_involution(m: int) -> tuple[int, ...]:
    """The sign involution on positions.

    Even m = 2n: positions (0..n−1, n..2n−1) are labels (1..n, −1..−n) and
    the involution swaps i ↔ i+n.  Odd m = 2n+1: position 0 is the label 0
    (the unique fixed point) and positions (1..n, n+1..2n) swap likewise.
    """
    if m % 2 == 0:
        n = m // 2
        return tuple((i + n) % m for i in range(m))
    n = m // 2
    out = [0]
    for i in range(1, m):
        out.append(i + n if i <= n else i - n)
    return tuple(out)
