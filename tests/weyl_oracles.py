"""Subgroup closures of a Weyl group that only the tests use: the subgroup
generated by given elements, and the standard parabolic W_P as the closure of
its simple reflections, the oracle for the coset search of
``stability.parabolic_subgroup``."""

from __future__ import annotations

from typing import Sequence

from tropgroups.weyl import WeylGroup


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
