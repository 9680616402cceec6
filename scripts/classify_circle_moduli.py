#!/usr/bin/env python3
"""Tabulate the moduli components of bundles on a circle for several families.

For each family the table lists one row per monodromy conjugacy class: the
torus rank (dimension of the continuous part), the invariant factors of the
discrete part, and the order of the residual centralizer action.

Usage: python scripts/classify_circle_moduli.py [--max-n 4]
"""

import argparse

from tropgroups import classify_components
from tropgroups.groups import build_group


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()

    targets = [("GL", n) for n in range(1, args.max_n + 1)]
    targets += [("SL", n) for n in range(2, args.max_n + 1)]
    targets += [("PGL", n) for n in range(2, args.max_n + 1)]
    targets += [("Sp", 2), ("SO_even", 2), ("G2", 0)]

    for family, n in targets:
        g = build_group(family, n)
        comps = classify_components(g)
        name = f"{family}_{n}" if n else family
        print(f"== {name}:  |W| = {len(g.weyl)}, pi1 = {list(g.pi1.invariant_factors)}, "
              f"{len(comps)} components")
        for comp in comps:
            size = comp.component_size if comp.component_size is not None else "inf"
            print(
                f"   class@{comp.class_rep:>3} (x{comp.class_size:<3}) "
                f"torus rank {comp.torus_rank}, factors {list(comp.invariant_factors)}, "
                f"centralizer {comp.centralizer_order}, points {size}"
            )
        print()


if __name__ == "__main__":
    main()
