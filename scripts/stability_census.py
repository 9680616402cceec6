#!/usr/bin/env python3
"""Census of slope stability over random circle cocycles.

Samples cocycles for GL_n on a unit circle and reports, per rank and per
monodromy cycle type, how many are stable / properly semistable / unstable,
cross-checking the parabolic-reduction test against the equal-slope cover
criterion on every sample.

Usage: python scripts/stability_census.py [--samples 300] [--seed 0]
"""

import argparse
import json
import random
from collections import Counter
from fractions import Fraction as Q

from tropgroups import stability
from tropgroups.errors import InvariantError
from tropgroups.groups import build_group
from tropgroups.permutations import cycles_of
from tropgroups.verify import sample_gl_cocycle, semistable_by_multiline


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    for n in range(2, args.max_n + 1):
        g = build_group("GL", n)
        tally = Counter()
        for _ in range(args.samples):
            c = sample_gl_cocycle(rng, g, Q(1))
            verdict = stability.stability_verdict(c)
            if verdict.semistable != semistable_by_multiline(c):
                raise InvariantError(
                    f"the parabolic-reduction verdict (semistable: {verdict.semistable}) disagrees with "
                    f"the equal-slope cover criterion on the cocycle {json.dumps(c.to_json())}"
                )
            cycle_type = tuple(
                sorted((len(cyc) for cyc in cycles_of(g.weyl.perm(c.mono_idx))), reverse=True)
            )
            if verdict.stable:
                kind = "stable"
            elif verdict.semistable:
                kind = "semistable"
            else:
                kind = "unstable"
            tally[(cycle_type, kind)] += 1
        print(f"== GL_{n} ({args.samples} samples)")
        for (cycle_type, kind), count in sorted(tally.items()):
            print(f"   cycles {str(cycle_type):<14} {kind:<11} {count}")
        print()


if __name__ == "__main__":
    main()
