"""Work budgets: exact counts of named library calls on fixed inputs.

Timings are noisy, but these counts are algorithmic and do not depend on the
host, so they are pinned.  A change to the work these inputs do updates the
pin and writes old → new for each count in CHANGES.md.  Calls are counted by
wrapping module attributes from outside, as bench/tracing.py does, so the
library carries no counters.
"""

import contextlib
import functools
import io
from collections import Counter
from fractions import Fraction as Q

from tropgroups import circles, cli, groups, weyl
from tropgroups import intlinalg as la
from tropgroups.groups import build_group

# every built family at each size with |W| <= 720
CLASSIFY_GRID = (
    ("GL", 3), ("GL", 4), ("GL", 5), ("GL", 6),
    ("SL", 4), ("SL", 5),
    ("PGL", 4), ("PGL", 5),
    ("Sp", 2), ("Sp", 3), ("Sp", 4),
    ("SO_odd", 2), ("SO_odd", 3), ("SO_odd", 4),
    ("SO_even", 3), ("SO_even", 4),
    ("G2", 0),
)


def count_calls(monkeypatch, module, *names) -> Counter:
    """A Counter of calls to each named function of the module, from now
    until the test ends: each module attribute is replaced by a wrapper."""
    calls = Counter({name: 0 for name in names})

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return calls


def test_cold_classify_grid_budget(monkeypatch):
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    closure = count_calls(monkeypatch, weyl, "_times", "_model_perm", "_check_presentation")
    algebra = count_calls(monkeypatch, la, "smith_normal_form", "integer_rref")
    for family, n in CLASSIFY_GRID:
        groups._GROUP_CACHE.clear()  # each case builds its group cold, as a fresh process does
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", family, str(n), "--j", "1"]) == 0
    # the closure multiplies once per discovery edge, Σ(|W| − 1) = 2,249 over
    # the grid, and 340 times for the words of the Coxeter presentation
    assert closure == {"_times": 2589, "_model_perm": 55, "_check_presentation": 17}
    assert algebra == {"smith_normal_form": 157, "integer_rref": 0}


def iso_pairs():
    """(a, b, isomorphic): two gauge-equivalent pairs per group, a pair whose
    monodromies lie in different classes, and on GL one that moves the
    determinant's offset sum by j/3."""
    pairs = []
    for family, n in (("GL", 3), ("Sp", 2), ("SO_odd", 2), ("G2", 0)):
        g = build_group(family, n)
        r, w = g.rank, functools.reduce(g.weyl.mul, g.weyl.simple_gens)  # a Coxeter element
        a = circles.cocycle(g, list(range(1, r + 1)), [Q(t, 3) for t in range(r)], w, Q(1, 2))
        pairs.append((a, circles.gauge_transform(a, [1] + [0] * (r - 1), [Q(1, 5)] * r, 1), True))
        pairs.append((a, circles.gauge_transform(a, [-1] * r, [0] * r, w), True))
        pairs.append((a, circles.cocycle(g, a.slope, a.offset, g.weyl.identity_idx, a.length), False))
        if family == "GL":
            offset = a.offset[:-1] + (a.offset[-1] + a.length / 3,)
            pairs.append((a, circles.cocycle(g, a.slope, offset, w, a.length), False))
    return pairs


def test_iso_budget_is_one_rref_per_witness(monkeypatch):
    pairs = iso_pairs()
    calls = count_calls(monkeypatch, la, "integer_rref")
    for a, b, isomorphic in pairs:
        before = calls["integer_rref"]
        witness = circles.isomorphism_witness(a, b)
        assert (witness is not None) == isomorphic
        # the β solve of the witness found; a negative never reaches it
        assert calls["integer_rref"] - before == isomorphic
    assert calls["integer_rref"] == 8
