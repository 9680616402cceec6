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

from tropgroups import circles, cli, groups, stability, verify, weyl
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


def count_calls(monkeypatch, owner, *names) -> Counter:
    """A Counter of calls to each named function of the module or class, from
    now until the test ends: each attribute is replaced by a wrapper."""
    calls = Counter({name: 0 for name in names})

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(owner, name, wrap(name, getattr(owner, name)))
    return calls


def test_cold_classify_grid_budget(monkeypatch):
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    closure = count_calls(monkeypatch, weyl, "_times", "_model_perm", "_check_presentation")
    algebra = count_calls(monkeypatch, la, "smith_normal_form", "snf_transforms", "integer_rref")
    views = {}
    for family, n in CLASSIFY_GRID:
        groups._GROUP_CACHE.clear()  # each case builds its group cold, as a fresh process does
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["classify", family, str(n), "--j", "1"]) == 0
        w = groups._GROUP_CACHE[family, n].weyl
        views[family, n] = [name for name in ("perms", "_by_perm", "elements", "inverse") if name in vars(w)]
    # the closure multiplies once per discovery edge, Σ(|W| − 1) = 2,249 over
    # the grid, and 340 times for the words of the Coxeter presentation
    assert closure == {"_times": 2589, "_model_perm": 55, "_check_presentation": 17}
    # one elimination per class quotient (144) and per π₁ (13: a GL group has
    # no finite quotient, so no degree to project); u and u⁻¹ are replayed for
    # the 31 finite quotients, whose lifts are read, and the 13 π₁ they project to
    assert algebra == {"smith_normal_form": 157, "snf_transforms": 44, "integer_rref": 0}
    # the report reads the matrices and the tables: no permutation view is built
    assert views == {case: [] for case in CLASSIFY_GRID}


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
    # the witness conjugates its monodromy by WeylGroup.conj: no product of two indices
    products = count_calls(monkeypatch, weyl.WeylGroup, "mul")
    for a, b, isomorphic in pairs:
        before = calls["integer_rref"]
        witness = circles.isomorphism_witness(a, b)
        assert (witness is not None) == isomorphic
        # the β solve of the witness found; a negative never reaches it
        assert calls["integer_rref"] - before == isomorphic
    assert calls["integer_rref"] == 8
    assert products["mul"] == 0


def test_cold_relative_weyl_budget(monkeypatch):
    # the suite once made 104 coset walks, 28 normalizer scans and 1,350
    # conjugations; now one walk per parabolic and one conjugators call per
    # indecomposable element, with no product of two indices
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    # the ∏A diagrams are read off the Coxeter matrix that the closure keeps: no order_of
    calls = count_calls(monkeypatch, weyl.WeylGroup, "orbits", "conj", "conjugators", "mul", "order_of")
    assert verify.relative_weyl()["pass"]
    assert calls == {"orbits": 24, "conj": 634, "conjugators": 28, "mul": 0, "order_of": 0}


def test_cold_stability_budget(monkeypatch):
    # per group, the identity, a simple reflection and a Coxeter element, each
    # with the slopes e_1 and (1, 2, …, r)
    monkeypatch.setattr(groups, "_GROUP_CACHE", {})
    cocycles = []
    for family, n in (("GL", 4), ("Sp", 3), ("G2", 0)):
        g = build_group(family, n)
        r, w = g.rank, g.weyl
        for mono in (w.identity_idx, w.simple_gens[0], functools.reduce(w.mul, w.simple_gens)):
            cocycles += [circles.cocycle(g, m, [0] * r, mono, 1) for m in ([1] + [0] * (r - 1), list(range(1, r + 1)))]
    scans = count_calls(monkeypatch, weyl.WeylGroup, "conj", "order_of")
    order = count_calls(monkeypatch, stability, "_dominance")
    built = count_calls(monkeypatch, weyl, "Parabolic")
    solves = count_calls(monkeypatch, la, "rref_inverse")
    verdicts = [stability.stability_verdict(c) for c in cocycles]
    assert [sum(v.semistable for v in verdicts), sum(v.stable for v in verdicts)] == [7, 6]
    # each of the 2^r parabolics of a group is built once, by its first verdict
    assert [scans["conj"], order["_dominance"], built["Parabolic"]] == [306, 334, 8 + 8 + 4]
    # one Cartan inverse per group for its coroot frame, which the full parabolic
    # takes, and one per other parabolic but the torus: 3 + (6 + 6 + 2); each ∏A
    # diagram is read off the Coxeter matrix that the closure keeps
    assert [solves["rref_inverse"], scans["order_of"]] == [17, 0]
