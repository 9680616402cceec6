"""Named verification suites over the circle-bundle classification.

Each suite recomputes a countable claim two independent ways where possible
(closed form vs. explicit enumeration with the isomorphism tester) and
returns a JSON-serializable report with one entry per case.  Every suite
holds its groups to the Weyl-group size guard it is given.  A sampled suite
passes one function per trial to ``_trials``, the one trial loop.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import combinations
from typing import Optional

from . import circles, stability
from .errors import InvariantError
from .groups import TropicalGroup, build_group, hom_det
from .weyl import DEFAULT_GUARD, relative_weyl_check


def indecomposable_class_rep(g: TropicalGroup) -> int:
    """Least element of the conjugacy class of full-cycle products."""
    return g.weyl.parabolic(range(len(g.datum.simple))).indecomposables[0]


def count_component_classes(g: TropicalGroup, j, w_idx: int) -> int:
    """Isomorphism classes with the given monodromy, by explicit enumeration.

    Only valid for finite components (no torus part): slope residues with
    offset zero hit every class, and the iso tester deduplicates them.
    """
    reps = [circles.cocycle(g, m, (0,) * g.rank, w_idx, j) for m in circles.slope_residues(g, w_idx)]
    distinct = []
    for c in reps:
        if not any(circles.are_isomorphic(c, d) for d in distinct):
            distinct.append(c)
    return len(distinct)


def _full_cycle_count(family: str, n: int, j, guard: int):
    """The component of the full-cycle class of the group and its isomorphism
    classes counted by enumeration."""
    j = circles.checked_length(j)
    g = build_group(family, n, guard)
    rep = indecomposable_class_rep(g)
    return circles.component_for_class(g, rep), count_component_classes(g, j, rep)


def sl_count(n: int, j=1, guard: int = DEFAULT_GUARD) -> dict:
    """SL_n with full-cycle monodromy: n classes and no torus, in closed form and enumerated."""
    comp, enumerated = _full_cycle_count("SL", n, j, guard)
    ok = comp.component_size == n and enumerated == n and comp.torus_rank == 0
    return {
        "suite": "sl-count",
        "n": n,
        "component_size": comp.component_size,
        "enumerated": enumerated,
        "invariant_factors": list(comp.invariant_factors),
        "pass": ok,
    }


def pgl_count(n: int, j=1, guard: int = DEFAULT_GUARD) -> dict:
    """PGL_n with full-cycle monodromy: π₁ = ℤ/n and n classes, in closed form and enumerated."""
    comp, enumerated = _full_cycle_count("PGL", n, j, guard)
    ok = comp.invariant_factors == (n,) and enumerated == n and comp.torus_rank == 0
    return {
        "suite": "pgl-count",
        "n": n,
        "invariant_factors": list(comp.invariant_factors),
        "enumerated": enumerated,
        "pass": ok,
    }


def random_rational(rng: random.Random) -> Q:
    return Q(rng.randint(-8, 8), rng.randint(1, 6))


def sample_gl_cocycle(
    rng: random.Random,
    g: TropicalGroup,
    j,
    degree: Optional[int] = None,
    w_idx: Optional[int] = None,
) -> circles.CircleCocycle:
    """Random GL-family cocycle, optionally with prescribed degree and monodromy."""
    n = g.rank
    m = [rng.randint(-5, 5) for _ in range(n)]
    if degree is not None:
        m[-1] = degree - sum(m[:-1])
    alpha = [random_rational(rng) for _ in range(n)]
    if w_idx is None:
        w_idx = rng.randrange(len(g.weyl))
    return circles.cocycle(g, m, alpha, w_idx, j)


def _trials(samples: int, seed: int, trial) -> dict:
    """The sampled half of a report: trial(t, rng) for t < samples on one
    generator seeded with seed, each returning (agrees, details).  The first
    trial that disagrees is named in ``first_failure`` with its index, the
    seed and its details, enough to rerun it."""
    rng = random.Random(seed)
    agree = 0
    first_failure = None
    for t in range(samples):
        agrees, details = trial(t, rng)
        if agrees:
            agree += 1
        elif first_failure is None:
            first_failure = {"trial": t, "seed": seed, **details}
    report = {"samples": samples, "agreeing": agree, "pass": agree == samples}
    if first_failure is not None:
        report["first_failure"] = first_failure
    return report


def det_homeo(n: int, d: int, samples: int = 100, seed: int = 0, j=1, guard: int = DEFAULT_GUARD) -> dict:
    """Equal determinant ⟺ isomorphic, on the stable-degree indecomposable part.

    The determinant of a cocycle is its pushforward along det: GL_n → GL_1.
    A report with a disagreeing trial names the first one in ``first_failure``:
    its index, the seed and both cocycles, enough to rerun it.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive count, not {samples}")
    jq = circles.checked_length(j)
    g = build_group("GL", n, guard)
    if not stability.is_stable_degree(g, (d,) + (0,) * (n - 1)):
        raise ValueError("degree is not stable for this rank")
    det = hom_det(n, guard)
    rep = indecomposable_class_rep(g)
    cls = g.weyl.class_of(rep)
    comp = circles.component_for_class(g, rep)
    target = circles.component_for_class(det.target, det.target.weyl.identity_idx)
    discrete_ok = (comp.torus_rank, comp.invariant_factors) == (
        target.torus_rank,
        target.invariant_factors,
    )

    def trial(t, rng):
        c1 = sample_gl_cocycle(rng, g, jq, degree=d, w_idx=rng.choice(cls))
        c2 = sample_gl_cocycle(rng, g, jq, degree=d, w_idx=rng.choice(cls))
        alpha = list(c2.offset)
        slope = list(c2.slope)
        # rebase the offset sum onto c1's, then shift it by a gauge period
        # (equal determinants), by a fractional period (unequal Jacobian),
        # or bump the degree (unequal determinant in the free part)
        alpha[-1] += sum(c1.offset, Q(0)) - sum(c2.offset, Q(0)) + jq * rng.randint(-2, 2)
        if t % 2 == 1:
            if t % 4 == 1:
                alpha[-1] += Q(1, 3) * jq
            else:
                slope[-1] += 1
        c2 = circles.cocycle(g, slope, alpha, c2.mono_idx, jq)
        dets_isomorphic = circles.are_isomorphic(circles.pushforward(det, c1), circles.pushforward(det, c2))
        full_isomorphic = circles.are_isomorphic(c1, c2)
        return dets_isomorphic == full_isomorphic == (t % 2 == 0), {
            "cocycles": [c1.to_json(), c2.to_json()],
            "expected_isomorphic": t % 2 == 0,
            "determinants_isomorphic": dets_isomorphic,
            "isomorphic": full_isomorphic,
        }

    report = {"suite": "det-homeo", "n": n, "d": d, "discrete_invariants_match": discrete_ok}
    report |= _trials(samples, seed, trial)
    report["pass"] = discrete_ok and report["pass"]
    return report


RELATIVE_WEYL_GROUPS = (("GL", 4), ("Sp", 2), ("Sp", 3), ("G2", 0))


def relative_weyl(guard: int = DEFAULT_GUARD) -> dict:
    """The centralizer-quotient bijection over every type-A parabolic and
    every indecomposable element, for the fixed list of ambient groups."""
    cases = []
    for family, n in RELATIVE_WEYL_GROUPS:
        g = build_group(family, n, guard)
        n_simple = len(g.datum.simple)
        for size in range(0, n_simple + 1):
            for positions in combinations(range(n_simple), size):
                p = g.weyl.parabolic(positions)
                if p.paths is None:
                    continue
                for w_idx in p.indecomposables:
                    try:
                        result = relative_weyl_check(g.weyl, positions, w_idx)
                        ok = True
                        detail = {
                            "cosets": len(result.iso_witness),
                        }
                    except InvariantError as exc:
                        ok = False
                        detail = {"error": str(exc)}
                    cases.append(
                        {
                            "group": f"{family}{n or ''}",
                            "positions": list(positions),
                            "element": w_idx,
                            "pass": ok,
                            **detail,
                        }
                    )
    return {"suite": "relative-weyl", "cases": cases, "pass": all(c["pass"] for c in cases)}


def semistable_by_multiline(c: circles.CircleCocycle) -> bool:
    """Equal-slope criterion: every cover component has the same degree/length."""
    mlb = circles.to_multiline(c)
    slopes = {Q(comp.line_degree) / comp.length for comp in mlb.components}
    return len(slopes) <= 1


def stability_multiline(n: int, samples: int = 100, seed: int = 0, j=1, guard: int = DEFAULT_GUARD) -> dict:
    """The slope semistability verdict against the equal-slope criterion of the
    pushforward of line bundles, on random GL_n cocycles.

    A report with a disagreeing trial names the first one in ``first_failure``:
    its index, the seed, the cocycle and both answers, enough to rerun it.
    """
    if samples < 1:
        raise ValueError(f"samples must be a positive count, not {samples}")
    jq = circles.checked_length(j)
    g = build_group("GL", n, guard)

    def trial(t, rng):
        c = sample_gl_cocycle(rng, g, jq)
        verdict = stability.stability_verdict(c).semistable
        multiline = semistable_by_multiline(c)
        return verdict == multiline, {
            "cocycle": c.to_json(),
            "semistable": verdict,
            "semistable_by_multiline": multiline,
        }

    return {"suite": "stability-multiline", "n": n, **_trials(samples, seed, trial)}


# the suites by name; the command line gives each suite one option per
# parameter of its function and no other
SUITES = {
    "sl-count": sl_count,
    "pgl-count": pgl_count,
    "det-homeo": det_homeo,
    "relative-weyl": relative_weyl,
    "stability-multiline": stability_multiline,
}
