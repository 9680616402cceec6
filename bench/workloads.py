"""The benchmark's four workloads: inputs, timed calls, oracles and outputs.

Each workload class provides

* ``setup()``: build what a user builds once per process, and warm it with
  one operation per group, so lazy caches are filled before timing starts;
* ``block(rng)``: the next block of operations.  Every block has the same
  composition (groups, operation kinds, sizes), and only the inputs inside it
  are drawn from the seed, so a run's mix does not depend on where it stops;
* ``prepare(op)``: untimed work before an operation;
* ``run(op)``: the timed call into the library;
* ``check(op, out)``: ``None`` when the output passes the oracle, else a
  message.  Oracles run outside the timed region;
* ``output(op, out)``: the JSON value hashed into the run's output digest;
* ``case(op)``: for a workload that repeats a fixed set of cases, the case
  the operation belongs to, else ``None``.

Why each workload exists, and which layers it loads, is in NOTES.md.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
from collections import Counter
from fractions import Fraction as Q

import oracles
from tropgroups import circles, cli, groups, semiring, stability


def _rational(rng: random.Random, num: int = 6, den: int = 4) -> Q:
    return Q(rng.randint(-num, num), rng.randint(1, den))


def _length(rng: random.Random) -> Q:
    return Q(rng.randint(1, 4), rng.randint(1, 2))


def _cocycle(rng: random.Random, g, w_idx=None) -> circles.CircleCocycle:
    """Slope in [-3, 3]^r, small rational offsets, monodromy uniform over W unless given."""
    if w_idx is None:
        w_idx = rng.randrange(len(g.weyl))
    return circles.cocycle(
        g,
        [rng.randint(-3, 3) for _ in range(g.rank)],
        [_rational(rng) for _ in range(g.rank)],
        w_idx,
        _length(rng),
    )


def _gauge(rng: random.Random, g) -> tuple:
    """A random gauge (k, β, v) with v uniform over W."""
    return (
        [rng.randint(-2, 2) for _ in range(g.rank)],
        [_rational(rng) for _ in range(g.rank)],
        rng.randrange(len(g.weyl)),
    )


def _build(cases) -> dict:
    return {(family, n): groups.build_group(family, n) for family, n in cases}


GOLDEN = (5**0.5 - 1) / 2


class _Spread:
    """Uniform draws from range(size) whose mix over a run stays near its share.

    Draw k is ⌊frac(u + k·φ)·size⌋ with u uniform from the seed and φ the
    golden ratio: each draw is uniform, and successive draws spread evenly,
    so when the range is sorted by conjugacy class a run holds each class in
    close to its share.  Verdict cost depends mostly on the class, so this
    keeps a run's figures from hanging on a few lucky draws.
    """

    def __init__(self, rng: random.Random, size: int):
        self.u, self.k, self.size = rng.random(), 0, size

    def draw(self) -> int:
        x = (self.u + self.k * GOLDEN) % 1.0
        self.k += 1
        return int(x * self.size)


class _Classes:
    """Conjugacy classes of a group's Weyl group, computed by the benchmark."""

    def __init__(self, g):
        self.ids = oracles.conjugacy_class_ids([e.matrix for e in g.weyl.elements], g.weyl.simple_gens)
        by_id = {}
        for idx, cid in enumerate(self.ids):
            by_id.setdefault(cid, []).append(idx)
        self.classes = list(by_id.values())
        self.by_class = [idx for cls in self.classes for idx in cls]


class Workload:
    """Defaults: nothing to do before an operation, and no fixed cases."""

    def prepare(self, op):
        pass

    def case(self, op):
        return None


# ---------------------------------------------------------------------------
# classify: cold moduli classification through the CLI
# ---------------------------------------------------------------------------

CLASSIFY_GRID = (
    ("GL", 3), ("GL", 4), ("GL", 5), ("GL", 6),
    ("SL", 4), ("SL", 5),
    ("PGL", 4), ("PGL", 5),
    ("Sp", 2), ("Sp", 3), ("Sp", 4),
    ("SO_odd", 2), ("SO_odd", 3), ("SO_odd", 4),
    ("SO_even", 3), ("SO_even", 4),
    ("G2", 0),
)  # every built family at each size with |W| <= 720


class Classify(Workload):
    digest_blocks = 1

    def setup(self):
        self.prepare(None)
        self.run(("GL", 2, "1"))  # loads the CLI path on a group outside the grid

    def block(self, rng):
        ops = [(family, n, semiring.rational_to_str(_length(rng))) for family, n in CLASSIFY_GRID]
        rng.shuffle(ops)
        return ops

    def prepare(self, op):
        # every operation pays a cold build_group and starts with no garbage
        # left by earlier ones, as in a fresh CLI process
        groups._GROUP_CACHE.clear()
        gc.collect()

    def run(self, op):
        family, n, j = op
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["classify", family, str(n), "--j", j])
        return code, buf.getvalue()

    def check(self, op, out):
        family, n, j = op
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if (report["family"], report["n"], report["j"]) != (family, n, j):
            return "report names another case"
        comps = report["components"]
        order = oracles.weyl_order(family, n)
        if len(comps) != oracles.weyl_class_count(family, n):
            return f"{len(comps)} components, closed form says {oracles.weyl_class_count(family, n)}"
        if sum(c["class_size"] for c in comps) != order:
            return "class sizes do not sum to |W|"
        # the group is still cached from the operation, so this is a lookup
        elements = groups.build_group(family, n).weyl.elements
        for c in comps:
            if c["class_size"] * c["centralizer_order"] != order:
                return f"class {c['class_rep']}: size x centralizer order != |W|"
            w = elements[c["class_rep"]].matrix
            rank, det = oracles.rank_and_det(
                [[int(r == s) - w[r][s] for s in range(len(w))] for r in range(len(w))]
            )
            if c["torus_rank"] != len(w) - rank:
                return f"class {c['class_rep']}: torus rank != corank of 1 - w"
            if c["torus_rank"] == 0:
                if math.prod(c["invariant_factors"]) != abs(det):
                    return f"class {c['class_rep']}: product of invariant factors != |det(1 - w)|"
                if len(c["degree_fiber"]) != abs(det):
                    return f"class {c['class_rep']}: degree fiber size != |det(1 - w)|"
        return None

    def output(self, op, out):
        return {"exit": out[0], "stdout": out[1]}

    def case(self, op):
        return op[:2]


# ---------------------------------------------------------------------------
# stability: slope (semi)stability verdicts over warm groups
# ---------------------------------------------------------------------------

# (family, n, operations per block): semisimple rank <= 3 carries the count,
# GL5, Sp4 and SO_even4 (rank 4, 15 proper parabolics) are the slow tail
STABILITY_BLOCK = (
    ("GL", 4, 4), ("Sp", 3, 4), ("SO_odd", 3, 4), ("G2", 0, 4),
    ("GL", 5, 1), ("Sp", 4, 1), ("SO_even", 4, 1),
)
GAUGE_CHECK_EVERY = 10


def _equal_slopes(c: circles.CircleCocycle) -> bool:
    """GL semistability by the equal-slope multi-line criterion.

    The monodromy is a permutation matrix; each of its cycles is a cover
    component of length |cycle|·j whose line bundle has degree the cycle sum
    of m.  Only degrees and lengths enter: the Jacobian coordinate of
    ``to_multiline`` is not gauge-invariant (see NOTES.md).
    """
    w = c.group.weyl.elements[c.mono_idx].matrix
    perm = [next(r for r in range(len(w)) if w[r][col]) for col in range(len(w))]
    cycles = oracles.cycle_sets(perm)
    return len({Q(sum(c.slope[i] for i in cyc), len(cyc)) for cyc in cycles}) <= 1


def _violations(verdict) -> Counter:
    return Counter(json.dumps(v, sort_keys=True) for v in verdict.to_json()["violations"])


class Stability(Workload):
    digest_blocks = 4

    def setup(self):
        self.groups = _build((family, n) for family, n, _ in STABILITY_BLOCK)
        rng = random.Random("warm-up")
        for g in self.groups.values():
            stability.stability_verdict(_cocycle(rng, g))
        self.generated = 0
        self.draws = None

    def block(self, rng):
        if self.draws is None:  # input generation, so not part of set-up
            self.draws = {}
            for key, g in self.groups.items():
                self.draws[key] = (_Classes(g).by_class, _Spread(rng, len(g.weyl)))
        cocycles = []
        for family, n, copies in STABILITY_BLOCK:
            elements, spread = self.draws[family, n]
            for _ in range(copies):
                cocycles.append(_cocycle(rng, self.groups[family, n], elements[spread.draw()]))
        rng.shuffle(cocycles)
        ops = []
        for c in cocycles:
            gauge = _gauge(rng, c.group) if self.generated % GAUGE_CHECK_EVERY == 0 else None
            self.generated += 1
            ops.append((c, gauge))
        return ops

    def run(self, op):
        return stability.stability_verdict(op[0])

    def check(self, op, out):
        c, gauge = op
        if out.stable and not out.semistable:
            return "stable but not semistable"
        if c.group.family[0] == "GL" and out.semistable != _equal_slopes(c):
            return "semistable disagrees with the equal-slope criterion"
        if gauge is not None:
            other = stability.stability_verdict(circles.gauge_transform(c, *gauge))
            if (other.semistable, other.stable) != (out.semistable, out.stable):
                return f"flags change under the gauge {gauge}"
            # compared as multisets: their order follows frozenset iteration
            if _violations(other) != _violations(out):
                return f"violations change under the gauge {gauge}"
        return None

    def output(self, op, out):
        return out.to_json()


# ---------------------------------------------------------------------------
# iso: isomorphism witnesses on seeded pairs
# ---------------------------------------------------------------------------

ISO_GROUPS = (("GL", 4), ("GL", 5), ("Sp", 3), ("Sp", 4), ("SO_odd", 3), ("SO_even", 4), ("G2", 0))
ISO_KINDS = {"GL": ("pos", "pos", "neg-det", "neg-class")}
ISO_KINDS_DEFAULT = ("pos", "pos", "neg-class")


class Iso(Workload):
    digest_blocks = 20

    def setup(self):
        self.groups = _build(ISO_GROUPS)
        rng = random.Random("warm-up")
        for g in self.groups.values():
            a = _cocycle(rng, g)
            circles.isomorphism_witness(a, circles.gauge_transform(a, *_gauge(rng, g)))
        self.draws = None

    def _monodromy(self, rng, g, avoid=None):
        """Monodromy uniform over conjugacy classes, then uniform in its class.

        Classes are drawn by a _Spread per group, so the run's class mix
        stays near uniform; a class equal to `avoid`'s is redrawn uniformly.
        """
        classes, spread = self.draws[g]
        cls = classes.classes[spread.draw()]
        if avoid is not None and classes.ids[cls[0]] == classes.ids[avoid]:
            cls = rng.choice([c for c in classes.classes if c is not cls])
        return rng.choice(cls)

    def block(self, rng):
        if self.draws is None:  # input generation, so not part of set-up
            self.draws = {}
            for g in self.groups.values():
                classes = _Classes(g)
                self.draws[g] = (classes, _Spread(rng, len(classes.classes)))
        ops = []
        for key in ISO_GROUPS:
            g = self.groups[key]
            for kind in ISO_KINDS.get(key[0], ISO_KINDS_DEFAULT):
                a = _cocycle(rng, g, self._monodromy(rng, g))
                if kind == "pos":
                    b = circles.gauge_transform(a, *_gauge(rng, g))
                elif kind == "neg-det":
                    # same slope and monodromy; the determinant's offset sum moves by j/3
                    offset = a.offset[:-1] + (a.offset[-1] + a.length / 3,)
                    b = circles.cocycle(g, a.slope, offset, a.mono_idx, a.length)
                else:
                    b = _cocycle(rng, g, self._monodromy(rng, g, avoid=a.mono_idx))
                    b = circles.cocycle(g, b.slope, b.offset, b.mono_idx, a.length)
                ops.append((kind, a, b))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        return circles.isomorphism_witness(op[1], op[2])

    def check(self, op, out):
        kind, a, b = op
        if kind == "pos":
            if out is None:
                return "gauge-equivalent pair reported not isomorphic"
            if circles.gauge_transform(a, out.k, out.beta, out.v_idx) != b:
                return f"witness {out.to_json()} does not carry a to b"
            return None
        if out is not None:
            return f"non-isomorphic pair ({kind}) given the witness {out.to_json()}"
        if kind == "neg-class":
            ids = self.draws[a.group][0].ids
            if ids[a.mono_idx] == ids[b.mono_idx]:
                return "negative pair lacks its proof: monodromies are conjugate"
        else:
            # for GL the determinant cocycle (Σm, Σα mod j) is a gauge invariant
            shift = (sum(b.offset) - sum(a.offset)) / a.length
            if sum(a.slope) == sum(b.slope) and shift.denominator == 1:
                return "negative pair lacks its proof: determinant cocycles agree"
        return None

    def output(self, op, out):
        return None if out is None else out.to_json()


# ---------------------------------------------------------------------------
# models: semiring determinants, matrix models and the symplectic structure
# ---------------------------------------------------------------------------

ROUND_TRIP_GROUPS = (("GL", 4), ("SL", 4), ("PGL", 4), ("Sp", 3), ("SO_odd", 3), ("SO_even", 4), ("G2", 0))
SP_RANKS = (2, 3, 4)
ENUMERATION_SIZES = (5, 6, 7, 8)  # trop_det enumerates permutations up to n = 8
ASSIGNMENT_SIZES = (9, 16)  # and solves an assignment problem above
ASSIGNMENTS_PER_BLOCK = 4


def _random_trop_matrix(rng, n) -> semiring.TropMatrix:
    """Random rational entries with round(n/5) of each row infinite.

    The same count of ∞ in every row keeps the enumeration's early exits,
    and so its cost, about the same from matrix to matrix.
    """
    rows = []
    for _ in range(n):
        row = [semiring.fin(_rational(rng, 12, 3)) for _ in range(n)]
        for c in rng.sample(range(n), round(n / 5)):
            row[c] = semiring.INF
        rows.append(tuple(row))
    return semiring.TropMatrix(tuple(rows))


def _planted_trop_matrix(rng, n) -> tuple[semiring.TropMatrix, Q]:
    """A matrix whose least permutation sum is planted, with that sum.

    Planted entries lie in [0, 5] and all others are ∞ or above 5n + 1.  Any
    other permutation leaves the planted one in at least two rows, so its sum
    exceeds 2(5n + 1), more than the planted sum.
    """
    sigma = list(range(n))
    rng.shuffle(sigma)
    planted = [Q(rng.randint(0, 20), 4) for _ in range(n)]
    big = 5 * n + 1
    rows = [
        [semiring.INF if rng.random() < 0.3 else semiring.fin(big + Q(rng.randint(0, 40), 4)) for _ in range(n)]
        for _ in range(n)
    ]
    for r in range(n):
        rows[r][sigma[r]] = semiring.fin(planted[r])
    return semiring.TropMatrix(tuple(map(tuple, rows))), sum(planted)


def _element(rng, g) -> groups.TropGroupElement:
    return g.element([_rational(rng) for _ in range(g.rank)], rng.randrange(len(g.weyl)))


def _non_member(rng, g) -> semiring.TropMatrix:
    """The matrix model of a random element, changed so no group member has it.

    GL, PGL: a second finite entry in row 0, so the matrix is not invertible.
    SL: the diagonal gets a nonzero sum (tropical determinant ≠ 0).
    Sp, SO: y_0 moves by 1, breaking y_{−i} = −y_i (and y_0 = 0 for SO_odd).
    G2: y_7 moves off 0.
    """
    x = _element(rng, g)
    y = list(groups.model_coordinates(x))
    perm = g.weyl.perm(x.w_idx)
    family = g.family[0]
    if family in ("GL", "PGL"):
        rows = [list(row) for row in semiring.TropMatrix.gen_perm(y, perm).entries]
        col = next(c for c, e in enumerate(rows[0]) if e.q is None)
        rows[0][col] = semiring.fin(0)
        return semiring.TropMatrix(tuple(map(tuple, rows)))
    y[6 if family == "G2" else 0] += 1
    return semiring.TropMatrix.gen_perm(y, perm)


class Models(Workload):
    digest_blocks = 5

    def setup(self):
        self.groups = _build(ROUND_TRIP_GROUPS)
        self.sp = _build(("Sp", n) for n in SP_RANKS)
        rng = random.Random("warm-up")
        for op in self._ops(rng):
            self.run(op)

    def _ops(self, rng):
        ops = [("det", _random_trop_matrix(rng, n), None) for n in ENUMERATION_SIZES]
        for _ in range(ASSIGNMENTS_PER_BLOCK):
            ops.append(("det", *_planted_trop_matrix(rng, rng.randint(*ASSIGNMENT_SIZES))))
        for g in self.groups.values():
            ops.append(("round-trip", _element(rng, g)))
            ops.append(("non-member", g, _non_member(rng, g)))
        ops.extend(("sp", _cocycle(rng, g)) for g in self.sp.values())
        return ops

    def block(self, rng):
        ops = self._ops(rng)
        rng.shuffle(ops)
        return ops

    def run(self, op):
        kind = op[0]
        if kind == "det":
            return semiring.trop_det(op[1])
        if kind == "round-trip":
            mat = groups.to_matrix(op[1])
            return mat, groups.from_matrix(mat, op[1].group)
        if kind == "non-member":
            try:
                groups.from_matrix(op[2], op[1])
            except groups.NotInGroupError:
                return "rejected"
            return "accepted"
        return circles.sp_structure(op[1])

    def check(self, op, out):
        kind = op[0]
        if kind == "det":
            a, planted = op[1], op[2]
            if planted is None:
                expected = semiring.det_by_enumeration(a)
                if semiring.det_by_assignment(a) != expected:
                    return "det_by_enumeration and det_by_assignment disagree"
            else:
                expected = semiring.fin(planted)
            return None if out == expected else f"determinant {out}, expected {expected}"
        if kind == "round-trip":
            return None if out[1] == op[1] else f"round trip gave {out[1]!r} for {op[1]!r}"
        if kind == "non-member":
            return None if out == "rejected" else "planted non-member accepted"
        return self._check_sp(op[1], out)

    @staticmethod
    def _check_sp(c, out):
        """Cover components against the signed permutation of the monodromy.

        Checks sheets, lengths, degrees and the involution; the Jacobian
        coordinates and trivialization violations are left out (NOTES.md).
        """
        n = c.group.family[1]
        w = c.group.weyl.elements[c.mono_idx].matrix
        cycles = oracles.cycle_sets(oracles.permutation_of_signed_matrix(w))
        if {frozenset(comp.sheets) for comp in out.components} != cycles or len(out.components) != len(cycles):
            return "cover components are not the cycles of the monodromy"
        lifted = tuple(c.slope) + tuple(-x for x in c.slope)
        for comp in out.components:
            if comp.length != c.length * len(comp.sheets):
                return f"component {comp.sheets}: length {comp.length}"
            if comp.line_degree != sum(lifted[s] for s in comp.sheets):
                return f"component {comp.sheets}: degree {comp.line_degree}"
        if out.involution != tuple((i + n) % (2 * n) for i in range(2 * n)):
            return "involution does not pair opposite sheets"
        return None

    def output(self, op, out):
        kind = op[0]
        if kind == "det":
            return semiring.value_to_json(out)
        if kind == "round-trip":
            return {"matrix": out[0].to_json(), "element": out[1].to_json()}
        if kind == "non-member":
            return out
        return out.to_json()

    def case(self, op):
        kind = op[0]
        if kind == "det":
            n = op[1].n_rows
            return kind, n if n in ENUMERATION_SIZES else "assignment"
        if kind == "round-trip":
            return kind, op[1].group.family
        if kind == "non-member":
            return kind, op[1].family
        return kind, op[1].group.family


WORKLOADS = {"classify": Classify, "stability": Stability, "iso": Iso, "models": Models}
