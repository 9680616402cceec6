"""Random generators for matrices and constrained/violating membership pairs."""

from __future__ import annotations

import random
from fractions import Fraction as Q

from semiring_oracles import hexagon_group, perm_sign
from tropgroups import semiring as sr
from tropgroups.permutations import sign_involution


def rational(rng: random.Random, num_max=9, den_max=5) -> Q:
    return Q(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def trop_matrix(rng: random.Random, n: int, p_inf=0.3) -> sr.TropMatrix:
    rows = []
    for _ in range(n):
        rows.append(tuple(sr.INF if rng.random() < p_inf else sr.fin(rational(rng, 20, 6)) for _ in range(n)))
    return sr.TropMatrix(tuple(rows))


def gen_perm(rng: random.Random, n: int) -> sr.TropMatrix:
    ys = [rational(rng) for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return sr.TropMatrix.gen_perm(ys, perm)


def signed_perm(rng: random.Random, n: int, even_only=False) -> tuple[int, ...]:
    """A permutation of positions (1..n, −1..−n) commuting with the sign swap."""
    while True:
        base = list(range(n))
        rng.shuffle(base)
        signs = [rng.random() < 0.5 for _ in range(n)]
        pos = [0] * (2 * n)
        for i in range(n):
            img = base[i] + (n if signs[i] else 0)
            pos[i] = img
            pos[n + i] = (img + n) % (2 * n)
        if not even_only or perm_sign(tuple(pos)) == 1:
            return tuple(pos)


def odd_signed_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    """Signed permutation on (0, 1..n, −1..−n) fixing the 0 position."""
    inner = signed_perm(rng, n)
    return (0,) + tuple(x + 1 for x in inner)


def antisym(rng: random.Random, n: int) -> list[Q]:
    ys = [rational(rng) for _ in range(n)]
    return ys + [-y for y in ys]


def symplectic_member(rng: random.Random, n: int) -> sr.TropMatrix:
    return sr.TropMatrix.gen_perm(antisym(rng, n), signed_perm(rng, n))


def symplectic_violator(rng: random.Random, n: int) -> sr.TropMatrix:
    ys = antisym(rng, n)
    sig = signed_perm(rng, n)
    if n >= 2 and rng.random() < 0.5:
        while True:
            perm = list(range(2 * n))
            rng.shuffle(perm)
            iota = sign_involution(2 * n)
            if tuple(perm[iota[i]] for i in range(2 * n)) != tuple(iota[perm[i]] for i in range(2 * n)):
                return sr.TropMatrix.gen_perm(ys, perm)
    ys[rng.randrange(n, 2 * n)] += rng.choice([Q(1), Q(-1, 2), Q(3)])
    return sr.TropMatrix.gen_perm(ys, sig)


def orthogonal_member(rng: random.Random, m: int, special=True) -> sr.TropMatrix:
    n = m // 2
    if m % 2 == 1:
        return sr.TropMatrix.gen_perm([Q(0)] + antisym(rng, n), odd_signed_perm(rng, n))
    return sr.TropMatrix.gen_perm(antisym(rng, n), signed_perm(rng, n, even_only=special))


def orthogonal_violator(rng: random.Random, m: int) -> sr.TropMatrix:
    """Fails even O-membership (broken sign pattern or non-signed permutation)."""
    n = m // 2
    if m % 2 == 1:
        ys = [Q(0)] + antisym(rng, n)
        sig = odd_signed_perm(rng, n)
        kind = rng.randrange(3)
        if kind == 0:
            ys[0] += Q(1)
        elif kind == 1 or n < 2:
            ys[rng.randrange(n + 1, 2 * n + 1)] += rng.choice([Q(2), Q(-1, 3)])
        else:
            while True:
                perm = [0] + [1 + x for x in _shuffled(rng, 2 * n)]
                iota = sign_involution(m)
                if any(perm[iota[i]] != iota[perm[i]] for i in range(m)):
                    sig = tuple(perm)
                    break
        return sr.TropMatrix.gen_perm(ys, sig)
    ys = antisym(rng, n)
    sig = signed_perm(rng, n)
    ys[rng.randrange(n, 2 * n)] += rng.choice([Q(1), Q(5, 2)])
    return sr.TropMatrix.gen_perm(ys, sig)


def _shuffled(rng, k):
    xs = list(range(k))
    rng.shuffle(xs)
    return xs


def g2_member(rng: random.Random) -> sr.TropMatrix:
    y1, y2 = rational(rng), rational(rng)
    ys = [y1, y2, y2 - y1, -y1, -y2, y1 - y2, Q(0)]
    sig = rng.choice(sorted(hexagon_group())) + (6,)
    return sr.TropMatrix.gen_perm(ys, sig)


def g2_violator(rng: random.Random) -> sr.TropMatrix:
    y1, y2 = rational(rng), rational(rng)
    ys = [y1, y2, y2 - y1, -y1, -y2, y1 - y2, Q(0)]
    sig = rng.choice(sorted(hexagon_group())) + (6,)
    kind = rng.randrange(3)
    if kind == 0:
        ys[rng.randrange(6)] += rng.choice([Q(1), Q(-2, 3)])
    elif kind == 1:
        ys[6] += Q(1)
    else:
        while True:
            perm = tuple(_shuffled(rng, 7))
            if perm[6] != 6 or perm[:6] not in hexagon_group():
                sig = perm
                break
    return sr.TropMatrix.gen_perm(ys, sig)


def non_invertible(rng: random.Random, n: int) -> sr.TropMatrix:
    """A matrix with a duplicated finite entry in some row (or an empty row)."""
    mat = [list(row) for row in gen_perm(rng, n).entries]
    i = rng.randrange(n)
    if n == 1 or rng.random() < 0.3:
        mat[i] = [sr.INF] * n
    else:
        finite_cols = [j for j, e in enumerate(mat[i]) if e.q is not None]
        j = rng.choice([c for c in range(n) if c not in finite_cols])
        mat[i][j] = sr.fin(rational(rng))
    return sr.TropMatrix(tuple(tuple(r) for r in mat))


def sl_violator(rng: random.Random, n: int) -> sr.TropMatrix:
    ys = [rational(rng) for _ in range(n)]
    if sum(ys) == 0:
        ys[0] += 1
    perm = _shuffled(rng, n)
    return sr.TropMatrix.gen_perm(ys, perm)


def sl_member(rng: random.Random, n: int) -> sr.TropMatrix:
    ys = [rational(rng) for _ in range(n - 1)]
    ys.append(-sum(ys, Q(0)))
    return sr.TropMatrix.gen_perm(ys, _shuffled(rng, n))
