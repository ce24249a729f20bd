"""Shared fixture builders and seeded random generators for the suite."""

import random
from fractions import Fraction

from arrzeta import Arrangement, primitive_normal
from arrzeta.examples import (boolean2, boolean2_factored, threelines,
                              threelines_factored, veys)

__all__ = [
    "boolean2", "boolean2_factored", "threelines", "threelines_factored",
    "veys", "xy_ab", "xyz", "xy_in_c3", "ninefold", "random_lines",
    "random_central_c3", "random_rational_point", "fraction_kernel",
]


def fraction_kernel(rows, cols):
    """Rank and kernel basis by row reduction over Q, the reference for the
    fraction-free routes: pivots are the first nonzero entries in column
    order, and each free column gives the kernel vector that is 1 there
    and 0 at the other free columns."""
    rows = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [e / rows[r][c] for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for f in range(cols):
        if f not in pivots:
            v = [Fraction(0)] * cols
            v[f] = Fraction(1)
            for row, p in zip(rows, pivots):
                v[p] = -row[f]
            basis.append(tuple(v))
    return len(pivots), basis


def xy_ab(a, b):
    """x^a y^b as an arrangement in C^2."""
    return Arrangement(2, [(1, 0), (0, 1)], mults=[a, b])


def xyz():
    return Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def xy_in_c3():
    """A non-essential central arrangement: two coordinate planes in C^3."""
    return Arrangement(3, [(1, 0, 0), (0, 1, 0)])


def ninefold():
    """Nine planes in C^3 whose uniform basis average has integral sums at
    the dense edges {1,2,3} and {3,5,6}; exercises the adapted-vector
    perturbation."""
    return Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0),
                           (0, 0, 1), (1, 0, 1), (0, 1, 1),
                           (1, 1, 1), (1, -1, 1), (2, 0, 1)],
                       name="ninefold")


def _distinct_normals(rng, n, r, lo=-3, hi=3):
    forms = []
    seen = set()
    guard = 0
    while len(forms) < r:
        guard += 1
        if guard > 500:
            raise RuntimeError("normal sampling stalled")
        v = tuple(rng.randint(lo, hi) for _ in range(n))
        if all(e == 0 for e in v):
            continue
        key = primitive_normal(v)
        if key in seen:
            continue
        seen.add(key)
        forms.append(v)
    return forms


def random_lines(seed, count=6):
    """Seeded central line arrangements in C^2 with r in 3..6, mults <= 4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randint(3, 6)
        forms = _distinct_normals(rng, 2, r)
        mults = [rng.randint(1, 4) for _ in range(r)]
        out.append(Arrangement(2, forms, mults=mults))
    return out


def random_central_c3(seed, count=10):
    """Seeded central arrangements in C^3 with r <= 6, mults <= 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r = rng.randint(3, 6)
        forms = _distinct_normals(rng, 3, r)
        mults = [rng.randint(1, 3) for _ in range(r)]
        out.append(Arrangement(3, forms, mults=mults))
    return out


def random_rational_point(rng, dim, den=12, lo=-3, hi=3):
    return tuple(Fraction(rng.randint(lo * den, hi * den), den) for _ in range(dim))
