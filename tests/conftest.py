"""Shared fixture builders, seeded random generators and test oracles for
the suite.

The oracles are routes the library does not take, kept here to check the
routes it does: row reduction over Q (fraction_kernel), the rational basis
of a flat (flat_basis), the closure of an index set, the chain-sum flag
formula, the geometric interval and restriction arrangements, the
specialization of a multivariate zeta, polytope membership and the
concrete-nudge chamber path.
"""

import random
from fractions import Fraction
from itertools import combinations
from operator import mul

from arrzeta import (AffineForm, Arrangement, ArrangementError, Flat, QMatrix,
                     ZetaFunction, integer_kernel, intersection_lattice,
                     localized_walls, primitive_normal, rank, rational,
                     resolution_datum, separating_walls)
from arrzeta.arrangement import _require_central
from arrzeta.core import dot
from arrzeta.examples import boolean2, threelines, threelines_factored, veys

__all__ = [
    "boolean2", "boolean2_factored", "threelines", "threelines_factored",
    "veys", "braid", "xy_ab", "xyz", "xy_in_c3", "ninefold", "random_lines",
    "random_central_c3", "random_rational_point", "fraction_kernel",
    "flat_basis", "closure", "Chain", "enumerate_chains", "chain_terms",
    "interval_arrangement", "restriction_arrangement", "specialize",
    "polytope_member", "nudged_path",
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


def flat_basis(flat):
    """The rational basis vectors / den of a flat's subspace."""
    return tuple(tuple(Fraction(e, flat.den) for e in w) for w in flat.vectors)


def closure(arr, indices):
    """The flat spanned by a set of hyperplane indices.

    One integer kernel of the given normals spans the underlying subspace
    W; the closed index set is every hyperplane whose normal vanishes on
    it.  The kernel basis depends only on the row space of the normals, so
    it is the same deterministic basis as that of the closed set.
    """
    _require_central(arr, "closure")
    indices = set(int(i) for i in indices)
    for i in indices:
        if not 0 <= i < arr.r:
            raise ArrangementError("hyperplane index %d out of range" % i)
    vectors, den = integer_kernel([arr.normals[i] for i in sorted(indices)], arr.n)
    closed = [i for i in range(arr.r)
              if i in indices or not any(sum(map(mul, arr.normals[i], w)) for w in vectors)]
    return Flat(closed, arr.n - len(vectors), vectors, den)


def boolean2_factored():
    """xy split as h_1 = x, h_2 = y."""
    return Arrangement(2, [(1, 0), (0, 1)], mults=[1, 1],
                       factors=[(1, 0), (0, 1)], name="boolean2-factored")


def braid(n):
    """x_i - x_j, i < j, in C^n."""
    forms = []
    for i, j in combinations(range(n), 2):
        v = [0] * n
        v[i], v[j] = 1, -1
        forms.append(v)
    return Arrangement(n, forms)


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


# ---------------------------------------------------------------------------
# the chain-sum oracle for the flag formula

class Chain:
    """A flag of proper flats, strictly increasing as subspaces.

    Stored smallest subspace first, so index sets strictly decrease along
    the tuple.
    """

    def __init__(self, flats):
        flats = tuple(flats)
        if not flats:
            raise ValueError("a chain needs at least one flat")
        if any(f.codim == 0 for f in flats):
            raise ValueError("the ambient flat does not belong to chains")
        for a, b in zip(flats, flats[1:]):
            if not b.indices < a.indices:
                raise ValueError("chain must strictly increase as subspaces")
        self.flats = flats

    def key(self):
        return (len(self.flats), tuple(f.key() for f in self.flats))

    def __len__(self):
        return len(self.flats)


def enumerate_chains(lattice, start=None):
    """All chains of proper flats, sorted by (length, flat index sets).

    With start, only the chains whose smallest flat is that one.
    """
    proper = lattice.proper_flats()
    seeds = proper if start is None else [lattice.flat(start.indices)]
    chains = []
    stack = [[f] for f in seeds]
    while stack:
        prefix = stack.pop()
        chains.append(Chain(prefix))
        stack.extend(prefix + [g] for g in proper if g.indices < prefix[-1].indices)
    return sorted(chains, key=Chain.key)


def chain_terms(arr, multi=False, use_global=False):
    """The flag formula summed chain by chain, every chain's product taken
    from the start, as the (coefficient, sorted denominator) pairs of
    ZetaFunction.terms.  Local: the chains from the minimal flat.  Global:
    every chain weighted by the open-stratum Euler characteristic of its
    first flat, plus the empty flag weighted by that of the complement."""
    lattice = intersection_lattice(arr)
    if use_global:
        chains = enumerate_chains(lattice)
        terms = [(lattice.stratum_euler(lattice.ambient), ())]
    else:
        chains = enumerate_chains(lattice, start=lattice.minimal_flat())
        terms = []
    for chain in chains:
        flats = chain.flats + (lattice.ambient,)
        coef = Fraction(lattice.stratum_euler(flats[0]) if use_global else 1)
        dens = []
        for j, flat in enumerate(chain.flats):
            coef *= lattice.interval_euler(flats[j + 1], flat)
            datum = resolution_datum(arr, flat)
            form, scale = AffineForm.canonical(datum.ord if multi else (datum.N,), datum.nu)
            coef /= scale
            dens.append(form)
        terms.append((coef, tuple(sorted(dens))))
    return tuple((coef, dens) for coef, dens in terms if coef)


# ---------------------------------------------------------------------------
# the geometric interval and restriction constructions that the Mobius
# table replaces

def _extend_basis(inner, outer, n):
    """Vectors of outer extending span(inner), greedy in order."""
    chosen = list(inner)
    ext = []
    rk = rank(QMatrix.from_rows(chosen, cols=n)) if chosen else 0
    for v in outer:
        trial = QMatrix.from_rows(chosen + [list(v)], cols=n)
        if rank(trial) > rk:
            chosen.append(list(v))
            ext.append(tuple(v))
            rk += 1
    return ext


def _dedupe_forms(rows):
    """Keep one representative per proportionality class, preserving order."""
    out = []
    seen = set()
    for row in rows:
        key = primitive_normal(row)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def interval_arrangement(arr, lower, upper):
    """The arrangement of the lattice interval between two nested flats.

    lower must be strictly below upper as a subspace (its index set strictly
    larger).  Extend a basis of the lower flat by vectors C_1..C_m of the
    upper one; the hyperplanes are the distinct traces of the forms in
    I_lower minus I_upper on those coordinates.  Returned reduced (all
    multiplicities 1).
    """
    _require_central(arr, "interval_arrangement")
    if not upper.indices < lower.indices:
        raise ArrangementError("interval needs strictly nested flats "
                               "(lower strictly inside upper)")
    ext = _extend_basis([list(v) for v in flat_basis(lower)], flat_basis(upper), arr.n)
    m = lower.codim - upper.codim
    assert len(ext) == m, "basis extension does not match codimension step"
    rows = []
    for i in sorted(lower.indices - upper.indices):
        row = tuple(dot(arr.forms[i], v) for v in ext)
        assert any(e != 0 for e in row), "form trace vanished on interval coordinates"
        rows.append(row)
    rows = _dedupe_forms(rows)
    assert rows, "interval arrangement is empty"
    return Arrangement(m, rows)


def restriction_arrangement(arr, flat):
    """Traces of the hyperplanes not containing the flat, inside the flat.

    Reduced (all multiplicities 1); may be empty, in which case the result
    is the empty arrangement in C^{dim flat}.
    """
    _require_central(arr, "restriction_arrangement")
    d = arr.n - flat.codim
    if d == 0:
        raise ArrangementError("cannot restrict to the origin")
    rows = []
    for i in range(arr.r):
        if i in flat.indices:
            continue
        row = tuple(dot(arr.forms[i], v) for v in flat_basis(flat))
        assert any(e != 0 for e in row), "trace vanished off the flat's index set"
        rows.append(row)
    return Arrangement(d, _dedupe_forms(rows))


# ---------------------------------------------------------------------------
# specialization and polytope membership

def specialize(z, weights):
    """Substitute s_j = w_j s for positive integer weights w_j, term by term.

    Specializing a univariate zeta with weight (1,) is the identity.
    """
    weights = [int(w) for w in weights]
    if len(weights) != z.nvars:
        raise ValueError("expected %d weights, got %d" % (z.nvars, len(weights)))
    if any(w < 1 for w in weights):
        raise ValueError("weights must be positive integers")
    terms = []
    for coef, dens in z.terms:
        new = []
        for f in dens:
            merged = sum(c * w for c, w in zip(f.coeffs, weights))
            form, scale = AffineForm.canonical((merged,), f.const)
            coef = coef / scale
            new.append(form)
        terms.append((coef, new))
    return ZetaFunction(1, terms)


def polytope_member(poly, beta, strict=False):
    """Membership of a positive vector; strict checks the open inequalities."""
    beta = tuple(rational(x) for x in beta)
    if len(beta) != poly.r:
        raise ValueError("vector length %d, polytope lives in R^%d" % (len(beta), poly.r))
    if any(x <= 0 for x in beta):
        raise ValueError("polytope membership is defined for positive vectors")
    for indices, bound in poly.inequalities:
        s = sum((beta[i] for i in indices), Fraction(0))
        if s > bound or (strict and s == bound):
            return False
    return True


# ---------------------------------------------------------------------------
# the concrete-nudge oracle for chamber paths

def _nudged_order(walls, a, b, eps):
    delta = [eps ** (j + 1) for j in range(len(a))]
    a1 = tuple(x - d for x, d in zip(a, delta))
    b1 = tuple(x - d for x, d in zip(b, delta))
    for p, p1 in ((a, a1), (b, b1)):
        assert not separating_walls(walls, p, p1), "nudge left the chamber of %r" % (p,)
        assert not localized_walls(walls, p1), "nudged endpoint lies on a wall"
    levels = {f.normal: (f.evaluate(a1), f.evaluate(b1)) for f in walls}
    crossings = []
    for w in separating_walls(walls, a1, b1):
        va, vb = levels[w.normal]
        crossings.append(((w.gamma - va) / (vb - va), w))
    times = [t for t, _ in crossings]
    assert len(set(times)) == len(times), "two walls crossed at once"
    assert all(0 < t < 1 for t in times)
    return [w for _, w in sorted(crossings, key=lambda c: c[0])]


def nudged_path(walls, a, b, eps=Fraction(1, 10 ** 12)):
    """The walls crossed by the straight segment from a - delta to
    b - delta, delta_j = eps^(j+1), in crossing order.  Checks that the
    nudge keeps both endpoints in their chambers and off every wall, that
    no two crossing times coincide, and that eps/1000 gives the same
    order."""
    order = _nudged_order(walls, a, b, eps)
    assert _nudged_order(walls, a, b, eps / 1000) == order, "order not yet stable at eps"
    return order
