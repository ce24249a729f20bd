"""Shared fixture builders, seeded random generators and test oracles for
the suite.

The oracles are routes the library does not take, kept here to check the
routes it does: row reduction over Q (fraction_kernel), the rational basis
of a flat (flat_basis), the closure of an index set, the brute-force
lattice with its Mobius table by definition and the open-stratum Euler
characteristics read off it, long division by an affine form over Q, the
chain-sum flag formula, every flat's sum by the flag-sum recursion in
Fractions, with or without the product rule at the flats that are not
dense, the braid local zeta by a recursion over set partitions and the
B_n local zeta by one over the Dowling lattice, both with no lattice, the
geometric interval and restriction arrangements, the
specialization of a multivariate zeta, the pole decision over every form
of the flag sum's least common denominator, polytope membership, the
adapted-vector violations summed in Fractions, separating and localized
walls by their definition, the concrete-nudge chamber path and the
leverage scores by Cauchy-Binet over every basis of the normals.

The library's MultiPoly is a result type with products only, so tests
write their polynomials with poly (dict literals and sums) and form_poly.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, floor
from operator import mul

from arrzeta import (AffineForm, Arrangement, ArrangementError, Flat, MultiPoly,
                     QMatrix, WallInstance, ZetaFunction, integer_kernel,
                     intersection_lattice, primitive_normal, rank, rational)
from arrzeta.arrangement import _require_central
from arrzeta.core import dot
from arrzeta.examples import boolean2, threelines, threelines_factored, veys

__all__ = [
    "boolean2", "boolean2_factored", "threelines", "threelines_factored",
    "veys", "braid", "type_b", "xy_ab", "xyz", "xy_in_c3", "ninefold",
    "thirteen", "random_lines", "random_central_c3", "random_rational_point",
    "fraction_kernel", "flat_basis", "closure", "brute_force_lattice",
    "stratum_euler", "long_division", "poly", "form_poly", "Chain", "enumerate_chains",
    "chain_terms", "fraction_flat_sums", "fraction_flag_sum", "braid_local_zeta",
    "type_b_local_zeta",
    "merged_terms", "interval_arrangement",
    "restriction_arrangement", "specialize", "all_forms_denominator",
    "polytope_member", "fraction_adapted_violations",
    "brute_separating_walls", "brute_localized_walls", "nudged_path",
    "cauchy_binet_leverage",
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


def flat_basis(arr, flat):
    """The rational basis of a flat's subspace read off the reduced row
    echelon form of the normals in its index set: their integer kernel
    vectors over its scale (integer_kernel)."""
    vectors, den = integer_kernel([arr.normals[i] for i in sorted(flat.indices)], arr.n)
    return tuple(tuple(Fraction(e, den) for e in w) for w in vectors)


def closure(arr, indices):
    """The flat spanned by a set of hyperplane indices.

    One integer kernel of the given normals spans the underlying subspace
    W; the closed index set is every hyperplane whose normal vanishes on
    it.
    """
    _require_central(arr, "closure")
    indices = set(int(i) for i in indices)
    for i in indices:
        if not 0 <= i < arr.r:
            raise ArrangementError("hyperplane index %d out of range" % i)
    vectors = integer_kernel([arr.normals[i] for i in sorted(indices)], arr.n)[0]
    closed = [i for i in range(arr.r)
              if i in indices or not any(sum(map(mul, arr.normals[i], w)) for w in vectors)]
    return Flat(closed, arr.n - len(vectors))


def brute_force_lattice(arr):
    """Every flat as the closure of an index subset and the Mobius table by
    its definition, over Q on the forms as given: {indices: codim} and
    {indices of X: {indices of Z: mu(X, Z)}}."""
    flats = {}
    for k in range(arr.r + 1):
        for subset in combinations(range(arr.r), k):
            _, basis = fraction_kernel([arr.forms[i] for i in subset], arr.n)
            closed = frozenset(i for i in range(arr.r) if all(
                sum(a * b for a, b in zip(arr.forms[i], v)) == 0 for v in basis))
            flats[closed] = arr.n - len(basis)
    order = sorted(flats, key=lambda x: (flats[x], sorted(x)))
    table = {}
    for x in order:
        row = table[x] = {}
        for z in order:
            if x <= z:
                row[z] = 1 if z == x else -sum(m for w, m in row.items() if w < z)
    return flats, table


def stratum_euler(arr):
    """The Euler characteristic of each flat's open stratum (the points of
    X on no hyperplane outside X), sum over Z >= X of mu(X, Z) on the
    brute-force Mobius table: {indices of X: value}."""
    _, table = brute_force_lattice(arr)
    return {x: sum(row.values()) for x, row in table.items()}


def long_division(p, form):
    """Long division of a MultiPoly by an affine form over Q in the form's
    first pivot variable, one leading slice per step, on a plain
    {exponent tuple: Fraction} dict: (quotient, remainder) as MultiPolys,
    the remainder free of that variable."""
    m = next(j for j, c in enumerate(form.coeffs) if c)
    rest = [(j, c) for j, c in enumerate(form.coeffs) if c and j != m]
    quot, rem = {}, dict(p.terms)
    for d in range(max((ex[m] for ex in rem), default=0), 0, -1):
        for ex in [ex for ex in rem if ex[m] == d]:
            # the slice's term over c_m s_m, times the form, leaves rem
            c = rem.pop(ex) / form.coeffs[m]
            low = ex[:m] + (d - 1,) + ex[m + 1:]
            quot[low] = c
            if form.const:
                rem[low] = rem.get(low, 0) - c * form.const
            for j, a in rest:
                up = low[:j] + (low[j] + 1,) + low[j + 1:]
                rem[up] = rem.get(up, 0) - c * a
        rem = {ex: c for ex, c in rem.items() if c}
    return MultiPoly(p.nvars, quot), MultiPoly(p.nvars, rem)


def poly(terms, nvars=None):
    """A MultiPoly from a dict literal {exponent: coefficient}, or from
    (exponent, coefficient) pairs with the coefficients of a repeated
    exponent added, which is how a test writes a sum.  An int exponent is
    that of a one-variable polynomial; nvars is read off the first
    exponent unless given."""
    out = {}
    for ex, c in (terms.items() if isinstance(terms, dict) else terms):
        ex = (ex,) if isinstance(ex, int) else tuple(ex)
        out[ex] = out.get(ex, 0) + c
    return MultiPoly(len(next(iter(out))) if nvars is None else nvars, out)


def form_poly(form):
    """An affine form c . s + k as a MultiPoly."""
    n = form.nvars
    return poly([((0,) * n, form.const)]
                + [(tuple(int(i == j) for i in range(n)), c) for j, c in enumerate(form.coeffs)], n)


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


def type_b(n):
    """x_i and x_i +- x_j, i < j, in C^n: the root-system arrangement B_n."""
    forms = [[int(k == i) for k in range(n)] for i in range(n)]
    for i, j in combinations(range(n), 2):
        for sign in (1, -1):
            v = [0] * n
            v[i], v[j] = 1, sign
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
    """Nine planes in C^3 whose leverage scores are adapted as they stand."""
    return Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0),
                           (0, 0, 1), (1, 0, 1), (0, 1, 1),
                           (1, 1, 1), (1, -1, 1), (2, 0, 1)],
                       name="ninefold")


def thirteen():
    """The thirteen planes of B3 and (1, +-1, +-1) in C^3.  Its leverage
    scores are 1/9, 2/9 and 1/3 by orbit and sum to exactly 1 on each of
    its six dense lines of four planes; exercises the adapted-vector
    perturbation."""
    return Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1),
                           (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                           (0, 1, 1), (0, 1, -1),
                           (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)],
                       name="thirteen")


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
    proper = lattice.flats[1:]
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
    from the start, as (coefficient, sorted denominator) pairs, one per
    chain with a nonzero coefficient; merged_terms of them is the shape of
    ZetaFunction.terms.  Local: the chains from the minimal flat.  Global:
    every chain weighted by the open-stratum Euler characteristic of its
    first flat, plus the empty flag weighted by that of the complement,
    both from the brute-force Mobius table (stratum_euler)."""
    lattice = intersection_lattice(arr)
    rows = arr.factors if multi else [arr.mults]
    if use_global:
        chains = enumerate_chains(lattice)
        weight = stratum_euler(arr)
        terms = [(weight[lattice.ambient.indices], ())]
    else:
        chains = enumerate_chains(lattice, start=lattice.minimal_flat())
        terms = []
    for chain in chains:
        flats = chain.flats + (lattice.ambient,)
        coef = Fraction(weight[flats[0].indices] if use_global else 1)
        dens = []
        for j, flat in enumerate(chain.flats):
            coef *= lattice.interval_euler(flats[j + 1], flat)
            ords = [sum(row[i] for i in flat.indices) for row in rows]
            form, scale = AffineForm.canonical(ords, flat.codim)
            coef /= scale
            dens.append(form)
        terms.append((coef, tuple(sorted(dens))))
    return tuple((coef, dens) for coef, dens in terms if coef)


def fraction_flat_sums(arr, multi=False, products=False):
    """{flat: D(flat)} by the recursion over flats, every D(X), the sum
    over the flags from X up to the ambient space, kept in Fractions as
    {sorted tuple of AffineForms: nonzero Fraction}:

        D(X) = (1/s_X) sum of interval_euler(Y, X) * (D(Y) with L_X added)

    over euler_below(X), L_X, s_X the canonical pole form and scale of X.
    With products, a proper flat that is not dense (is_dense) takes
    instead the product of the sums of its components, the maximal dense
    flats below it, found by their index sets: the sum over the dense
    edges alone, term for term that of the library's flag sum."""
    lattice = arr.lattice
    rows = arr.factors if multi else [arr.mults]
    sums = {lattice.ambient: {(): Fraction(1)}}
    dense = [x for x in lattice.flats[1:] if lattice.is_dense(x)]
    for x in lattice.flats[1:]:
        if products and not lattice.is_dense(x):
            below = [g for g in dense if g.indices <= x.indices]
            out = {(): Fraction(1)}
            for g in below:
                if not any(g.indices < h.indices for h in below):
                    prod = {}
                    for da, ca in out.items():
                        for db, cb in sums[g].items():
                            key = tuple(sorted(da + db))
                            prod[key] = prod.get(key, 0) + ca * cb
                    out = prod
            sums[x] = {dens: coef for dens, coef in out.items() if coef}
            continue
        form, scale = AffineForm.canonical([sum(row[i] for i in x.indices) for row in rows],
                                           x.codim)
        out = {}
        for y, e in lattice.euler_below(x):
            for dens, coef in sums[y].items():
                key = tuple(sorted(dens + (form,)))
                out[key] = out.get(key, 0) + e * coef
        sums[x] = {dens: coef / scale for dens, coef in out.items() if coef}
    return sums


def fraction_flag_sum(arr, multi=False):
    """D(minimal flat) of fraction_flat_sums, over every flat, as the
    (coefficient, sorted denominator) pairs with a nonzero coefficient,
    sorted by denominator: the shape of ZetaFunction.terms for the local
    zeta."""
    sums = fraction_flat_sums(arr, multi)
    return tuple((coef, dens) for dens, coef in sorted(sums[arr.lattice.minimal_flat()].items()))


def _integer_partitions(m, largest=None):
    """The partitions of m as nonincreasing tuples of parts."""
    if m == 0:
        yield ()
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in _integer_partitions(m - part, part):
            yield (part,) + rest


def braid_local_zeta(m, s):
    """The local zeta of the braid arrangement in C^m (A_(m-1), braid(m))
    at the rational s, read off the partition lattice with no lattice
    walk, Euler table or dense test.

    The flats are the set partitions of [m]; the one with b blocks has the
    interval above it isomorphic to the partition lattice of [b], so its
    interval_euler up to the top is (-1)^b (b - 2)!, and its local zeta is
    the product of its blocks' (a direct sum of smaller braids).  The top
    is dense, with pole form C(m, 2) s + m - 1, so D(1) = 1 and

        D(m) = sum over the set partitions pi != top of [m] of
               (-1)^b (b - 2)! prod over the blocks B of D(|B|),
               divided by C(m, 2) s + m - 1,

    the set partitions grouped by their block sizes, each size pattern
    counted by its multinomial."""
    d = [None, Fraction(1)]
    for k in range(2, m + 1):
        total = 0
        for parts in _integer_partitions(k):
            b = len(parts)
            if b < 2:
                continue
            count = factorial(k)
            for n in parts:
                count //= factorial(n)
            for n in Counter(parts).values():
                count //= factorial(n)
            term = (-1) ** b * factorial(b - 2) * count
            for part in parts:
                term *= d[part]
            total += term
        d.append(total / (comb(k, 2) * s + k - 1))
    return d[m]


def type_b_local_zeta(n, s):
    """The local zeta of the B_n arrangement in C^n (type_b(n)) at the
    rational s, read off the Dowling lattice Q_n(Z/2) (Dowling, J. Combin.
    Theory B 14, 1973) with no lattice walk, Euler table or dense test.

    A flat is a zero block Z, on which every x_i = 0, and signed nonzero
    blocks, on each of which x_i = +-x_j; the flats with |Z| = z and
    nonzero blocks of sizes p_1, ..., p_k number C(n, z) times the set
    partitions of the other n - z coordinates with those block sizes
    times 2^(p - 1) for each block of size p.  The interval above such a
    flat is the lattice of B_k, whose characteristic polynomial is
    (t - 1)(t - 3)...(t - 2k + 1), so its interval_euler up to the top is
    (-2)^(k - 1) (k - 1)!; its local zeta is that of B_z times the braid
    zeta of each block (braid_local_zeta).  The top, the origin, is dense
    with pole form n^2 s + n, so D_B(0) = 1 and

        D_B(n) = sum over the flats other than the top of
                 (-2)^(k - 1) (k - 1)! D_B(z) prod over the blocks of D_A(p),
                 divided by n^2 s + n,

    the flats grouped by z and their block sizes."""
    braid_zeta = [None] + [braid_local_zeta(p, s) for p in range(1, n + 1)]
    d = [Fraction(1)]
    for m in range(1, n + 1):
        total = 0
        for z in range(m):
            for parts in _integer_partitions(m - z):
                k = len(parts)
                count = comb(m, z) * factorial(m - z)
                for p in parts:
                    count //= factorial(p)
                for c in Counter(parts).values():
                    count //= factorial(c)
                term = count * 2 ** (m - z - k) * (-2) ** (k - 1) * factorial(k - 1) * d[z]
                for p in parts:
                    term *= braid_zeta[p]
                total += term
        d.append(total / (m * m * s + m))
    return d[n]


def merged_terms(terms):
    """Terms with equal denominators merged and zero sums dropped, sorted by
    denominator: the shape of ZetaFunction.terms for an arrangement."""
    merged = {}
    for coef, dens in terms:
        dens = tuple(sorted(dens))
        merged[dens] = merged.get(dens, 0) + coef
    return tuple((coef, dens) for dens, coef in sorted(merged.items()) if coef)


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
    ext = _extend_basis([list(v) for v in flat_basis(arr, lower)], flat_basis(arr, upper),
                        arr.n)
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
    basis = flat_basis(arr, flat)
    rows = []
    for i in range(arr.r):
        if i in flat.indices:
            continue
        row = tuple(dot(arr.forms[i], v) for v in basis)
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


def all_forms_denominator(arr, multi=False):
    """The reduced denominator {form: order} of the local zeta with every
    form of the maximal-model flag sum (fraction_flag_sum) decided, the
    forms of flats that are not dense included."""
    return ZetaFunction(len(arr.factors) if multi else 1,
                        fraction_flag_sum(arr, multi)).denominator


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


def fraction_adapted_violations(arr, dense, beta):
    """The witnesses and data of harness._adapted_violations, every sum
    taken in Fractions."""
    bad = ["component %d is not positive (%s)" % (i + 1, x)
           for i, x in enumerate(beta) if x <= 0]
    sums = []
    for f in dense:
        indices = tuple(sorted(f.indices))
        s = sum((Fraction(beta[i]) for i in indices), Fraction(0))
        sums.append((indices, s))
        label = ("hyperplane %d" % (indices[0] + 1) if len(indices) == 1
                 else "edge {%s}" % ",".join(str(i + 1) for i in indices))
        if s > f.codim:
            bad.append("polytope violated at dense %s (sum %s > %d)" % (label, s, f.codim))
        if len(indices) < arr.r and s.denominator == 1:
            bad.append("integral sum at dense %s (sum %s)" % (label, s))
    total = sum(beta, Fraction(0))
    if total != arr.n:
        bad.append("total sum %s differs from the ambient dimension %d" % (total, arr.n))
    return bad, {"beta": beta, "total": total, "dense_sums": sums}


# ---------------------------------------------------------------------------
# walls by their definition, and the concrete-nudge oracle for chamber paths

def _level(normal, point):
    """L(point) as a plain Fraction sum."""
    assert len(normal) == len(point)
    return sum((e * x for e, x in zip(normal, point) if e), Fraction(0))


def brute_separating_walls(walls, a, b):
    """The walls o + k, o an offset and k in an explicit integer range, with
    min(L(a), L(b)) <= o + k < max(L(a), L(b)); sorted by (normal, level)."""
    out = []
    for fam in walls:
        lo, hi = sorted((_level(fam.normal, a), _level(fam.normal, b)))
        for o in fam.offsets:
            for k in range(floor(lo) - 1, floor(hi) + 2):
                if lo <= o + k < hi:
                    out.append(WallInstance(fam.normal, o + k))
    return sorted(out)


def brute_localized_walls(walls, point):
    """The walls o + k with o + k = L(point), k in an explicit range; sorted."""
    out = []
    for fam in walls:
        v = _level(fam.normal, point)
        for o in fam.offsets:
            for k in range(floor(v) - 1, floor(v) + 2):
                if o + k == v:
                    out.append(WallInstance(fam.normal, o + k))
    return sorted(out)


def _nudged_order(walls, a, b, eps):
    delta = [eps ** (j + 1) for j in range(len(a))]
    a1 = tuple(x - d for x, d in zip(a, delta))
    b1 = tuple(x - d for x, d in zip(b, delta))
    for p, p1 in ((a, a1), (b, b1)):
        assert not brute_separating_walls(walls, p, p1), "nudge left the chamber of %r" % (p,)
        assert not brute_localized_walls(walls, p1), "nudged endpoint lies on a wall"
    levels = {f.normal: (_level(f.normal, a1), _level(f.normal, b1)) for f in walls}
    crossings = []
    for w in brute_separating_walls(walls, a1, b1):
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


# ---------------------------------------------------------------------------
# the basis enumeration that the leverage scores replace

def _det(rows):
    """Determinant over Q by row reduction."""
    rows = [[Fraction(e) for e in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        pr = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def cauchy_binet_leverage(arr):
    """The marginals of P(B) ~ det(N_B)^2 over the n-subsets B of the
    primitive normals: h_i = sum over B containing i of det(N_B)^2 over
    the sum over every B (Cauchy-Binet)."""
    weights = {b: _det([arr.normals[i] for i in b]) ** 2
               for b in combinations(range(arr.r), arr.n)}
    total = sum(weights.values())
    return tuple(sum(w for b, w in weights.items() if i in b) / total for i in range(arr.r))
