"""Hyperplane arrangements with multiplicities and their intersection data.

An arrangement is a list of pairwise non-proportional linear (or affine)
forms with positive integer multiplicities, optionally refined by a
factorization matrix splitting the product of the forms into several
polynomial factors.  All the combinatorics downstream (flats, Mobius
function, characteristic polynomial, dense edges) lives here.

Flats are identified with closed index sets: I determines the subspace
W = intersection of the hyperplanes in I, and I is closed when it already
contains every hyperplane through W.  The partial order used everywhere is
reverse inclusion of subspaces, i.e. inclusion of index sets, with bottom
element the ambient space (empty index set).

The lattice is built over the integers: flats are spanned by integer
kernel vectors of the primitive integer normals, and membership tests and
traces are integer dot products.  Every value reported from it (the
Mobius function and the numbers read off it) is exact.  Each arrangement
builds its lattice once, on the first read of Arrangement.lattice, and
every reader shares it.
"""

from fractions import Fraction
from functools import cached_property
from operator import mul

from .core import (MultiPoly, as_int, integer_kernel, primitive_key,
                   primitive_normal, rational, dot)


class ArrangementError(ValueError):
    """Invalid arrangement data or an operation outside its preconditions."""


class Arrangement:
    """A finite set of hyperplanes in C^n with multiplicities.

    forms: tuple of length-n normal vectors (rationals).
    normals: parallel tuple of their primitive integer normals
        (core.primitive_normal), which the lattice is built on.
    consts: parallel tuple of constant terms; all zero means central.
    mults: positive integer multiplicities d_i.
    factors: optional k x r matrix of nonnegative integers whose rows are
        the exponent vectors of a factorization h_1 ... h_k of the product
        of the f_i^{d_i}; every column has a positive entry and column i
        sums to d_i.
    lattice: the IntersectionLattice of a central arrangement, built on
        first read and kept; every lattice reader in the package uses it.

    n, the multiplicities and the factor exponents must be integers: an
    int that is not a bool, or a Fraction with denominator 1.
    """

    def __init__(self, n, forms, mults=None, factors=None, name=None):
        n = as_int(n, "the ambient dimension", ArrangementError)
        if n < 1:
            raise ArrangementError("ambient dimension must be at least 1")
        self.n = n
        parsed_forms = []
        parsed_consts = []
        for idx, f in enumerate(forms):
            f = [rational(e) for e in f]
            if len(f) == n:
                normal, const = f, Fraction(0)
            elif len(f) == n + 1:
                normal, const = f[:n], f[n]
            else:
                raise ArrangementError("form %d has length %d, expected %d" % (idx + 1, len(f), n))
            if all(e == 0 for e in normal):
                raise ArrangementError("form %d has zero normal vector" % (idx + 1,))
            parsed_forms.append(tuple(normal))
            parsed_consts.append(const)
        self.forms = tuple(parsed_forms)
        self.consts = tuple(parsed_consts)
        self.r = len(self.forms)
        self.normals = tuple(primitive_normal(normal) for normal in self.forms)
        # pairwise proportionality check via the affine canonical key
        seen = {}
        for i, (normal, const, prim) in enumerate(zip(self.forms, self.consts, self.normals)):
            j = next(k for k, e in enumerate(prim) if e)
            scale = normal[j] / prim[j]
            key = (prim, const / scale)
            if key in seen:
                raise ArrangementError(
                    "forms %d and %d are proportional; merge them into one "
                    "hyperplane with a multiplicity" % (seen[key] + 1, i + 1))
            seen[key] = i
        if mults is None:
            mults = [1] * self.r
        mults = [as_int(m, "a multiplicity", ArrangementError) for m in mults]
        if len(mults) != self.r:
            raise ArrangementError("expected %d multiplicities, got %d" % (self.r, len(mults)))
        if any(m < 1 for m in mults):
            raise ArrangementError("multiplicities must be positive")
        self.mults = tuple(mults)
        if factors is not None:
            factors = tuple(tuple(as_int(e, "a factor exponent", ArrangementError)
                                  for e in row)
                            for row in factors)
            if not factors:
                raise ArrangementError("factor matrix must have at least one row")
            for j, row in enumerate(factors):
                if len(row) != self.r:
                    raise ArrangementError("factor row %d has length %d, expected %d"
                                           % (j + 1, len(row), self.r))
                if any(e < 0 for e in row):
                    raise ArrangementError("factor exponents must be nonnegative")
            for i in range(self.r):
                col = [row[i] for row in factors]
                if all(e == 0 for e in col):
                    raise ArrangementError("hyperplane %d appears in no factor" % (i + 1,))
                if sum(col) != self.mults[i]:
                    raise ArrangementError(
                        "factor exponents of hyperplane %d sum to %d, multiplicity is %d"
                        % (i + 1, sum(col), self.mults[i]))
        self.factors = factors
        self.name = name

    @property
    def central(self):
        return all(c == 0 for c in self.consts)

    @cached_property
    def lattice(self):
        # the module-level name is looked up on each first read, so a
        # wrapper installed around intersection_lattice sees every build
        return intersection_lattice(self)

    def degree(self):
        """Total degree d = sum of the multiplicities."""
        return sum(self.mults)

    def factor_degrees(self):
        """Degrees of the factors h_j (requires a factorization)."""
        if self.factors is None:
            raise ArrangementError("arrangement has no factorization data")
        return tuple(sum(row) for row in self.factors)

    def __repr__(self):
        label = self.name or "arrangement"
        return "Arrangement(%s: r=%d in C^%d)" % (label, self.r, self.n)


class Flat:
    """A flat of a central arrangement, identified by its closed index set.

    codim is the codimension of the subspace W.  vectors are integer
    vectors spanning W and den their common scale (core.integer_kernel of
    the normals in the index set): vectors / den is the basis of W read off
    the reduced row echelon form of those normals.
    """

    def __init__(self, indices, codim, vectors, den):
        self.indices = frozenset(int(i) for i in indices)
        self.codim = int(codim)
        self.vectors = tuple(vectors)
        self.den = den

    def key(self):
        return (self.codim, tuple(sorted(self.indices)))

    def dim(self, n):
        return n - self.codim

    def __eq__(self, other):
        return isinstance(other, Flat) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return "Flat({%s} codim %d)" % (",".join(str(i + 1) for i in sorted(self.indices)),
                                        self.codim)


def _require_central(arr, what):
    if not arr.central:
        raise ArrangementError("%s requires a central arrangement" % what)


class IntersectionLattice:
    """All flats of a central arrangement with their Mobius table.

    flats are sorted by (codim, index set).  The Mobius table holds
    mu(X, Z) for every pair X <= Z; mobius maps each flat's index set to
    mu(ambient, flat).  Every combinatorial number the package needs is
    read off this table: the Euler characteristics of lattice intervals
    and of open strata, and with them the dense edges.
    """

    def __init__(self, flats, table):
        self.flats = tuple(sorted(flats, key=Flat.key))
        self._by_indices = {f.indices: f for f in self.flats}
        self._table = table
        self.mobius = dict(table[frozenset()])

    def flat(self, indices):
        key = frozenset(int(i) for i in indices)
        if key not in self._by_indices:
            raise ArrangementError("index set %r is not closed" % (sorted(key),))
        return self._by_indices[key]

    @property
    def ambient(self):
        return self._by_indices[frozenset()]

    def proper_flats(self):
        return [f for f in self.flats if f.codim > 0]

    def minimal_flat(self):
        """The intersection of all hyperplanes (bottom subspace, top flat)."""
        return max(self.flats, key=lambda f: (len(f.indices), f.codim))

    def mu(self, flat):
        return self.mobius[flat.indices]

    def interval_euler(self, X, Y):
        """Euler characteristic of the projectivized complement of the
        interval arrangement between flats X < Y:
        sum over X <= Z <= Y of mu(X, Z) (codim Y - codim Z).
        """
        if not X.indices < Y.indices:
            raise ArrangementError("interval needs flats X < Y (index set of X "
                                   "strictly inside that of Y)")
        return sum(m * (Y.codim - self._by_indices[z].codim)
                   for z, m in self._table[X.indices].items() if z <= Y.indices)

    def stratum_euler(self, X):
        """Euler characteristic of the open stratum of X (the points of X on
        no hyperplane outside X): sum over Z >= X of mu(X, Z)."""
        return sum(self._table[X.indices].values())

    def is_dense(self, flat):
        """A proper flat is dense iff its localized arrangement is
        indecomposable, iff Crapo's beta invariant of that localization,
        which is up to sign interval_euler(ambient, flat), is nonzero
        (Crapo, "A higher invariant for matroids", 1967)."""
        return self.interval_euler(self.ambient, flat) != 0

    def __len__(self):
        return len(self.flats)


def intersection_lattice(arr):
    """All flats, found by walking up the covers from the ambient space.

    The flats covering X correspond one to one to the hyperplanes of the
    restriction of the arrangement to X (Orlik-Terao, Arrangements of
    Hyperplanes, 1992): the hyperplanes outside X whose traces on X are
    proportional cut out the same cover, whose index set, X's plus that
    class, is already closed.  So there is one integer kernel per flat.
    Traces are taken on X's integer vectors, which scale every trace by
    the same diagonal matrix and so keep proportional traces
    proportional; no Fraction is made.

    The Mobius row mu(X, .) is summed over the upper interval of X only:
    walking it upwards, each mu(X, W) is pushed onto every flat strictly
    above W, and mu(X, Z) is minus what Z has collected.
    """
    _require_central(arr, "intersection_lattice")
    ambient = Flat((), 0, *integer_kernel([], arr.n))
    flats = {ambient.indices: ambient}
    covers = {}
    queue = [ambient]
    for x in queue:
        classes = {}
        for i in range(arr.r):
            if i not in x.indices:
                trace = [sum(map(mul, arr.normals[i], w)) for w in x.vectors]
                classes.setdefault(primitive_key(trace), set(x.indices)).add(i)
        covers[x.indices] = []
        for indices in map(frozenset, classes.values()):
            if indices not in flats:
                vectors, den = integer_kernel([arr.normals[i] for i in sorted(indices)], arr.n)
                flats[indices] = Flat(indices, arr.n - len(vectors), vectors, den)
                queue.append(flats[indices])
            covers[x.indices].append(indices)
    ordered = sorted(flats.values(), key=Flat.key)
    pos = {f.indices: k for k, f in enumerate(ordered)}
    # above[k]: positions of the flats strictly above ordered[k], in order
    above = [None] * len(ordered)
    for k in range(len(ordered) - 1, -1, -1):
        up = set()
        for c in covers[ordered[k].indices]:
            up.add(pos[c])
            up.update(above[pos[c]])
        above[k] = sorted(up)
    table = {}
    for k, x in enumerate(ordered):
        row = {x.indices: 1}
        collected = dict.fromkeys(above[k], 1)  # mu(X, X) = 1, pushed up
        for j in above[k]:
            m = row[ordered[j].indices] = -collected[j]
            for z in above[j]:
                collected[z] += m
        table[x.indices] = row
    return IntersectionLattice(ordered, table)


def char_poly(arr, lattice=None):
    """Characteristic polynomial sum of mu(X) t^{dim X}, as a MultiPoly in t.

    Here and in complement_euler, dense_edges and zeta.candidate_poles,
    lattice defaults to arr.lattice, which the package reads everywhere;
    one passed in must be arr's.  The parameter stays for callers that
    build and time the lattice apart (perfbench/workloads.py).
    """
    lattice = lattice or arr.lattice
    terms = {}
    for f in lattice.flats:
        ex = (arr.n - f.codim,)
        terms[ex] = terms.get(ex, Fraction(0)) + lattice.mu(f)
    return MultiPoly(1, terms)


def complement_euler(arr, lattice=None):
    """Euler characteristic of the complement, chi_A(1) = sum of mu(X)."""
    lattice = lattice or arr.lattice
    return Fraction(sum(lattice.mu(f) for f in lattice.flats))


def proj_complement_euler(arr):
    """Euler characteristic of the projectivized complement.

    That is (chi_A / (t - 1))(1).  A nonempty central arrangement has
    chi_A(1) = 0, so the value is chi_A'(1) = sum of mu(X) dim X; for the
    empty arrangement the same sum gives n, the value for P^{n-1}.
    """
    return Fraction(sum(arr.lattice.mu(f) * f.dim(arr.n) for f in arr.lattice.flats))


def is_essential(arr):
    """The normals span the dual space: their integer kernel is zero."""
    _require_central(arr, "is_essential")
    return not integer_kernel(arr.normals, arr.n)[0]


def is_indecomposable(arr):
    """No nontrivial split of the hyperplanes with additive rank.

    Equivalently, the minimal flat is dense.
    """
    if arr.r == 0:
        raise ArrangementError("indecomposability of the empty arrangement")
    return arr.lattice.is_dense(arr.lattice.minimal_flat())


def dense_edges(arr, lattice=None):
    """Proper flats whose localized arrangement is indecomposable.

    Read off the Mobius table through Crapo's beta invariant (see
    IntersectionLattice.is_dense).  Every hyperplane is dense; the origin
    is dense iff the arrangement is essential and indecomposable.
    """
    lattice = lattice or arr.lattice
    return [f for f in lattice.proper_flats() if lattice.is_dense(f)]


def localize_at_point(arr, point):
    """The central arrangement of forms vanishing at the point, recentered.

    Keeps normals, multiplicities and the relevant factor columns of the
    hyperplanes through the point; drops the constants.  Raises if no
    hyperplane passes through the point.
    """
    point = tuple(rational(x) for x in point)
    if len(point) != arr.n:
        raise ArrangementError("point length %d, ambient dimension %d" % (len(point), arr.n))
    keep = [i for i in range(arr.r)
            if dot(arr.forms[i], point) + arr.consts[i] == 0]
    if not keep:
        raise ArrangementError("no hyperplane passes through the point")
    forms = [arr.forms[i] for i in keep]
    mults = [arr.mults[i] for i in keep]
    factors = None
    if arr.factors is not None:
        # factor rows with all kept exponents zero are local units; keep the
        # rows anyway so factor variable indices stay aligned with the
        # global factorization
        factors = [tuple(row[i] for i in keep) for row in arr.factors]
    return Arrangement(arr.n, forms, mults, factors=factors,
                       name=(arr.name + "@point") if arr.name else None)
