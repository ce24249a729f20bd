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

The lattice is built over the integers: the walk carries, for each flat,
one primitive integer trace per class of hyperplanes outside it whose
traces are proportional, and takes a cover's traces from its parent's by
2x2 determinants, so no flat needs a kernel; a flat keeps only its index
set and codimension.  One recursion over each flat's lower interval fills
every table, by the flats' positions in lattice order: mu(ambient, X), the
nonzero interval Euler characteristics chi(X, Y), all exact, and, read off
them once, the dense edges' positions and every other proper flat's split
into two flats, so dense_edges and the flag sum hash no index set.  Each
arrangement builds its lattice once, on the first read of
Arrangement.lattice, and every reader shares it.
"""

from collections import deque
from fractions import Fraction
from functools import cached_property

from .core import MultiPoly, _trusted, as_int, primitive_key, primitive_normal, rational, dot


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
        # two forms are proportional exactly when their whole affine rows
        # have the same primitive integer key; a central row's key is its
        # primitive normal with a 0 appended
        normals, seen = [], {}
        for i, (normal, const) in enumerate(zip(self.forms, self.consts)):
            key = primitive_normal(normal + (const,))
            if key in seen:
                raise ArrangementError(
                    "forms %d and %d are proportional; merge them into one "
                    "hyperplane with a multiplicity" % (seen[key] + 1, i + 1))
            seen[key] = i
            normals.append(primitive_key(key[:-1]) if key[-1] else key[:-1])
        self.normals = tuple(normals)
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

    @cached_property
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

    codim, like each index an integer, is the codimension of the subspace
    W.  Only the lattice walk keeps the traces of hyperplanes on W, while
    it runs.
    """

    def __init__(self, indices, codim):
        self.indices = frozenset(as_int(i, "a hyperplane index", ArrangementError) for i in indices)
        self.codim = as_int(codim, "a codimension", ArrangementError)

    def key(self):
        return (self.codim, tuple(sorted(self.indices)))

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
    """All flats of a central arrangement and the numbers read off them.

    flats come sorted by (codim, index set), and a flat's position is its
    index in that order, the ambient space's 0; pos maps each flat's index
    set to its position, and every table is by position.  mobius is a
    tuple parallel to flats: mobius[k] is mu(ambient, flats[k]), which
    gives the characteristic polynomial.  euler holds one dict per
    position k: it maps the position j of each flat below flats[k] with a
    nonzero interval_euler chi to chi(flats[j], flats[k]), in lattice
    order; it gives the flag sum and the dense edges.  Both are filled
    from lower intervals (see intersection_lattice).  Read off euler once,
    dense holds the positions of the dense proper flats, those whose row
    has an entry at 0, in lattice order, and splits maps every other
    proper flat's position k to (y, g), y the first key of row k and g the
    position of flats[k].indices - flats[y].indices (see zeta._flag_sum).
    pole_tables starts empty; zeta fills it on first use with one
    zeta._PoleTable per tuple of factor rows, the dense edges' pole forms
    under that factorization, so the flag sums and candidate poles of the
    lattice's arrangement make them once.
    """

    def __init__(self, flats, pos, mobius, euler):
        self.flats = tuple(flats)
        self._pos = pos
        self.mobius = tuple(mobius)
        self.euler = euler
        self.dense = tuple(k for k, below in enumerate(euler[1:], 1) if 0 in below)
        self.splits = {k: (y, self._pos[self.flats[k].indices - self.flats[y].indices])
                       for k, below in enumerate(euler[1:], 1) if 0 not in below
                       for y in [next(iter(below))]}
        self.pole_tables = {}

    def _position(self, indices):
        if indices not in self._pos:
            raise ArrangementError("index set %r is not closed" % (sorted(indices),))
        return self._pos[indices]

    def flat(self, indices):
        return self.flats[self._position(
            frozenset(as_int(i, "a hyperplane index", ArrangementError) for i in indices))]

    @property
    def ambient(self):
        return self.flats[0]

    def minimal_flat(self):
        """The intersection of all hyperplanes (bottom subspace, top flat).
        Its codimension is the rank of the arrangement and no other flat
        has that codimension, so it sorts last."""
        return self.flats[-1]

    def mu(self, flat):
        return self.mobius[self._position(flat.indices)]

    def interval_euler(self, X, Y):
        """Euler characteristic of the projectivized complement of the
        interval arrangement between flats X < Y:
        sum over X <= Z <= Y of mu(X, Z) (codim Y - codim Z)."""
        if not X.indices < Y.indices:
            raise ArrangementError("interval needs flats X < Y (index set of X "
                                   "strictly inside that of Y)")
        return self.euler[self._position(Y.indices)].get(self._position(X.indices), 0)

    def euler_below(self, Y):
        """The (X, interval_euler(X, Y)) pairs over the flats X < Y whose
        value is nonzero, in lattice order."""
        return [(self.flats[j], e) for j, e in self.euler[self._position(Y.indices)].items()]

    def is_dense(self, flat):
        """A proper flat is dense iff its localized arrangement is
        indecomposable, iff Crapo's beta invariant of that localization,
        which is up to sign interval_euler(ambient, flat), is nonzero
        (Crapo, "A higher invariant for matroids", 1967)."""
        return self.interval_euler(self.ambient, flat) != 0

    def __len__(self):
        return len(self.flats)


def _restrict(classes, p):
    """The classes of the cover ker p, from the (trace, members) classes
    of its parent, p the trace of one of them: every other trace t becomes
    the primitive key of [p_m t_j - p_j t_m for j != m], m the index of
    p's first nonzero entry, and classes with equal keys merge into one
    new members list."""
    if len(p) == 2:
        # ker p is a line, on which all nonzero traces are proportional
        others = [i for t, members in classes if t is not p for i in members]
        return [((1,), others)] if others else []
    m = next(j for j, e in enumerate(p) if e)
    pm = p[m]
    out = {}
    for t, members in classes:
        if t is not p:
            tm = t[m]
            trace = [pm * a - tm * b for a, b in zip(t, p)]
            del trace[m]  # p_m t_m - p_m t_m
            key = primitive_key(trace)
            if key in out:
                out[key] += members
            else:
                out[key] = list(members)
    return list(out.items())


def intersection_lattice(arr):
    """All flats, found by walking up the covers from the ambient space.

    The flats covering X correspond one to one to the hyperplanes of the
    restriction of the arrangement to X (Orlik-Terao, Arrangements of
    Hyperplanes, 1992): the hyperplanes outside X whose traces on X are
    proportional cut out the same cover, whose index set, X's plus that
    class, is already closed, since a hyperplane through the cover Y
    meets X in Y and so has a trace on X proportional to the class's.
    The walk keeps one primitive integer trace per class, in coordinates
    of some integer basis of X; the ambient space's traces are the
    normals.  If Y is reached through the class with trace p, and m is
    the index of p's first nonzero entry, the vectors p_m e_j - p_j e_m
    (j != m) are a basis of ker p, which is Y; on it a trace t on X
    becomes [p_m t_j - p_j t_m for j != m], one 2x2 determinant per
    entry, and codim Y = codim X + 1.  Traces proportional on X are
    restrictions of proportional forms and stay proportional on every
    cover, so classes only merge and one trace per class is enough.  A
    cover's traces are worked out when the walk reaches it, from its
    parent's classes and p: no kernel, no dot product in the ambient
    space and no Fraction is made.

    P(X/Y) is the disjoint union of the projectivized complements of the
    intervals [Z, Y], X <= Z < Y, so chi(X, Y) = codim Y - codim X - (sum
    of chi(Z, Y) over X < Z < Y): summed over those Z, interval_euler's
    formula keeps mu(X, X) (codim Y - codim X) alone, as the mu(Z, W)
    cancel at every other W < Y.  So each Y, in lattice order, takes the
    flats below it from its lower covers, then chi(X, Y) for X from the
    top down, and mu(ambient, Y) = -(sum of mu(ambient, X) over X < Y).
    """
    _require_central(arr, "intersection_lattice")
    # the walk's flats are made unchecked (core._trusted): their indices
    # are ints from range and their codims ints
    ambient = _trusted(Flat, indices=frozenset(), codim=0)
    flats = {ambient.indices: ambient}
    lower = {}
    # a queued flat comes with its parent's classes and the trace p of the
    # class it was reached by; its own classes are worked out when popped
    queue = deque([(ambient, [(v, [i]) for i, v in enumerate(arr.normals)], None)])
    while queue:
        x, parent, p = queue.popleft()
        classes = parent if p is None else _restrict(parent, p)
        for trace, members in classes:
            # X's set grown in ascending order, which fixes the frozenset's
            # iteration order
            indices = set(x.indices)
            indices.update(sorted(members))
            indices = frozenset(indices)
            lower.setdefault(indices, []).append(x.indices)
            if indices not in flats:
                flats[indices] = _trusted(Flat, indices=indices, codim=x.codim + 1)
                queue.append((flats[indices], classes, trace))
    ordered = sorted(flats.values(), key=Flat.key)
    pos = {f.indices: k for k, f in enumerate(ordered)}
    codim = [f.codim for f in ordered]
    # below[k]: the positions of the X <= ordered[k], descending; acc[j]:
    # the sum of chi(Z, Y) over the ordered[j] < Z < Y, reset once read
    below, mobius, euler, acc = [[0]], [1], [{}], [0] * len(ordered)
    for k, y in enumerate(ordered[1:], 1):
        down = sorted({j for x in lower[y.indices] for j in below[pos[x]]}, reverse=True)
        below.append([k] + down)
        mobius.append(-sum(map(mobius.__getitem__, down)))
        row = []
        for j in down:
            e = y.codim - codim[j] - acc[j]
            if e:
                row.append((j, e))
                for z in below[j]:
                    acc[z] += e
            acc[j] = 0
        euler.append(dict(reversed(row)))
    return IntersectionLattice(ordered, pos, mobius, euler)


def char_poly(arr, lattice=None):
    """Characteristic polynomial sum of mu(X) t^{dim X}, as a MultiPoly in t.

    Here and in complement_euler, dense_edges and zeta.candidate_poles,
    lattice defaults to arr.lattice, which the package reads everywhere;
    one passed in must be arr's.  The parameter stays for callers that
    build and time the lattice apart (perfbench/workloads.py).
    """
    lattice = lattice or arr.lattice
    terms = {}
    for f, m in zip(lattice.flats, lattice.mobius):
        ex = (arr.n - f.codim,)
        terms[ex] = terms.get(ex, Fraction(0)) + m
    return MultiPoly(1, terms)


def complement_euler(arr, lattice=None):
    """Euler characteristic of the complement, chi_A(1) = sum of mu(X)."""
    lattice = lattice or arr.lattice
    return Fraction(sum(lattice.mobius))


def proj_complement_euler(arr):
    """Euler characteristic of the projectivized complement.

    That is (chi_A / (t - 1))(1).  A nonempty central arrangement has
    chi_A(1) = 0, so the value is chi_A'(1) = sum of mu(X) dim X; for the
    empty arrangement the same sum gives n, the value for P^{n-1}.
    """
    lattice = arr.lattice
    return Fraction(sum(m * (arr.n - f.codim) for f, m in zip(lattice.flats, lattice.mobius)))


def is_essential(arr):
    """The normals span the dual space: the minimal flat, whose
    codimension is the rank, is the origin."""
    _require_central(arr, "is_essential")
    return arr.lattice.minimal_flat().codim == arr.n


def is_indecomposable(arr):
    """No nontrivial split of the hyperplanes with additive rank.

    Equivalently, the minimal flat is dense.
    """
    if arr.r == 0:
        raise ArrangementError("indecomposability of the empty arrangement")
    return arr.lattice.is_dense(arr.lattice.minimal_flat())


def dense_edges(arr, lattice=None):
    """Proper flats whose localized arrangement is indecomposable, in
    lattice order.

    Read off the Euler table through Crapo's beta invariant (see
    IntersectionLattice.is_dense): a proper flat is dense exactly when
    its row of IntersectionLattice.euler has an entry at position 0, the
    ambient space; the lattice records their positions once
    (IntersectionLattice.dense).  Every hyperplane is dense; the origin is
    dense iff the arrangement is essential and indecomposable.
    """
    lattice = lattice or arr.lattice
    return [lattice.flats[k] for k in lattice.dense]


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
