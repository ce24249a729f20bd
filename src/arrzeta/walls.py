"""Wall-and-chamber geometry on the parameter space of the arrangement.

A wall family is a primitive nonnegative integer normal L together with a
finite set of fractional offsets in [0, 1); its walls are the affine
hyperplanes L(alpha) = offset + integer.  Chambers are the connected
components of the complement of all walls, with the closed-below, open-above
convention: the wall L(alpha) = gamma separates a from b exactly when
L(a) <= gamma < L(b) (or with a and b swapped).

Everything is exact: separating walls are enumerated by integer interval
arithmetic on Fractions, and chamber paths order them by exact keys that an
infinitesimal nudge of the endpoints makes distinct.
"""

from fractions import Fraction
from itertools import combinations
from math import ceil, floor, gcd

from .core import as_int, rational, vector
from .arrangement import dense_edges


class WallFamily:
    """A primitive nonnegative normal with its offset set."""

    def __init__(self, normal, offsets):
        normal = tuple(as_int(e, "a wall normal entry") for e in normal)
        if not normal or all(e == 0 for e in normal):
            raise ValueError("wall family needs a nonzero normal")
        if any(e < 0 for e in normal):
            raise ValueError("wall normals are nonnegative")
        g = gcd(*normal)
        if g != 1:
            raise ValueError("wall normal must be primitive (content %d)" % g)
        offsets = sorted({rational(o) for o in offsets})
        if not offsets:
            raise ValueError("wall family needs at least one offset")
        if any(not 0 <= o < 1 for o in offsets):
            raise ValueError("offsets live in [0, 1)")
        self.normal = normal
        self.offsets = tuple(offsets)

    @property
    def dim(self):
        return len(self.normal)

    def evaluate(self, point):
        point = vector(point)
        if len(point) != self.dim:
            raise ValueError("point length %d, family dimension %d" % (len(point), self.dim))
        return sum(e * x for e, x in zip(self.normal, point) if e)

    def hits(self, value):
        """True iff some wall of the family passes through this level."""
        return value - floor(value) in self.offsets

    def __eq__(self, other):
        return (isinstance(other, WallFamily) and self.normal == other.normal
                and self.offsets == other.offsets)

    def __hash__(self):
        return hash((self.normal, self.offsets))

    def __repr__(self):
        return "WallFamily(%r, {%s})" % (self.normal, ", ".join(str(o) for o in self.offsets))


class WallSet:
    """A finite set of wall families with distinct normals, sorted."""

    def __init__(self, families):
        families = sorted(families, key=lambda f: f.normal)
        seen = set()
        for f in families:
            if f.normal in seen:
                raise ValueError("duplicate wall normal %r; merge the offsets" % (f.normal,))
            seen.add(f.normal)
        if families:
            dims = {f.dim for f in families}
            if len(dims) != 1:
                raise ValueError("wall families of mixed dimension")
        self.families = tuple(families)

    @property
    def dim(self):
        if not self.families:
            raise ValueError("empty wall set has no dimension")
        return self.families[0].dim

    def __iter__(self):
        return iter(self.families)

    def __len__(self):
        return len(self.families)

    def __eq__(self, other):
        return isinstance(other, WallSet) and self.families == other.families

    def __repr__(self):
        return "WallSet(%d families)" % len(self.families)


class WallInstance:
    """One wall: a family normal with a concrete level gamma."""

    def __init__(self, normal, gamma):
        self.normal = tuple(as_int(e, "a wall normal entry") for e in normal)
        self.gamma = rational(gamma)

    def key(self):
        return (self.normal, self.gamma)

    def __eq__(self, other):
        return isinstance(other, WallInstance) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return "Wall(%s = %s)" % (self.normal, self.gamma)


def walls_from_resolution(data):
    """Wall families generated by order tuples of a resolution.

    Each tuple of nonnegative integers (the ord of a ResolutionDatum, say)
    of content c contributes its primitive normal with offsets 0, 1/c, ...,
    (c-1)/c; families with equal normals merge.
    """
    fams = {}
    for item in data:
        raw = tuple(as_int(e, "an order tuple entry") for e in item)
        if any(e < 0 for e in raw):
            raise ValueError("order tuples are nonnegative")
        if all(e == 0 for e in raw):
            raise ValueError("zero order tuple generates no wall")
        c = gcd(*raw)
        normal = tuple(e // c for e in raw)
        offsets = {Fraction(k, c) for k in range(c)}
        fams.setdefault(normal, set()).update(offsets)
    return WallSet(WallFamily(nrm, offs) for nrm, offs in fams.items())


def nd_wall_set(arr):
    """The wall set cut out by the dense edges, via 0/1 indicator tuples."""
    data = []
    for f in dense_edges(arr):
        data.append(tuple(1 if i in f.indices else 0 for i in range(arr.r)))
    return walls_from_resolution(data)


def localized_walls(walls, point):
    """The wall instances passing through a point, sorted."""
    point = vector(point)
    out = []
    for fam in walls:
        v = fam.evaluate(point)
        if fam.hits(v):
            out.append(WallInstance(fam.normal, v))
    return sorted(out)


def _crossed_levels(walls, a, b):
    """(family, L(a), L(b), gamma) for every wall at a level gamma with
    min(L(a), L(b)) <= gamma < max(L(a), L(b)), family by family."""
    for fam in walls:
        va, vb = fam.evaluate(a), fam.evaluate(b)
        lo, hi = min(va, vb), max(va, vb)
        for o in fam.offsets:
            for k in range(ceil(lo - o), ceil(hi - o)):
                yield fam, va, vb, o + k


def separating_walls(walls, a, b):
    """All wall instances separating a from b, closed below and open above.

    The wall at level gamma separates the pair iff min(L(a), L(b)) <= gamma
    < max(L(a), L(b)).  Sorted by (normal, level); empty iff same chamber.
    """
    return sorted(WallInstance(fam.normal, gamma)
                  for fam, _, _, gamma in _crossed_levels(walls, vector(a), vector(b)))


def chamber_path(walls, a, b):
    """The walls crossed on the way from a's chamber to b's chamber, in
    crossing order.

    Both endpoints are nudged by -delta, delta = (e, e^2, ..., e^d), for an
    infinitesimal e > 0.  A nonnegative normal L drops by L(delta) > 0,
    which is below every gap between wall levels, so no wall separates a
    nudged endpoint from its original and the nudged segment crosses
    exactly separating_walls(a, b).  With dL = L(b) - L(a) != 0 it crosses
    L = gamma at time (gamma - L(a))/dL + sum_j e^j L_j/dL, so the walls
    are sorted by the key ((gamma - L(a))/dL, L_1/dL, ..., L_d/dL).  Equal
    keys force proportional primitive normals, hence the same family and
    then the same gamma, so no two walls are crossed at once.
    """
    a = vector(a)
    b = vector(b)
    if a == b:
        raise ValueError("endpoints coincide; no path to build")
    if len(walls) == 0:
        return []
    if len(a) != walls.dim or len(b) != walls.dim:
        raise ValueError("points do not match the wall dimension")
    crossings = []
    for fam, va, vb, gamma in _crossed_levels(walls, a, b):
        dl = vb - va
        key = ((gamma - va) / dl,) + tuple(e / dl for e in fam.normal)
        crossings.append((key, WallInstance(fam.normal, gamma)))
    return [w for _, w in sorted(crossings)]


def extend_restricted_walls(walls):
    """Close a wall set under coordinate restrictions.

    For every family (L, offsets) and every nonempty support subset I, the
    restricted family has normal L^I / content and offsets (o + j)/c mod 1
    for old offsets o and 0 <= j < c, where c is the content of L^I.  The
    input families are reproduced by I = full support.
    """
    fams = {}
    for fam in walls:
        support = [i for i, e in enumerate(fam.normal) if e]
        for size in range(1, len(support) + 1):
            for sub in combinations(support, size):
                masked = tuple(e if i in sub else 0 for i, e in enumerate(fam.normal))
                c = gcd(*masked)
                normal = tuple(e // c for e in masked)
                offs = set()
                for o in fam.offsets:
                    for j in range(c):
                        v = (o + j) / c
                        offs.add(v - floor(v))
                fams.setdefault(normal, set()).update(offs)
    return WallSet(WallFamily(nrm, offs) for nrm, offs in fams.items())
