"""Wall-and-chamber geometry on the parameter space of the arrangement.

A wall family is a primitive nonnegative integer normal L together with a
finite set of fractional offsets in [0, 1); its walls are the affine
hyperplanes L(alpha) = offset + integer.  Chambers are the connected
components of the complement of all walls, with the closed-below, open-above
convention: the wall L(alpha) = gamma separates a from b exactly when
L(a) <= gamma < L(b) (or with a and b swapped).

Everything is exact and runs on integers: a call scales its points by D,
the lcm of their denominators, and a family's offsets by q, so the crossed
levels m/q come out of floor divisions in increasing order.  Chamber paths
sort them by crossing time, ties broken per family as a nudge decides.
"""

from fractions import Fraction
from itertools import combinations
from math import floor, gcd, lcm
from operator import mul

from .core import _trusted, as_int, rational, vector
from .arrangement import dense_edges


class WallFamily:
    """A primitive nonnegative normal with its offset set.  It is immutable,
    so q, the lcm of the offsets' denominators, and the offsets times q,
    the integers the wall queries read, are made once."""

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
        self.normal, self.offsets = normal, tuple(offsets)
        self.q = lcm(*(o.denominator for o in offsets))
        self.nums = tuple(o.numerator * (self.q // o.denominator) for o in offsets)

    @property
    def dim(self):
        return len(self.normal)

    def evaluate(self, point):
        return self._dot(vector(point))

    def _dot(self, point):
        """L(point) for a coerced point, of Fractions or of scaled ints."""
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
        for f, g in zip(families, families[1:]):
            if f.normal == g.normal:
                raise ValueError("duplicate wall normal %r; merge the offsets" % (f.normal,))
        if len({f.dim for f in families}) > 1:
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

    Each tuple of nonnegative integers (the ord of a flat, say: each factor
    row summed over its hyperplanes) of content c contributes its primitive
    normal with offsets 0, 1/c, ..., (c-1)/c; families with equal normals
    merge.
    """
    fams = {}
    for item in data:
        raw = tuple(as_int(e, "an order tuple entry") for e in item)
        if any(e < 0 for e in raw):
            raise ValueError("order tuples are nonnegative")
        if all(e == 0 for e in raw):
            raise ValueError("zero order tuple generates no wall")
        c = gcd(*raw)
        fams.setdefault(tuple(e // c for e in raw), set()).update(Fraction(k, c) for k in range(c))
    return WallSet(WallFamily(nrm, offs) for nrm, offs in fams.items())


def nd_wall_set(arr):
    """The walls of the dense edges: their 0/1 indicator normals, offsets {0}."""
    families = []
    for f in dense_edges(arr):
        normal = [0] * arr.r
        for i in f.indices:
            normal[i] = 1
        families.append(_trusted(WallFamily, normal=tuple(normal), offsets=(Fraction(0),),
                                 q=1, nums=(0,)))
    return WallSet(families)


def _scaled(*points):
    """The coerced points times D, the lcm of their denominators, and D."""
    points = [vector(p) for p in points]
    den = lcm(*(x.denominator for p in points for x in p))
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in points], den


def _levels(walls, a, b, den):
    """(family, L(a)D, (L(b) - L(a))D, q, ms) per family, for a and b scaled
    by D: ms the m, increasing, with min(L(a), L(b)) <= m/q < max(L(a), L(b))."""
    for fam in walls:
        normal, q, nums = fam.normal, fam.q, fam.nums
        if len(a) != len(normal) or len(b) != len(normal):
            fam._dot(a if len(a) != len(normal) else b)  # raises the length error
        va, vb = sum(map(mul, normal, a)), sum(map(mul, normal, b))
        lo, hi = min(va, vb) * q, max(va, vb) * q
        m_lo, m_hi = -(-lo // den), -(-hi // den)
        yield fam, va, vb - va, q, [m + p for m in range(m_lo - m_lo % q, m_hi, q)
                                    for p in nums if m_lo <= m + p < m_hi]


def localized_walls(walls, point):
    """The wall instances passing through a point, sorted."""
    (point,), den = _scaled(point)
    out = []
    for fam in walls:
        v, q, nums = fam._dot(point), fam.q, fam.nums
        if v * q % den == 0 and v * q // den % q in nums:
            out.append(_trusted(WallInstance, normal=fam.normal, gamma=Fraction(v, den)))
    return out if isinstance(walls, WallSet) else sorted(out)


def separating_walls(walls, a, b):
    """All wall instances separating a from b, closed below and open above.

    The wall at level gamma separates the pair iff min(L(a), L(b)) <= gamma
    < max(L(a), L(b)).  Sorted by (normal, level); empty iff same chamber.
    """
    (a, b), den = _scaled(a, b)
    out = [_trusted(WallInstance, normal=fam.normal, gamma=Fraction(m, q))
           for fam, _, _, q, ms in _levels(walls, a, b, den) for m in ms]
    return out if isinstance(walls, WallSet) else sorted(out)


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
    then the same gamma, so no two walls are crossed at once.  The keys are
    ints: times and tie-breaks (one per family) times one positive multiple.
    """
    (a, b), den = _scaled(a, b)
    if a == b:
        raise ValueError("endpoints coincide; no path to build")
    if len(walls) == 0:
        return []
    if len(a) != walls.dim or len(b) != walls.dim:
        raise ValueError("points do not match the wall dimension")
    crossed = [(fam, va, dl, q, ms) for fam, va, dl, q, ms in _levels(walls, a, b, den) if ms]
    big = lcm(*(q * dl for _, _, dl, q, _ in crossed))
    crossings = []
    for fam, va, dl, q, ms in crossed:
        tie = tuple(e * (big // dl) for e in fam.normal)
        crossings.extend(((m * den - va * q) * (big // (q * dl)), tie, _trusted(
            WallInstance, normal=fam.normal, gamma=Fraction(m, q))) for m in ms)
    return [w for _, _, w in sorted(crossings)]


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
                fams.setdefault(tuple(e // c for e in masked), set()).update(
                    (o + j) / c % 1 for o in fam.offsets for j in range(c))
    return WallSet(WallFamily(nrm, offs) for nrm, offs in fams.items())
