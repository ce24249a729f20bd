"""Wall-crossing data for two worked filtration examples.

Two families of exactly computable module filtrations drive the wall
machinery of this package:

* monomial connections on a torus, where the filtration jumps on the
  coordinate walls alpha_i = beta_i mod 1 and the generator exponents are
  given by ceilings, and
* the direct image of the structure sheaf under the diagonal embedding of
  the line in the plane, with basis t1^m t2^n / (t1 - t2)^k, where the
  filtration jumps on the walls alpha_1 + alpha_2 = integer and membership
  is the single inequality m + n - k >= alpha_1 + alpha_2 - 2.

Everything is exact integer and rational arithmetic; the brute-force
membership predicates here are oracles for the wall behaviour elsewhere.
"""

from fractions import Fraction
from math import ceil

from .core import as_int, rational
from .walls import WallFamily, WallSet


class MonomialConnectionSpec:
    """A rank-one monomial connection: residues beta_i on the coordinate
    divisors of a torus embedded in C^r."""

    def __init__(self, beta):
        self.beta = tuple(rational(b) for b in beta)
        if not self.beta:
            raise ValueError("need at least one residue")

    @property
    def r(self):
        return len(self.beta)

    def __repr__(self):
        return "MonomialConnectionSpec(%s)" % (self.beta,)


def ncv_generator(spec, alpha):
    """Exponent vector of the filtration generator at level alpha.

    Componentwise ceil(alpha_i - beta_i) - 1; constant on chambers of the
    coordinate wall set and jumping exactly on its walls.
    """
    alpha = tuple(rational(x) for x in alpha)
    if len(alpha) != spec.r:
        raise ValueError("alpha length %d, connection has rank %d" % (len(alpha), spec.r))
    return tuple(ceil(a - b) - 1 for a, b in zip(alpha, spec.beta))


def ncv_walls(spec):
    """Coordinate wall families: normal e_i with offset beta_i mod 1."""
    fams = []
    for i, b in enumerate(spec.beta):
        normal = tuple(1 if j == i else 0 for j in range(spec.r))
        off = b - (b.numerator // b.denominator)
        fams.append(WallFamily(normal, [off]))
    return WallSet(fams)


class DiagClass:
    """A basis class t1^m t2^n / (t1 - t2)^k of the diagonal direct image."""

    def __init__(self, m, n, k):
        self.m, self.n, self.k = (as_int(e, "a basis class exponent") for e in (m, n, k))
        if self.m < 0 or self.n < 0 or self.k < 0:
            raise ValueError("basis classes have nonnegative exponents")

    def level(self):
        return self.m + self.n - self.k

    def __repr__(self):
        return "DiagClass(t1^%d t2^%d / (t1 - t2)^%d)" % (self.m, self.n, self.k)


def diag_vres_member(cls, alpha):
    """Membership of a basis class in the restricted filtration at alpha.

    Single inequality m + n - k >= alpha_1 + alpha_2 - 2, with classes of
    k = 0 always members (they map to zero in the localized module).
    """
    a1, a2 = (rational(x) for x in alpha)
    if cls.k == 0:
        return True
    return cls.level() >= a1 + a2 - 2


def diag_s_eigenvalue(cls):
    """Eigenvalue of the Euler operator s on the class: -(m + n - k + 2)."""
    return -(cls.level() + 2)


def diag_walls():
    """The restricted wall set: alpha_1 + alpha_2 = integer only."""
    return WallSet([WallFamily((1, 1), [Fraction(0)])])


def diag_annihilator(alpha, beta):
    """Integer levels gamma with L(alpha) <= gamma < L(beta) for L = (1, 1).

    These index the quotient V(alpha)/V(beta) of the restricted filtration:
    each wall strictly between the two levels (closed below, open above)
    kills one graded piece.  Requires alpha <= beta componentwise in the
    closed positive quadrant.
    """
    alpha = tuple(rational(x) for x in alpha)
    beta = tuple(rational(x) for x in beta)
    if len(alpha) != 2 or len(beta) != 2:
        raise ValueError("diagonal example lives in two parameters")
    if any(a < 0 for a in alpha):
        raise ValueError("alpha must lie in the closed positive quadrant")
    if any(a > b for a, b in zip(alpha, beta)):
        raise ValueError("alpha must be componentwise at most beta")
    lo = alpha[0] + alpha[1]
    hi = beta[0] + beta[1]
    return list(range(ceil(lo), ceil(hi)))
