"""Built-in fixtures: small arrangements and reference root data.

These ship with the package so the command line and the test suite can run
without external files.  veys is the five-plane arrangement in C^3 given by
x, y, x - y, z^2, (x - z)^4; threelines is the reduced braid-type
arrangement xy(x - y) in C^2; boolean2 is the coordinate cross xy.
"""

from fractions import Fraction

from .arrangement import Arrangement
from .harness import BRootSet


def veys():
    return Arrangement(
        3,
        [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, -1)],
        mults=[1, 1, 1, 2, 4],
        name="veys")


def threelines():
    return Arrangement(2, [(1, 0), (0, 1), (1, -1)], mults=[1, 1, 1], name="threelines")


def boolean2():
    return Arrangement(2, [(1, 0), (0, 1)], mults=[1, 1], name="boolean2")


def threelines_factored():
    """threelines split as h_1 = x, h_2 = y (x - y)."""
    return Arrangement(2, [(1, 0), (0, 1), (1, -1)], mults=[1, 1, 1],
                       factors=[(1, 0, 0), (0, 1, 1)], name="threelines-factored")


def veys_broots():
    """Roots of the Bernstein-Sato polynomial of the veys arrangement."""
    roots = [Fraction(-1, 3), Fraction(-2, 3), Fraction(-4, 3)]
    roots += [Fraction(-i, 4) for i in range(1, 5)]
    roots += [Fraction(-i, 7) for i in range(2, 9)]
    roots += [Fraction(-i, 9) for i in range(4, 12)]
    return BRootSet(roots)


EXAMPLES = {
    "veys": veys,
    "threelines": threelines,
    "boolean2": boolean2,
}
