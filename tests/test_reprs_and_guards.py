"""The small protocol methods and input guards that no other test reaches:
each public type's repr, Verdict's truth value, the hashes of the
hashable value types, the length, size and exponent checks, and the
message of a non-canonical AffineForm."""

from fractions import Fraction

import pytest

from arrzeta import (Arrangement, BRootSet, DiagClass, Flat, MonomialConnectionSpec, Polytope,
                     WallFamily, WallInstance, WallSet)
from arrzeta.core import AffineForm, MultiPoly, QMatrix, dot
from arrzeta.harness import Verdict
from arrzeta.zeta import PoleReport, ZetaFunction

F = Fraction


@pytest.mark.parametrize("build, text", [
    (lambda: Arrangement(2, [(1, 0), (0, 1), (1, 1)]), "Arrangement(arrangement: r=3 in C^2)"),
    (lambda: Arrangement(2, [(1, 0), (0, 1)], name="axes"), "Arrangement(axes: r=2 in C^2)"),
    (lambda: Flat({0, 2}, 2), "Flat({1,3} codim 2)"),
    (lambda: QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), "QMatrix(2 x 3)"),
    (lambda: MultiPoly(2, {(1, 0): F(1, 2), (0, 0): -2}), "MultiPoly(1/2*s1 - 2)"),
    (lambda: Verdict(True, ["a", "b"]), "Verdict(PASS: a; b)"),
    (lambda: Verdict(False, []), "Verdict(FAIL: )"),
    (lambda: BRootSet([-1, "-1/2"]), "BRootSet(-1/2, -1)"),
    (lambda: Polytope(2, [([0], 1), ([0, 1], 2)]), "Polytope(2 inequalities in R^2)"),
    (lambda: MonomialConnectionSpec([F(1, 2), 3]),
     "MonomialConnectionSpec((Fraction(1, 2), Fraction(3, 1)))"),
    (lambda: DiagClass(1, 2, 3), "DiagClass(t1^1 t2^2 / (t1 - t2)^3)"),
    (lambda: WallFamily((1, 0), [0, F(1, 2)]), "WallFamily((1, 0), {0, 1/2})"),
    (lambda: WallSet([WallFamily((1, 0), [0]), WallFamily((0, 1), [F(1, 3)])]),
     "WallSet(2 families)"),
    (lambda: WallInstance((1, 2), F(1, 2)), "Wall((1, 2) = 1/2)"),
    (lambda: ZetaFunction(1, [(F(2), [AffineForm((1,), 1), AffineForm((3,), 2)])]),
     "ZetaFunction((2) / (s + 1)*(3*s + 2))"),
    (lambda: PoleReport(univariate=[(F(-2, 3), 1), (F(-1), 2)]),
     "PoleReport(-2/3 (order 1), -1 (order 2))"),
    (lambda: PoleReport(multivariate=[(AffineForm((1, 1), 1), 2), (AffineForm((0, 1), 1), 1)]),
     "PoleReport(s1 + s2 + 1 (order 2), s2 + 1 (order 1))"),
], ids=["Arrangement", "Arrangement-named", "Flat", "QMatrix", "MultiPoly", "Verdict-pass",
        "Verdict-fail", "BRootSet", "Polytope", "MonomialConnectionSpec", "DiagClass",
        "WallFamily", "WallSet", "WallInstance", "ZetaFunction", "PoleReport-univariate",
        "PoleReport-multivariate"])
def test_repr(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("passed", [True, False])
def test_verdict_is_true_exactly_when_it_passes(passed):
    assert bool(Verdict(passed, [])) is passed


@pytest.mark.parametrize("build", [
    lambda: MultiPoly(2, {(1, 0): 1, (0, 2): F(-1, 3)}),
    lambda: WallFamily((1, 2), [F(1, 2), 0]),
    lambda: WallInstance((1, 2), F(1, 2)),
], ids=["MultiPoly", "WallFamily", "WallInstance"])
def test_equal_values_hash_equal(build):
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("call, message", [
    (lambda: dot((1, 2), (1,)), "lengths 2 and 1"),
    (lambda: QMatrix(-1, 0, []), "negative matrix dimensions"),
    (lambda: MultiPoly(-1), "negative variable count"),
    (lambda: MultiPoly(2, {(1,): 1}), "bad exponent tuple"),
    (lambda: MultiPoly(1, {(-1,): 1}), "bad exponent tuple"),
    (lambda: AffineForm((1, 1), 0).evaluate((1,)), "point length 1, form has 2 variables"),
    (lambda: AffineForm((2,), 4), r"non-canonical affine form \(scale 2\)"),
    (lambda: AffineForm((-1,), 1), r"non-canonical affine form \(scale -1\)"),
], ids=["dot-lengths", "QMatrix-negative-size", "MultiPoly-negative-nvars",
        "MultiPoly-exponent-length", "MultiPoly-negative-exponent", "AffineForm-point-length",
        "AffineForm-content", "AffineForm-sign"])
def test_bad_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()
