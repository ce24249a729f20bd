"""Exact linear algebra and polynomial layer."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrzeta.core import (AffineForm, MultiPoly, QMatrix, div_linear,
                          integer_kernel, poly_eval, primitive_normal, rank,
                          rational)

from conftest import form_poly, fraction_kernel, long_division, poly

F = Fraction


def test_rational_coercion():
    assert rational(3) == F(3)
    assert rational("3/4") == F(3, 4)
    assert rational(" -7/2 ") == F(-7, 2)
    assert rational(F(5, 10)) == F(1, 2)
    with pytest.raises(ValueError):
        rational("x")
    with pytest.raises(ValueError):
        rational("1/0")
    # a bool or a float is not read as a number
    for bad in (0.5, 2.0, True, False, None):
        with pytest.raises(ValueError, match="cannot interpret"):
            rational(bad)


def test_matrix_validation():
    with pytest.raises(ValueError):
        QMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        QMatrix.from_rows([])
    m = QMatrix.from_rows([], cols=3)
    assert m.rows == 0 and m.cols == 3


def test_rank_examples():
    assert rank(QMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank(QMatrix.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(QMatrix.from_rows([[0, 0]])) == 0
    assert rank(QMatrix.from_rows([], cols=4)) == 0
    # rank accepts plain row lists too
    assert rank([[1, 1, 0], [0, 1, 1], [1, 0, -1]]) == 2


def test_kernel_basis_examples():
    # single relation in the plane: free variable set to the scale den
    assert integer_kernel([[1, 1]], 2) == ([(-1, 1)], 1)
    assert integer_kernel([[2, 3]], 2) == ([(-3, 2)], 2)
    assert integer_kernel([[1, 0], [0, 1]], 2) == ([], 1)
    # 0 x n matrix has the standard basis as kernel
    assert integer_kernel([], 2) == ([(1, 0), (0, 1)], 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=4))
def test_rank_nullity_and_annihilation(rows):
    m = QMatrix.from_rows(rows)
    basis, _ = integer_kernel(rows, m.cols)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


rational_entries = st.integers(-6, 6) | st.fractions(min_value=-4, max_value=4,
                                                     max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda cols: st.tuples(
    st.just(cols),
    st.lists(st.one_of(st.just([0] * cols),
                       st.lists(rational_entries, min_size=cols, max_size=cols)),
             min_size=0, max_size=6))))
def test_kernel_matches_fraction_row_reduction(shape):
    cols, rows = shape
    m = QMatrix.from_rows(rows, cols=cols)
    want_rank, want_basis = fraction_kernel(rows, cols)
    assert rank(m) == want_rank
    # each integer vector is den times the basis vector: den sits at its free column
    scaled = [[int(e * lcm(*(F(x).denominator for x in row))) for e in row] for row in rows]
    vectors, den = integer_kernel(scaled, cols)
    assert vectors == [tuple(den * e for e in v) for v in want_basis]


def test_primitive_normal_examples():
    assert primitive_normal((2, -2, 4)) == (1, -1, 2)
    assert primitive_normal((F(1, 2), F(1, 3))) == (3, 2)
    assert primitive_normal((0, F(-3, 4))) == (0, 1)
    with pytest.raises(ValueError):
        primitive_normal((0, 0, 0))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
       st.integers(1, 7), st.booleans())
def test_primitive_normal_scale_invariant(v, scale, flip):
    if all(e == 0 for e in v):
        with pytest.raises(ValueError):
            primitive_normal(v)
        return
    p = primitive_normal(v)
    lead = next(e for e in p if e)
    assert lead > 0
    scaled = [e * scale * (-1 if flip else 1) for e in v]
    assert primitive_normal(scaled) == p
    assert primitive_normal(p) == p


def test_multipoly_product_checks_its_operand():
    x, y = poly({(1, 0): 1}), poly({(0, 1): 1})
    p = poly({(1, 0): 1, (0, 1): 1}) * poly({(1, 0): 1, (0, 1): -1})
    assert p == poly({(2, 0): 1, (0, 2): -1})
    assert 2 * x == x * F(2) == x * "2" == poly({(1, 0): 2})
    assert (x * y) * 0 == MultiPoly(2)
    assert MultiPoly(2).is_zero() and not x.is_zero()
    with pytest.raises(ValueError, match="variable count mismatch: 2 vs 1"):
        x * poly({1: 1})
    with pytest.raises(TypeError, match="cannot combine MultiPoly"):
        x * 0.5
    with pytest.raises(ValueError):
        poly_eval(p, (1,))


@pytest.mark.parametrize("ex", [(1.5,), (True,), (F(1, 2),)], ids=["float", "bool", "fraction"])
def test_multipoly_rejects_non_integer_exponents(ex):
    with pytest.raises(ValueError, match="exponent"):
        MultiPoly(1, {ex: 1})


def test_multipoly_accepts_integral_fraction_exponents():
    assert MultiPoly(1, {(F(2),): 1}) == MultiPoly(1, {(2,): 1})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-4, 4)), max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-4, 4)), max_size=4),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_multipoly_eval_is_ring_hom(ts1, ts2, point):
    p, q = (poly((((a, b), c) for a, b, c in ts), 2) for ts in (ts1, ts2))
    pt = tuple(F(c) for c in point)
    total = poly(list(p.terms.items()) + list(q.terms.items()), 2)
    assert poly_eval(total, pt) == poly_eval(p, pt) + poly_eval(q, pt)
    assert poly_eval(p * q, pt) == poly_eval(p, pt) * poly_eval(q, pt)


affine_rows = st.lists(st.integers(-12, 12) | st.integers(-6, 6).map(F), min_size=2, max_size=5)


@settings(max_examples=100, deadline=None)
@given(affine_rows)
def test_affine_form_canonical(row):
    # any integer row: the unchecked result is what the checked
    # constructor builds and accepts, with int entries, and scale times it
    # is the row
    if not any(row[:-1]):
        with pytest.raises(ValueError, match="nonzero coefficient vector"):
            AffineForm.canonical(row[:-1], row[-1])
    else:
        f, scale = AffineForm.canonical(row[:-1], row[-1])
        assert f == AffineForm(f.coeffs, f.const)
        assert type(f.coeffs) is tuple and all(type(e) is int for e in f.coeffs + (f.const,))
        assert [scale * e for e in f.coeffs + (f.const,)] == row
    f, scale = AffineForm.canonical((9,), 3)
    assert (f.coeffs, f.const, scale) == ((3,), 1, 3)
    f, scale = AffineForm.canonical((-2, 0, -4), -6)
    assert (f.coeffs, f.const, scale) == ((1, 0, 2), 3, -2)
    f, scale = AffineForm.canonical((1, 1), 0)
    assert (f.coeffs, f.const, scale) == ((1, 1), 0, 1)
    # integral Fractions are integers
    f, scale = AffineForm.canonical((F(4, 2), F(6, 3)), F(2, 1))
    assert (f.coeffs, f.const, scale) == ((1, 1), 1, 2)
    with pytest.raises(ValueError):
        AffineForm.canonical((0, 0), 5)
    with pytest.raises(ValueError):
        AffineForm((2,), 4)  # content 2
    with pytest.raises(ValueError):
        AffineForm((-1,), 1)  # sign
    with pytest.raises(ValueError):
        AffineForm((), 1)


@pytest.mark.parametrize("coeffs, const", [
    ((F(3, 2),), 1), ((1,), F(1, 2)), ((1.9, 1), 0), ((1,), 0.0), ((True,), 0),
    ((1,), False), (("2",), 1)], ids=["coef-fraction", "const-fraction",
                                      "coef-float", "const-float", "coef-bool",
                                      "const-bool", "coef-str"])
def test_affine_form_rejects_non_integers(coeffs, const):
    # entries are never truncated: (3/2) s + 1 is not s + 1
    with pytest.raises(ValueError, match="must be an integer"):
        AffineForm(coeffs, const)
    with pytest.raises(ValueError, match="must be an integer"):
        AffineForm.canonical(coeffs, const)


def test_affine_form_behaviour():
    f = AffineForm((3,), 1)
    assert f.root() == F(-1, 3)
    assert f.evaluate((F(-1, 3),)) == 0
    assert f.evaluate((1,)) == 4
    g = AffineForm((1, 2), 2)
    with pytest.raises(ValueError):
        g.root()
    assert sorted([g, AffineForm((0, 1), 1), AffineForm((1, 0), 1)]) == [
        AffineForm((0, 1), 1), AffineForm((1, 0), 1), g]
    # an int is not ordered against a form, from either side
    assert f.__lt__(3) is NotImplemented
    for pair in ([f, 3], [3, f]):
        with pytest.raises(TypeError):
            sorted(pair)
    assert f.format_str() == "3*s + 1"
    assert g.format_str(["s1", "s2"]) == "s1 + 2*s2 + 2"


def divided(p, form):
    """div_linear of an integer MultiPoly, packed at the width of its total
    degree, against long division over Q: None exactly when the remainder
    is nonzero, and otherwise the quotient, with nonzero int entries, which
    unpacks at the same width.  Returns that quotient, or None."""
    assert all(c.denominator == 1 for c in p.terms.values())
    width = max((sum(ex) for ex in p.terms), default=0).bit_length() + 1
    packed = {sum(e << width * j for j, e in enumerate(ex)): int(c) for ex, c in p.terms.items()}
    got = div_linear(packed, form, width)
    quot, rem = long_division(p, form)
    if not rem.is_zero():
        assert got is None
        return None
    assert all(type(c) is int and c for c in got.values())
    mask = (1 << width) - 1
    assert MultiPoly(p.nvars, {tuple(ex >> width * j & mask for j in range(p.nvars)): c
                               for ex, c in got.items()}) == quot
    return quot


def test_divides_linear_examples():
    l = AffineForm((1, 1), 2)
    other = AffineForm((1, 0), 1)
    p = form_poly(l) * form_poly(other)
    assert divided(p, l) == form_poly(other)
    assert divided(p, other) == form_poly(l)
    assert divided(form_poly(l), other) is None
    assert divided(MultiPoly(2), l) == MultiPoly(2)  # everything divides zero


def test_div_linear_exact():
    char3 = poly({2: 1, 1: -3, 0: 2})
    assert divided(char3, AffineForm((1,), -1)) == poly({1: 1, 0: -2})
    assert divided(poly({2: 1, 0: 1}), AffineForm((1,), -1)) is None  # every step exact
    # multivariate: quotient recovers the cofactor
    a = AffineForm((1, 2), 2)
    b = AffineForm((1, 1), 1)
    prod = form_poly(a) * form_poly(b)
    assert divided(prod, a) == form_poly(b)
    assert divided(prod, b) == form_poly(a)
    # pivot coefficient 2: an integer quotient, content kept
    two = AffineForm((2,), 1)
    assert divided(poly({1: 1, 0: 3}) * form_poly(two), two) == poly({1: 1, 0: 3})
    assert divided(poly({1: 6, 0: 3}), two) == poly({0: 3})
    assert divided(poly({2: 1, 1: 1}), two) is None  # first step 1 / 2 inexact
    assert divided(poly({2: 2, 1: 2, 0: 1}), two) is None  # second step 1 / 2 inexact
    # pivot coefficient 3 in two variables: 3 s1 + s2 + 1
    three = AffineForm((3, 1), 1)
    cofactor = poly({(1, 1): 1, (0, 1): -2, (0, 0): 5})
    assert divided(cofactor * form_poly(three), three) == cofactor
    assert divided(poly({(2, 0): 1, (0, 1): 1}), three) is None  # first step inexact
    # exact step, remainder s2
    assert divided(poly({(1, 0): 3, (0, 1): 2, (0, 0): 1}), three) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-4, 4)), max_size=4))
def test_division_roundtrip(c1, c2, k, ts):
    if c1 == 0 and c2 == 0:
        return
    form, _ = AffineForm.canonical((c1, c2), k)
    p = poly((((a, b), c) for a, b, c in ts), 2)
    prod = p * form_poly(form)
    assert divided(prod, form) == p
    if not p.is_zero():
        assert divided(poly(list(prod.terms.items()) + [((0, 0), 1)], 2), form) is None
    divided(p, form)  # any p: against long division


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                          st.integers(-6, 6)),
                max_size=6))
def test_division_by_a_later_pivot(c2, c3, k, ts):
    """Three variables, pivot s2 or s3."""
    if c2 == 0 and c3 == 0:
        return
    form, _ = AffineForm.canonical((0, c2, c3), k)
    p = poly(ts, 3)
    divided(p, form)
    assert divided(p * form_poly(form), form) == p
