"""Exact linear algebra and polynomial layer."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrzeta.core import (AffineForm, MultiPoly, QMatrix, div_linear,
                          integer_kernel, poly_eval, primitive_normal, rank,
                          rational)

from conftest import fraction_kernel

F = Fraction


def s_poly(names=1):
    # small univariate helper: dict of degree -> coef
    def build(d):
        return MultiPoly(1, {(k,): v for k, v in d.items()})
    return build


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


def test_multipoly_arithmetic():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.total_degree() == 2
    assert poly_eval(p, (F(3), F(2))) == 5
    q = (x + 1) ** 3
    assert q.terms[(0, 0)] == 1 and q.terms[(3, 0)] == 1 and q.terms[(2, 0)] == 3
    assert (p - p).is_zero()
    assert MultiPoly(2).is_zero()
    with pytest.raises(ValueError):
        x + MultiPoly.variable(1, 0)
    with pytest.raises(ValueError):
        poly_eval(p, (1,))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-4, 4)), max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-4, 4)), max_size=4),
       st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_multipoly_eval_is_ring_hom(ts1, ts2, point):
    def build(ts):
        p = MultiPoly(2)
        for a, b, c in ts:
            p = p + MultiPoly(2, {(a, b): c})
        return p
    p, q = build(ts1), build(ts2)
    pt = tuple(F(c) for c in point)
    assert poly_eval(p + q, pt) == poly_eval(p, pt) + poly_eval(q, pt)
    assert poly_eval(p * q, pt) == poly_eval(p, pt) * poly_eval(q, pt)


def test_affine_form_canonical():
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
    assert g.to_poly() == MultiPoly(2, {(1, 0): 1, (0, 1): 2, (0, 0): 2})
    with pytest.raises(ValueError):
        g.root()
    assert sorted([g, AffineForm((0, 1), 1), AffineForm((1, 0), 1)]) == [
        AffineForm((0, 1), 1), AffineForm((1, 0), 1), g]
    assert f.format_str() == "3*s + 1"
    assert g.format_str(["s1", "s2"]) == "s1 + 2*s2 + 2"


def divides(form, p):
    """The form divides p exactly: div_linear leaves a zero remainder."""
    return div_linear(p, form)[1].is_zero()


def test_divides_linear_examples():
    l = AffineForm((1, 1), 2)
    other = AffineForm((1, 0), 1)
    p = l.to_poly() * other.to_poly()
    assert divides(l, p)
    assert divides(other, p)
    assert not divides(other, l.to_poly())
    assert divides(l, MultiPoly(2))  # everything divides zero
    with pytest.raises(ValueError):
        divides(AffineForm((1,), 0), p)  # arity mismatch


def test_div_linear_exact():
    t = MultiPoly.variable(1, 0)
    char3 = t * t - 3 * t + 2
    assert div_linear(char3, AffineForm((1,), -1)) == (t - 2, MultiPoly(1))
    assert not div_linear(t * t + 1, AffineForm((1,), -1))[1].is_zero()
    # multivariate: quotient recovers the cofactor
    a = AffineForm((1, 2), 2)
    b = AffineForm((1, 1), 1)
    prod = a.to_poly() * b.to_poly()
    assert div_linear(prod, a) == (b.to_poly(), MultiPoly(2))
    assert div_linear(prod, b) == (a.to_poly(), MultiPoly(2))


@settings(max_examples=40, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-4, 4)), max_size=4))
def test_division_roundtrip(c1, c2, k, ts):
    if c1 == 0 and c2 == 0:
        return
    form, _ = AffineForm.canonical((c1, c2), k)
    p = MultiPoly(2)
    for a, b, c in ts:
        p = p + MultiPoly(2, {(a, b): c})
    prod = p * form.to_poly()
    assert divides(form, prod)
    assert div_linear(prod, form) == (p, MultiPoly(2))
    if not p.is_zero():
        assert not divides(form, prod + 1)
    # any p: p = q * form + r with r free of the pivot variable
    pivot = next(j for j, c in enumerate(form.coeffs) if c)
    q, r = div_linear(p, form)
    assert q * form.to_poly() + r == p
    assert r.degree_in(pivot) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                          st.fractions(min_value=-5, max_value=5, max_denominator=6)),
                max_size=6))
def test_division_by_a_later_pivot(c2, c3, k, ts):
    """Three variables, rational coefficients, pivot s2 or s3."""
    if c2 == 0 and c3 == 0:
        return
    form, _ = AffineForm.canonical((0, c2, c3), k)
    pivot = 1 if c2 else 2
    p = MultiPoly(3)
    for ex, c in ts:
        p = p + MultiPoly(3, {ex: c})
    q, r = div_linear(p, form)
    assert q * form.to_poly() + r == p
    assert r.degree_in(pivot) == 0
    assert div_linear(q * form.to_poly(), form) == (q, MultiPoly(3))
