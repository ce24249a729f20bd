"""Arrangements, flats, lattices, Euler characteristics, dense edges."""

from fractions import Fraction
from itertools import combinations

import pytest

from arrzeta import (Arrangement, ArrangementError, Flat, char_poly,
                     complement_euler, dense_edges, intersection_lattice,
                     is_essential, is_indecomposable, localize_at_point,
                     proj_complement_euler)
from arrzeta.core import AffineForm, primitive_normal

from conftest import (boolean2, closure, form_poly, interval_arrangement, ninefold,
                      poly, random_central_c3, restriction_arrangement, threelines,
                      threelines_factored, veys, xy_in_c3, xyz)

F = Fraction


def _indices(flat):
    return tuple(sorted(i + 1 for i in flat.indices))


# ---------------------------------------------------------------------------
# construction and validation

def test_rejects_proportional_forms():
    with pytest.raises(ArrangementError, match="proportional"):
        Arrangement(2, [(1, 0), (2, 0)])
    with pytest.raises(ArrangementError, match="proportional"):
        Arrangement(2, [(1, -1), (-3, 3)])


@pytest.mark.parametrize("n, forms, pair", [
    (2, [(F(1, 2), 1), (1, 2)], (1, 2)),
    (2, [(1, -1), (-2, 2)], (1, 2)),
    (2, [(F(-1, 3), F(2, 3)), (0, 1), (1, -2)], (1, 3)),
    (1, [(1, 1), (2, 2)], (1, 2)),
    (2, [(0, 1), (1, 0, F(1, 2)), (-2, 0, -1)], (2, 3)),
], ids=["rational", "negative-scale", "rational-negative", "affine", "affine-rational"])
def test_proportional_key_on_whole_rows(n, forms, pair):
    # the primitive key of the whole affine row: the error names the
    # earlier and the later form of the pair, 1-based
    with pytest.raises(ArrangementError) as err:
        Arrangement(n, forms)
    assert str(err.value) == ("forms %d and %d are proportional; merge them into one "
                              "hyperplane with a multiplicity" % pair)


def test_normals_from_the_whole_row_key():
    # an affine row's key may have a content that the normal alone lacks
    arr = Arrangement(2, [(2, 4, 3), (2, 4, 6), (F(1, 2), F(-3, 4)), (0, -5, 1)])
    assert arr.normals == ((1, 2), (1, 2), (2, -3), (0, 1))
    assert arr.normals == tuple(primitive_normal(f) for f in arr.forms)
    assert all(type(e) is int for v in arr.normals for e in v)


def test_affine_forms_not_proportional_to_translates():
    # x and x - 1 are parallel but distinct hyperplanes
    arr = Arrangement(1, [(1, 0), (1, -1)])
    assert arr.r == 2 and not arr.central
    # x + 1 and x + 2 as well
    assert Arrangement(1, [(1, 1), (1, 2)]).r == 2


def test_rejects_bad_data():
    with pytest.raises(ArrangementError):
        Arrangement(2, [(0, 0)])
    with pytest.raises(ArrangementError):
        Arrangement(2, [(1, 0)], mults=[0])
    with pytest.raises(ArrangementError):
        Arrangement(2, [(1, 0)], mults=[1, 1])
    with pytest.raises(ArrangementError):
        Arrangement(0, [])
    with pytest.raises(ArrangementError, match="length"):
        Arrangement(2, [(1, 0, 0, 0)])


@pytest.mark.parametrize("n, mults, factors", [
    (F(5, 2), None, None), (2.0, None, None), (True, None, None), ("2", None, None),
    (2, [1, 2.5, 1], None), (2, [1, F(3, 2), 1], None), (2, [1, True, 1], None),
    (2, None, [(1, 0, 0), (0, 1, 1.0)]), (2, None, [(1, 0, 0), (0, F(1, 2), 1)])],
    ids=["n-fraction", "n-float", "n-bool", "n-str", "mult-float", "mult-fraction",
         "mult-bool", "factor-float", "factor-fraction"])
def test_rejects_non_integer_data(n, mults, factors):
    # a non-integer dimension, multiplicity or exponent is an error, not
    # truncated: mults [1, 2.5, 1] used to read as (1, 2, 1)
    with pytest.raises(ArrangementError, match="must be an integer"):
        Arrangement(n, [(1, 0), (0, 1), (1, -1)], mults=mults, factors=factors)


@pytest.mark.parametrize("form", [(True, 0), (1, False), (1.5, 0), (1, 0.0)],
                         ids=["bool", "bool-zero", "float", "float-zero"])
def test_rejects_bool_and_float_forms(form):
    # (True, 0) is not the line x = 0, and a float is a ValueError, not a
    # TypeError, so the command line reports it as bad input
    with pytest.raises(ValueError, match="cannot interpret"):
        Arrangement(2, [form])


def test_accepts_integral_fractions():
    arr = Arrangement(F(2), [(1, 0), (0, 1), (1, -1)], mults=[1, F(4, 2), 1],
                      factors=[(1, 0, 0), (0, F(2), 1)])
    assert (arr.n, arr.mults, arr.factors) == (2, (1, 2, 1), ((1, 0, 0), (0, 2, 1)))
    assert all(type(e) is int for e in (arr.n, *arr.mults, *arr.factors[1]))


@pytest.mark.parametrize("indices", [[2.9], [True], [F(5, 2)], [0, 1.0]],
                         ids=["float", "bool", "fraction", "float-integral"])
def test_lattice_flat_rejects_non_integer_indices(indices):
    # an index is an integer, not truncated: [2.9] is not the flat {3}
    with pytest.raises(ArrangementError, match="must be an integer"):
        veys().lattice.flat(indices)
    with pytest.raises(ArrangementError, match="hyperplane index must be an integer"):
        Flat(indices, 1)


@pytest.mark.parametrize("codim", [1.7, 1.0, True, F(3, 2)],
                         ids=["float", "float-integral", "bool", "fraction"])
def test_flat_rejects_non_integer_codim(codim):
    # Flat([1.5, True], 1.7) used to read as indices {1}, codim 1
    with pytest.raises(ArrangementError, match="codimension must be an integer"):
        Flat([0], codim)


def test_flat_accepts_integral_fractions():
    flat = Flat([F(2), 0], F(4, 2))
    assert (flat.indices, flat.codim) == ({0, 2}, 2)
    assert all(type(e) is int for e in (*flat.indices, flat.codim))


def test_lattice_flat_reads_closed_index_sets():
    lat = veys().lattice
    assert lat.flat([F(2)]) is lat.flat([2])
    with pytest.raises(ArrangementError, match="not closed"):
        lat.flat([0, 1])


def test_factor_validation():
    ok = Arrangement(2, [(1, 0), (0, 1), (1, -1)], mults=[1, 1, 1],
                     factors=[(1, 0, 0), (0, 1, 1)])
    assert ok.factor_degrees() == (1, 2)
    with pytest.raises(ArrangementError, match="sum"):
        Arrangement(2, [(1, 0), (0, 1)], mults=[2, 1], factors=[(1, 1)])
    with pytest.raises(ArrangementError, match="no factor"):
        Arrangement(2, [(1, 0), (0, 1)], mults=[1, 1],
                    factors=[(1, 0), (0, 0)])
    with pytest.raises(ArrangementError, match="nonnegative"):
        Arrangement(2, [(1, 0), (0, 1)], mults=[1, 1],
                    factors=[(2, 1), (-1, 0)])
    with pytest.raises(ArrangementError):
        Arrangement(2, [(1, 0)], factors=[])
    with pytest.raises(ArrangementError, match="factor row 2 has length 3, expected 2"):
        Arrangement(2, [(1, 0), (0, 1)], factors=[(1, 0), (0, 1, 0)])
    with pytest.raises(ArrangementError, match="no factorization"):
        threelines().factor_degrees()


def test_central_flag_and_degree():
    assert threelines().central
    assert not Arrangement(2, [(1, 0, 1), (0, 1, 0)]).central
    assert veys().degree() == 9


# ---------------------------------------------------------------------------
# closure and the lattice

def test_closure_examples():
    arr = xyz()
    assert _indices(closure(arr, [0])) == (1,)
    assert closure(arr, []).codim == 0
    tl = threelines()
    # two of the three concurrent lines pull in the third
    assert _indices(closure(tl, [0, 1])) == (1, 2, 3)
    assert closure(tl, [0, 1]).codim == 2
    with pytest.raises(ArrangementError):
        closure(tl, [5])
    with pytest.raises(ArrangementError):
        closure(Arrangement(1, [(1, -1)]), [0])  # not central


def test_closure_is_closure_operator():
    for arr in (threelines(), veys()):
        closures = {}
        for k in range(arr.r + 1):
            for sub in combinations(range(arr.r), k):
                closures[sub] = closure(arr, sub).indices
        for sub, cl in closures.items():
            assert set(sub) <= cl  # extensive
            assert closures[tuple(sorted(cl))] == cl  # idempotent
        for a in closures:
            for b in closures:
                if set(a) <= set(b):
                    assert closures[a] <= closures[b]  # monotone


def test_lattice_sizes_and_mobius():
    assert len(intersection_lattice(boolean2())) == 4
    assert len(intersection_lattice(threelines())) == 5
    assert len(intersection_lattice(xyz())) == 8
    lat = intersection_lattice(veys())
    assert len(lat) == 13
    origin = lat.flat(range(5))
    assert origin.codim == 3
    assert lat.mu(origin) == -4
    assert lat.mu(lat.ambient) == 1
    assert lat.mu(lat.flat(closure(veys(), [0, 1]).indices)) == 2  # triple point
    # codim 2 flats of veys: two triple points and four simple crossings
    codim2 = sorted(_indices(f) for f in lat.flats if f.codim == 2)
    assert codim2 == [(1, 2, 3), (1, 4, 5), (2, 4), (2, 5), (3, 4), (3, 5)]


def test_char_poly_frozen():
    t1, t2 = form_poly(AffineForm((1,), -1)), form_poly(AffineForm((1,), -2))
    assert char_poly(boolean2()) == poly({2: 1, 1: -2, 0: 1})
    assert char_poly(threelines()) == poly({2: 1, 1: -3, 0: 2})
    assert char_poly(xyz()) == t1 * t1 * t1 == poly({3: 1, 2: -3, 1: 3, 0: -1})
    assert char_poly(veys()) == t1 * t2 * t2 == poly({3: 1, 2: -5, 1: 8, 0: -4})
    assert char_poly(Arrangement(3, [])) == poly({3: 1})


def test_euler_characteristics():
    # central nonempty complements are fibered over C^* so chi vanishes
    for arr in (boolean2(), threelines(), xyz(), veys()):
        assert complement_euler(arr) == 0
    assert complement_euler(Arrangement(2, [])) == 1
    assert proj_complement_euler(Arrangement(3, [])) == 3
    assert proj_complement_euler(Arrangement(1, [(1,)])) == 1
    assert proj_complement_euler(boolean2()) == 0
    assert proj_complement_euler(threelines()) == -1
    assert proj_complement_euler(veys()) == 1


# ---------------------------------------------------------------------------
# interval and restriction arrangements

def test_interval_examples():
    arr = xyz()
    lat = intersection_lattice(arr)
    origin = lat.flat([0, 1, 2])
    zaxis = lat.flat([0, 1])
    step = interval_arrangement(arr, origin, zaxis)
    assert (step.n, step.r) == (1, 1)

    tl = threelines()
    tlat = intersection_lattice(tl)
    o = tlat.flat([0, 1, 2])
    d1 = tlat.flat([0])
    step = interval_arrangement(tl, o, d1)
    # traces of y and x - y on the line x = 0 are proportional
    assert (step.n, step.r) == (1, 1)
    # interval to the ambient flat recovers the three concurrent lines
    top = interval_arrangement(tl, o, tlat.ambient)
    assert (top.n, top.r) == (2, 3)
    assert proj_complement_euler(top) == -1

    with pytest.raises(ArrangementError, match="nested"):
        interval_arrangement(tl, d1, o)
    with pytest.raises(ArrangementError, match="nested"):
        interval_arrangement(tl, d1, d1)


def test_interval_never_empty():
    for arr in (threelines(), xyz(), veys(), ninefold()):
        lat = intersection_lattice(arr)
        for lower in lat.flats:
            for upper in lat.flats:
                if upper.indices < lower.indices:
                    step = interval_arrangement(arr, lower, upper)
                    assert step.r >= 1
                    assert step.n == lower.codim - upper.codim


def test_restriction_examples():
    tl = threelines()
    lat = intersection_lattice(tl)
    d1 = lat.flat([0])
    res = restriction_arrangement(tl, d1)
    assert (res.n, res.r) == (1, 1)
    assert complement_euler(res) == 0

    v = veys()
    vlat = intersection_lattice(v)
    zax = vlat.flat(closure(v, [0, 1]).indices)
    res = restriction_arrangement(v, zax)
    assert (res.n, res.r) == (1, 1)
    # restriction to the whole space returns the arrangement itself (reduced)
    amb = restriction_arrangement(v, vlat.ambient)
    assert (amb.n, amb.r) == (3, 5)
    with pytest.raises(ArrangementError):
        restriction_arrangement(v, vlat.flat(range(5)))


# ---------------------------------------------------------------------------
# essential / indecomposable / dense edges

def test_essential():
    assert is_essential(threelines())
    assert is_essential(veys())
    assert not is_essential(xy_in_c3())
    assert is_essential(Arrangement(1, [(1,)]))


def test_indecomposable():
    assert not is_indecomposable(boolean2())
    assert is_indecomposable(threelines())
    assert is_indecomposable(veys())
    assert is_indecomposable(ninefold())
    # decomposable after a coordinate change, x and x - y
    assert not is_indecomposable(Arrangement(2, [(1, 0), (1, -1)]))
    # block sum of threelines and a line
    block = Arrangement(3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1)])
    assert not is_indecomposable(block)
    assert is_indecomposable(Arrangement(1, [(1,)]))
    with pytest.raises(ArrangementError):
        is_indecomposable(Arrangement(2, []))


def test_dense_edges_frozen():
    dense = dense_edges(veys())
    assert [_indices(f) for f in dense] == [
        (1,), (2,), (3,), (4,), (5,),
        (1, 2, 3), (1, 4, 5), (1, 2, 3, 4, 5)]
    assert [_indices(f) for f in dense_edges(boolean2())] == [(1,), (2,)]
    assert [_indices(f) for f in dense_edges(threelines())] == [
        (1,), (2,), (3,), (1, 2, 3)]


def test_dense_edge_properties():
    for arr in [threelines(), veys(), ninefold()] + random_central_c3(411, count=4):
        lat = intersection_lattice(arr)
        dense = dense_edges(arr, lat)
        labels = {f.indices for f in dense}
        # every hyperplane is a dense edge
        for i in range(arr.r):
            assert closure(arr, [i]).indices in labels
        # the minimal flat is dense iff essential and indecomposable
        origin = frozenset(range(arr.r))
        if closure(arr, range(arr.r)).codim == arr.n:
            assert (origin in labels) == (is_essential(arr) and is_indecomposable(arr))


# ---------------------------------------------------------------------------
# localization

def test_localize_affine_example():
    arr = Arrangement(1, [(1, 0), (1, -1)])  # x (x - 1)
    loc = localize_at_point(arr, (1,))
    assert loc.central and loc.r == 1
    assert loc.forms == ((1,),)
    loc0 = localize_at_point(arr, (0,))
    assert loc0.forms == ((1,),) and loc0.mults == (1,)
    with pytest.raises(ArrangementError, match="no hyperplane"):
        localize_at_point(arr, (2,))


def test_localize_central():
    tl = threelines()
    loc = localize_at_point(tl, (0, 1))  # only x vanishes there
    assert loc.r == 1 and loc.forms == ((1, 0),)
    full = localize_at_point(tl, (0, 0))
    assert full.r == 3
    with pytest.raises(ArrangementError, match="point length 3, ambient dimension 2"):
        localize_at_point(tl, (0, 0, 0))


def test_localize_keeps_factor_rows():
    tf = threelines_factored()
    loc = localize_at_point(tf, (0, 1))
    # the second factor y(x - y) does not vanish at (0, 1): its row survives
    # as a zero row so factor variables stay aligned
    assert loc.factors == ((1,), (0,))
    loc2 = localize_at_point(tf, (1, 1))  # only x - y vanishes
    assert loc2.factors == ((0,), (1,))
    assert loc2.forms == ((1, -1),)
