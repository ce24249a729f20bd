"""Wall families, separation, chamber paths, restriction closure."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrzeta import (WallFamily, WallInstance, WallSet, chamber_path,
                     extend_restricted_walls, localized_walls, nd_wall_set,
                     separating_walls, walls_from_resolution)

from conftest import (brute_localized_walls, brute_separating_walls, nudged_path,
                      random_central_c3, random_lines, random_rational_point,
                      threelines, veys)

F = Fraction


def diag_set():
    return extend_restricted_walls(WallSet([WallFamily((1, 1), [0])]))


def mixed_set():
    return extend_restricted_walls(walls_from_resolution([(2, 1), (1, 3)]))


def tl_wall_set():
    return extend_restricted_walls(nd_wall_set(threelines()))


# ---------------------------------------------------------------------------
# families and sets

def test_family_validation():
    fam = WallFamily((1, 2), [F(1, 2), 0, F(1, 2)])
    assert fam.offsets == (F(0), F(1, 2))  # deduped and sorted
    with pytest.raises(ValueError, match="nonzero"):
        WallFamily((0, 0), [0])
    with pytest.raises(ValueError, match="nonnegative"):
        WallFamily((1, -1), [0])
    with pytest.raises(ValueError, match="primitive"):
        WallFamily((2, 4), [0])
    with pytest.raises(ValueError, match="offset"):
        WallFamily((1, 0), [])
    with pytest.raises(ValueError, match="0, 1"):
        WallFamily((1, 0), [1])
    with pytest.raises(ValueError, match="0, 1"):
        WallFamily((1, 0), [F(-1, 2)])


@pytest.mark.parametrize("normal", [(1.9, 1), (F(3, 2), 1), (True, 0), ("1", 1)],
                         ids=["float", "fraction", "bool", "str"])
def test_wall_normals_must_be_integers(normal):
    # entries are never truncated: (1.9, 1) is not the normal (1, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        WallFamily(normal, [0])
    with pytest.raises(ValueError, match="must be an integer"):
        WallInstance(normal, 0)
    with pytest.raises(ValueError, match="must be an integer"):
        walls_from_resolution([normal])
    assert WallFamily((F(2, 2), 2), [0]).normal == (1, 2)


def test_family_evaluate_and_hits():
    fam = WallFamily((1, 2), [0, F(1, 2)])
    assert fam.evaluate((F(1, 2), F(1, 4))) == 1
    assert fam.hits(F(3))
    assert fam.hits(F(-5, 2))
    assert not fam.hits(F(1, 3))
    with pytest.raises(ValueError):
        fam.evaluate((1,))


def test_wall_set_validation():
    a = WallFamily((1, 0), [0])
    b = WallFamily((0, 1), [0])
    ws = WallSet([a, b])
    assert [f.normal for f in ws] == [(0, 1), (1, 0)]  # sorted by normal
    assert ws.dim == 2 and len(ws) == 2
    with pytest.raises(ValueError, match="duplicate"):
        WallSet([a, WallFamily((1, 0), [F(1, 2)])])
    with pytest.raises(ValueError, match="dimension"):
        WallSet([a, WallFamily((1,), [0])])
    with pytest.raises(ValueError):
        WallSet([]).dim


# ---------------------------------------------------------------------------
# generation from resolution data

def test_walls_from_resolution_golden():
    ws = walls_from_resolution([(2, 4)])
    assert len(ws) == 1
    fam = ws.families[0]
    assert fam.normal == (1, 2)
    assert fam.offsets == (F(0), F(1, 2))


def test_walls_from_resolution_merges():
    ws = walls_from_resolution([(1, 1), (2, 2)])
    assert len(ws) == 1
    assert ws.families[0].normal == (1, 1)
    assert ws.families[0].offsets == (F(0), F(1, 2))


def test_walls_from_resolution_data_objects():
    # the ords of hyperplane 1 and of the origin in threelines-factored
    ws = walls_from_resolution([(1, 0), (1, 2)])
    assert [f.normal for f in ws] == [(1, 0), (1, 2)]
    assert all(f.offsets == (F(0),) for f in ws)
    with pytest.raises(ValueError, match="zero"):
        walls_from_resolution([(0, 0)])
    with pytest.raises(ValueError, match="nonnegative"):
        walls_from_resolution([(1, -2)])


def test_nd_wall_set():
    ws = nd_wall_set(threelines())
    assert [f.normal for f in ws] == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    assert all(f.offsets == (F(0),) for f in ws)
    wv = nd_wall_set(veys())
    assert len(wv) == 8
    assert (1, 1, 1, 0, 0) in {f.normal for f in wv}
    assert (1, 0, 0, 1, 1) in {f.normal for f in wv}


def test_nd_wall_set_equals_validated_route():
    # nd_wall_set builds its families unchecked; they must equal the ones
    # the validating constructors make from the same indicator tuples
    for arr in [threelines(), veys()] + random_lines(71, 3) + random_central_c3(72, 3):
        ws = nd_wall_set(arr)
        indicators = [f.normal for f in ws]
        assert ws == walls_from_resolution(indicators)
        assert all(WallFamily(f.normal, f.offsets) == f for f in ws)


# ---------------------------------------------------------------------------
# localization and separation

def test_localized_walls():
    ws = diag_set()
    assert [f.normal for f in ws] == [(0, 1), (1, 0), (1, 1)]
    at_origin = localized_walls(ws, (0, 0))
    assert [w.key() for w in at_origin] == [
        ((0, 1), F(0)), ((1, 0), F(0)), ((1, 1), F(0))]
    inside = localized_walls(ws, (F(1, 2), F(1, 2)))
    assert [w.key() for w in inside] == [((1, 1), F(1))]
    off = localized_walls(ws, (F(1, 3), F(1, 4)))
    assert off == []


def test_separating_walls_golden():
    ws = WallSet([WallFamily((1,), [0])])
    a, b = (F(-1, 2),), (F(5, 2),)
    seps = separating_walls(ws, a, b)
    assert [w.gamma for w in seps] == [0, 1, 2]
    assert separating_walls(ws, a, b) == separating_walls(ws, b, a)
    assert separating_walls(ws, (F(1, 4),), (F(3, 4),)) == []
    assert separating_walls(ws, (F(-1, 4),), (F(1, 4),)) != []


def test_separation_is_closed_below_open_above():
    ws = WallSet([WallFamily((1,), [0])])
    on_wall = (F(0),)
    # a point on a wall counts as below it: moving up crosses, moving down not
    assert [w.gamma for w in separating_walls(ws, on_wall, (F(1, 2),))] == [0]
    assert separating_walls(ws, on_wall, (F(-1, 2),)) == []


def test_separating_fractional_offsets():
    ws = walls_from_resolution([(2, 4)])  # normal (1, 2), offsets {0, 1/2}
    seps = separating_walls(ws, (0, F(1, 8)), (0, F(5, 8)))
    # L runs from 1/4 to 5/4: walls at 1/2 and 1
    assert [w.gamma for w in seps] == [F(1, 2), F(1)]


def test_separation_midpoint_additivity():
    ws = mixed_set()
    rng = random.Random(31)
    for _ in range(25):
        a = random_rational_point(rng, 2, den=8)
        b = random_rational_point(rng, 2, den=8)
        total = separating_walls(ws, a, b)
        # the half-open convention makes separation exactly additive over a
        # midpoint, wherever m sits relative to the walls
        m = tuple((x + y) / 2 for x, y in zip(a, b))
        first = separating_walls(ws, a, m)
        second = separating_walls(ws, m, b)
        assert sorted(first + second) == total


@st.composite
def wall_cases(draw):
    """A WallSet in dimension 1-4 with offsets of denominator up to 12, and
    endpoints with negative coordinates of denominator up to 30.  a is often
    an integer point, on every wall of offset 0 at once; b is drawn freely,
    is a plus an integer vector, or is a itself."""
    dim = draw(st.integers(1, 4))
    normal = st.tuples(*[st.integers(0, 3)] * dim).filter(any)
    offset = st.one_of(st.just(Fraction(0)), st.integers(1, 12).flatmap(
        lambda q: st.integers(0, q - 1).map(lambda p: Fraction(p, q))))
    fams = {}
    for n in draw(st.lists(normal, min_size=1, max_size=5)):
        g = gcd(*n)
        offs = draw(st.lists(offset, min_size=1, max_size=3))
        fams.setdefault(tuple(e // g for e in n), set()).update(offs)
    coord = st.builds(Fraction, st.integers(-90, 90), st.integers(1, 30))
    a = draw(st.one_of(st.tuples(*[st.integers(-3, 3)] * dim), st.tuples(*[coord] * dim)))
    b = draw(st.one_of(
        st.tuples(*[coord] * dim),
        st.tuples(*[st.integers(-2, 2)] * dim).map(lambda k: tuple(x + y for x, y in zip(a, k))),
        st.just(a)))
    return WallSet([WallFamily(n, offs) for n, offs in fams.items()]), a, b


@settings(max_examples=200, deadline=None)
@given(wall_cases())
def test_walls_match_definition(case):
    ws, a, b = case
    seps = separating_walls(ws, a, b)
    assert seps == brute_separating_walls(ws, a, b)
    assert separating_walls(ws, b, a) == seps
    for p in (a, b):
        assert localized_walls(ws, p) == brute_localized_walls(ws, p)
    if a == b:
        assert seps == []
        return
    path = chamber_path(ws, a, b)
    assert sorted(path) == seps
    assert path == nudged_path(ws, a, b)
    for w in path + localized_walls(ws, a):
        assert type(w.gamma) is Fraction
        assert type(w.normal) is tuple and all(type(e) is int for e in w.normal)


def test_point_length_contract():
    ws = diag_set()
    for a, b, length in [((0,), (1, 1), 1), ((0, 0), (1, 1, 1), 3), ((0,), (1,), 1)]:
        with pytest.raises(ValueError, match=r"^point length %d, family dimension 2$" % length):
            separating_walls(ws, a, b)
        with pytest.raises(ValueError, match=r"^points do not match the wall dimension$"):
            chamber_path(ws, a, b)
    with pytest.raises(ValueError, match=r"^point length 3, family dimension 2$"):
        localized_walls(ws, (0, 0, 0))
    empty = WallSet([])
    assert separating_walls(empty, (0,), (1, 2)) == []
    assert chamber_path(empty, (0,), (1, 2)) == []
    assert localized_walls(empty, (1,)) == []


def test_plain_family_list_comes_back_sorted():
    # a plain list in reverse normal order still gives (normal, level) order
    ws = tl_wall_set()
    backwards = list(reversed(ws.families))
    assert [f.normal for f in backwards] == sorted((f.normal for f in ws), reverse=True)
    a, b = (F(-1, 2), 0, F(3, 2)), (2, F(5, 3), -1)
    seps = separating_walls(backwards, a, b)
    assert len(seps) > 10
    assert [w.key() for w in seps] == sorted(w.key() for w in seps)
    assert seps == separating_walls(ws, a, b) == brute_separating_walls(ws, a, b)
    at_origin = localized_walls(backwards, (0, 0, 0))
    assert [w.key() for w in at_origin] == sorted(w.key() for w in at_origin)
    assert at_origin == localized_walls(ws, (0, 0, 0)) and len(at_origin) == len(ws)


# ---------------------------------------------------------------------------
# chamber paths

def test_chamber_path_golden_order():
    ws = WallSet([WallFamily((1,), [0])])
    path = chamber_path(ws, (F(-1, 2),), (F(5, 2),))
    assert [w.gamma for w in path] == [0, 1, 2]
    back = chamber_path(ws, (F(5, 2),), (F(-1, 2),))
    assert [w.gamma for w in back] == [2, 1, 0]


def test_chamber_path_from_wall_point():
    ws = diag_set()
    path = chamber_path(ws, (0, 0), (1, 1))
    assert sorted(path) == separating_walls(ws, (0, 0), (1, 1))
    # nudged to (-e, -e^2), the path meets y = 0 at time e^2, x + y = 0 at
    # (e + e^2)/2 and x = 0 at e, then x + y = 1 at 1/2
    assert [w.key() for w in path] == [
        ((0, 1), F(0)), ((1, 1), F(0)), ((1, 0), F(0)), ((1, 1), F(1))]


def test_chamber_path_errors():
    ws = diag_set()
    with pytest.raises(ValueError, match="coincide"):
        chamber_path(ws, (0, 0), (0, 0))
    with pytest.raises(ValueError, match="dimension"):
        chamber_path(ws, (0,), (1,))
    assert chamber_path(WallSet([]), (0,), (1,)) == []


@pytest.mark.parametrize("maker", [diag_set, mixed_set, tl_wall_set])
def test_chamber_path_matches_separation(maker):
    ws = maker()
    dim = ws.dim
    rng = random.Random(5000 + dim)
    done = 0
    while done < 40:
        a = random_rational_point(rng, dim, den=12)
        b = random_rational_point(rng, dim, den=12)
        if a == b:
            continue
        path = chamber_path(ws, a, b)
        assert sorted(path) == separating_walls(ws, a, b)
        done += 1


def test_chamber_path_endpoints_stay_put():
    # separation of the endpoints themselves must agree with the path even
    # when both endpoints lie on several walls at once
    ws = tl_wall_set()
    a = (0, 0, 0)
    b = (1, 1, 1)
    path = chamber_path(ws, a, b)
    assert sorted(path) == separating_walls(ws, a, b)


def fractional_sets():
    """Hand-made families with fractional offsets, in dimensions 2 and 3."""
    return [
        WallSet([WallFamily((1, 2), [0, F(1, 2)]), WallFamily((2, 1), [F(1, 3)]),
                 WallFamily((1, 0), [F(1, 4), F(3, 4)]), WallFamily((0, 1), [0]),
                 WallFamily((1, 1), [F(1, 6)])]),
        WallSet([WallFamily((1, 1, 0), [0, F(1, 2)]), WallFamily((0, 1, 1), [F(1, 3)]),
                 WallFamily((1, 0, 2), [F(2, 5)]), WallFamily((0, 0, 1), [0, F(1, 4)]),
                 WallFamily((1, 1, 1), [0])]),
    ]


def oracle_wall_sets():
    return ([nd_wall_set(arr) for arr in random_lines(611, 4)]
            + [nd_wall_set(arr) for arr in random_central_c3(612, 3)]
            + [nd_wall_set(threelines()), tl_wall_set(), mixed_set()]
            + fractional_sets())


def oracle_pairs(ws, rng, count):
    """Seeded endpoint pairs, a often on several walls; every other pair
    has b - a an integer vector, so b lies on the walls through a."""
    pairs = []
    while len(pairs) < count:
        a = random_rational_point(rng, ws.dim, den=rng.choice((1, 2, 12)))
        if len(pairs) % 2:
            b = tuple(x + rng.randint(-2, 2) for x in a)
        else:
            b = random_rational_point(rng, ws.dim, den=12)
        if a != b:
            pairs.append((a, b))
    return pairs


def test_chamber_path_matches_nudged_oracle():
    rng = random.Random(8080)
    checked = 0
    for ws in oracle_wall_sets():
        for a, b in oracle_pairs(ws, rng, 84):
            path = chamber_path(ws, a, b)
            assert sorted(path) == separating_walls(ws, a, b)
            assert path == nudged_path(ws, a, b), (ws, a, b)
            checked += 1
    assert checked >= 1000


@pytest.mark.parametrize("ws, a, b", [
    (WallSet([WallFamily((1, 0), [0]), WallFamily((0, 1), [0])]), (0, 0), (2, 1)),
    (nd_wall_set(threelines()), (0, 0, 0), (2, 1, 1)),
    (nd_wall_set(veys()), (2, -2, F(-1, 2), 2, F(-3, 2)), (3, 1, 1, -2, -2)),
])
def test_chamber_path_regressions(ws, a, b):
    # an endpoint on several walls at once, where a finite nudge of the
    # endpoints used to find no generic segment
    path = chamber_path(ws, a, b)
    assert sorted(path) == separating_walls(ws, a, b)
    assert path == nudged_path(ws, a, b)


# ---------------------------------------------------------------------------
# restriction closure

def test_extend_restricted_golden():
    ws = extend_restricted_walls(walls_from_resolution([(2, 4)]))
    by_normal = {f.normal: f.offsets for f in ws}
    assert by_normal == {
        (1, 0): (F(0), F(1, 2)),
        (0, 1): (F(0), F(1, 4), F(1, 2), F(3, 4)),
        (1, 2): (F(0), F(1, 2))}


def test_extend_restricted_mixed():
    ws = mixed_set()
    by_normal = {f.normal: f.offsets for f in ws}
    assert by_normal == {
        (1, 0): (F(0), F(1, 2)),
        (0, 1): (F(0), F(1, 3), F(2, 3)),
        (2, 1): (F(0),),
        (1, 3): (F(0),)}


def test_extend_restricted_idempotent():
    for maker in (diag_set, mixed_set, tl_wall_set):
        ws = maker()
        assert extend_restricted_walls(ws) == ws


def test_extend_keeps_input_families():
    base = walls_from_resolution([(2, 4), (3, 1)])
    ext = extend_restricted_walls(base)
    by_normal = {f.normal: set(f.offsets) for f in ext}
    for fam in base:
        assert set(fam.offsets) <= by_normal[fam.normal]


# ---------------------------------------------------------------------------
# the scaled-integer route makes no Fraction arithmetic per wall

def test_walls_make_few_fractions(monkeypatch):
    """separating_walls and chamber_path make one Fraction per returned wall,
    its level, plus at most one per family and one per coordinate: the
    crossing times and tie-breaks are ints."""
    ws = fractional_sets()[0]
    a, b = (F(-4, 3), F(-1, 2)), (F(7, 4), F(4, 5))
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    seps = separating_walls(ws, a, b)
    in_separating = len(made)
    del made[:]
    path = chamber_path(ws, a, b)
    in_path = len(made)
    monkeypatch.undo()
    families, dim = len(ws), ws.dim
    assert len(seps) == len(path) == 30
    assert in_separating <= len(seps) + families + dim
    assert in_path <= len(path) + families + dim
