"""Wall families, separation, chamber paths, restriction closure."""

import random
from fractions import Fraction

import pytest

from arrzeta import (WallFamily, WallInstance, WallSet, chamber_path,
                     extend_restricted_walls, intersection_lattice,
                     localized_walls, nd_wall_set, resolution_datum,
                     separating_walls, walls_from_resolution)

from conftest import (nudged_path, random_central_c3, random_lines,
                      random_rational_point, threelines, threelines_factored,
                      veys)

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
    arr = threelines_factored()
    lat = intersection_lattice(arr)
    data = [resolution_datum(arr, lat.flat([0])),
            resolution_datum(arr, lat.flat([0, 1, 2]))]
    ws = walls_from_resolution(d.ord for d in data)
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
