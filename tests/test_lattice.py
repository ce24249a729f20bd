"""The Mobius-table routes against the geometric constructions they replace,
and the number of intersection lattices each top-level call builds."""

from itertools import combinations

import pytest

import arrzeta
import arrzeta.arrangement
import arrzeta.cli
import arrzeta.harness
import arrzeta.zeta
from arrzeta import (Arrangement, ArrangementError, QMatrix, adapted_vector,
                     closure, complement_euler, dense_edges, global_zeta,
                     intersection_lattice, interval_arrangement,
                     is_indecomposable, kernel_basis, local_zeta,
                     multi_nd_check, nd_check, proj_complement_euler, rank, restriction_arrangement,
                     validate_adapted)

from conftest import (boolean2, ninefold, random_central_c3, random_lines,
                      threelines, threelines_factored, veys, xy_in_c3, xyz)


def braid(n):
    """x_i - x_j, i < j, in C^n."""
    forms = []
    for i, j in combinations(range(n), 2):
        v = [0] * n
        v[i], v[j] = 1, -1
        forms.append(v)
    return Arrangement(n, forms)


def matroid_connected(normals, n):
    """Connectivity of the matroid of the given normal vectors, by brute force.

    Disconnected iff some bipartition I, J has rank(I) + rank(J) equal to
    the total rank.  A single vector is connected.
    """
    r = len(normals)
    if r == 1:
        return True
    total = rank(QMatrix.from_rows(normals, cols=n))
    # bipartitions with normals[0] on the left and a nonempty right side
    for mask in range((1 << (r - 1)) - 1):
        left = [normals[0]] + [normals[i] for i in range(1, r) if mask & (1 << (i - 1))]
        right = [normals[i] for i in range(1, r) if not mask & (1 << (i - 1))]
        if rank(QMatrix.from_rows(left, cols=n)) + rank(QMatrix.from_rows(right, cols=n)) == total:
            return False
    return True


CORPUS = ([("threelines", threelines()), ("xyz", xyz()), ("veys", veys()),
           ("ninefold", ninefold()), ("boolean2", boolean2()), ("xy_in_c3", xy_in_c3()),
           ("braid-A3", braid(4))]
          + [("c3-411-%d" % k, a) for k, a in enumerate(random_central_c3(411, count=6))]
          + [("lines-7-%d" % k, a) for k, a in enumerate(random_lines(7, count=6))])
over_corpus = pytest.mark.parametrize("arr", [a for _, a in CORPUS],
                                      ids=[name for name, _ in CORPUS])


@over_corpus
def test_interval_euler_matches_interval_arrangement(arr):
    lat = intersection_lattice(arr)
    for x in lat.flats:
        for y in lat.flats:
            if x.indices < y.indices:
                step = interval_arrangement(arr, y, x)
                assert lat.interval_euler(x, y) == proj_complement_euler(step)


@over_corpus
def test_stratum_euler_matches_restriction(arr):
    lat = intersection_lattice(arr)
    assert lat.stratum_euler(lat.ambient) == complement_euler(arr)
    for x in lat.flats:
        if x.codim == arr.n:
            assert lat.stratum_euler(x) == 1  # the open stratum of the origin
        else:
            assert lat.stratum_euler(x) == complement_euler(restriction_arrangement(arr, x))


@over_corpus
def test_dense_edges_match_bipartition_oracle(arr):
    lat = intersection_lattice(arr)
    want = [f for f in lat.proper_flats()
            if matroid_connected([arr.forms[i] for i in sorted(f.indices)], arr.n)]
    assert dense_edges(arr, lat) == want
    assert is_indecomposable(arr) == matroid_connected(list(arr.forms), arr.n)


@over_corpus
def test_closure_basis_is_that_of_the_closed_set(arr):
    for f in intersection_lattice(arr).flats:
        assert closure(arr, f.indices).basis == tuple(kernel_basis(arr.normal_matrix(f.indices)))


@over_corpus
def test_lattice_is_the_closure_of_every_subset(arr):
    lat = intersection_lattice(arr)
    oracle = {}
    for k in range(arr.r + 1):
        for subset in combinations(range(arr.r), k):
            f = closure(arr, subset)
            oracle[f.indices] = (f.codim, f.basis)
    assert {f.indices: (f.codim, f.basis) for f in lat.flats} == oracle


@over_corpus
def test_one_kernel_basis_per_flat(monkeypatch, arr):
    calls = []

    def counted(m):
        calls.append(m)
        return kernel_basis(m)

    monkeypatch.setattr(arrzeta.arrangement, "kernel_basis", counted)
    lat = intersection_lattice(arr)
    assert len(calls) == len(lat)


def test_interval_euler_needs_nested_flats():
    lat = intersection_lattice(threelines())
    origin, line = lat.flat([0, 1, 2]), lat.flat([0])
    assert lat.interval_euler(lat.ambient, origin) == -1
    with pytest.raises(ArrangementError, match="strictly inside"):
        lat.interval_euler(origin, line)
    with pytest.raises(ArrangementError, match="strictly inside"):
        lat.interval_euler(line, line)


# ---------------------------------------------------------------------------
# lattices per call

@pytest.fixture
def lattice_count(monkeypatch):
    """Count intersection_lattice calls through every module binding."""
    calls = []
    original = arrzeta.arrangement.intersection_lattice

    def counted(arr):
        calls.append(arr)
        return original(arr)

    for mod in (arrzeta, arrzeta.arrangement, arrzeta.zeta, arrzeta.harness, arrzeta.cli):
        monkeypatch.setattr(mod, "intersection_lattice", counted)
    return calls


@pytest.mark.parametrize("call", [local_zeta, global_zeta, adapted_vector,
                                  lambda arr: validate_adapted(arr, (1,) * 6 + (0,) * 3)],
                         ids=["local_zeta", "global_zeta", "adapted_vector", "validate_adapted"])
def test_one_lattice_per_call(lattice_count, call):
    call(ninefold())
    assert len(lattice_count) == 1


def test_nd_check_builds_at_most_two_lattices(lattice_count):
    nd_check(veys())
    assert len(lattice_count) <= 2


def test_nd_check_builds_one_lattice(lattice_count):
    nd_check(veys())
    assert len(lattice_count) == 1


def test_multi_nd_check_builds_one_lattice(lattice_count):
    multi_nd_check(threelines_factored())
    assert len(lattice_count) == 1


def test_analyze_builds_one_lattice(lattice_count, capsys):
    assert arrzeta.cli.run(["analyze", "--example", "veys", "--json"]) == 0
    assert len(lattice_count) == 1
