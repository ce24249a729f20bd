"""The Mobius-table routes against the geometric constructions they replace,
and the number of intersection lattices each top-level call builds."""

import ast
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arrzeta
import arrzeta.arrangement
import arrzeta.cli
import arrzeta.core
from arrzeta.core import poly_eval, primitive_normal
from arrzeta import (AffineForm, Arrangement, ArrangementError, Flat, QMatrix,
                     adapted_vector, candidate_poles, char_poly,
                     complement_euler, dense_edges, global_zeta,
                     intersection_lattice, is_essential, is_indecomposable,
                     lct, local_zeta, log_canonical_polytope, multi_nd_check,
                     nd_check, nd_wall_set, proj_complement_euler, rank,
                     smc_verify, validate_adapted)
from arrzeta.examples import veys_broots

from conftest import (boolean2, braid, brute_force_lattice, closure, flat_basis,
                      fraction_kernel, interval_arrangement, long_division,
                      ninefold, poly, random_central_c3, random_lines,
                      restriction_arrangement, stratum_euler, threelines,
                      threelines_factored, type_b, veys, xy_in_c3, xyz)


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


# braid A4 and B4 (306 and 813 pairs X < Y) check rank-4 lattices larger
# than any hypothesis draw of test_integer_lattice_matches_rational_oracle
over_corpus_and_rank_4 = pytest.mark.parametrize(
    "arr", [a for _, a in CORPUS] + [braid(5), type_b(4)],
    ids=[name for name, _ in CORPUS] + ["braid-A4", "B4"])


@over_corpus_and_rank_4
def test_interval_euler_matches_interval_arrangement(arr):
    lat = intersection_lattice(arr)
    for x in lat.flats:
        for y in lat.flats:
            if x.indices < y.indices:
                step = interval_arrangement(arr, y, x)
                assert lat.interval_euler(x, y) == proj_complement_euler(step)


EULER_CASES = ([a for _, a in CORPUS] + [Arrangement(n, []) for n in (1, 2, 3)]
               + random_lines(913, count=8) + random_central_c3(914, count=8))


@pytest.mark.parametrize("arr", EULER_CASES)
def test_euler_characteristics_match_char_poly_route(arr):
    # the Mobius sums against chi_A(1), (chi_A / (t - 1))(1) and the rank of
    # the forms over Q; P^{n-1} has Euler characteristic n when r = 0
    chi = char_poly(arr)
    assert complement_euler(arr) == poly_eval(chi, (1,))
    if arr.r == 0:
        want = arr.n
    else:
        quot, rem = long_division(chi, AffineForm((1,), -1))
        assert rem.is_zero()
        want = poly_eval(quot, (1,))
    assert proj_complement_euler(arr) == want
    assert type(complement_euler(arr)) is type(proj_complement_euler(arr)) is Fraction
    assert is_essential(arr) == (rank(QMatrix.from_rows(arr.forms, cols=arr.n)) == arr.n)


@over_corpus
def test_stratum_euler_matches_restriction(arr):
    lat = intersection_lattice(arr)
    weight = stratum_euler(arr)
    assert weight[lat.ambient.indices] == complement_euler(arr)
    for x in lat.flats:
        if x.codim == arr.n:
            assert weight[x.indices] == 1  # the open stratum of the origin
        else:
            assert weight[x.indices] == complement_euler(restriction_arrangement(arr, x))


@over_corpus
def test_dense_edges_match_bipartition_oracle(arr):
    lat = intersection_lattice(arr)
    want = [f for f in lat.flats[1:]
            if matroid_connected([arr.forms[i] for i in sorted(f.indices)], arr.n)]
    assert dense_edges(arr, lat) == want
    assert is_indecomposable(arr) == matroid_connected(list(arr.forms), arr.n)


@over_corpus
def test_closure_basis_is_that_of_the_closed_set(arr):
    for f in intersection_lattice(arr).flats:
        rows = [arr.forms[i] for i in sorted(f.indices)]
        assert closure(arr, f.indices) == f
        assert flat_basis(arr, f) == tuple(fraction_kernel(rows, arr.n)[1])


@over_corpus
def test_lattice_is_the_closure_of_every_subset(arr):
    lat = intersection_lattice(arr)
    oracle = {}
    for k in range(arr.r + 1):
        for subset in combinations(range(arr.r), k):
            f = closure(arr, subset)
            oracle[f.indices] = f.codim
    assert {f.indices: f.codim for f in lat.flats} == oracle


@over_corpus_and_rank_4
def test_lattice_computes_no_kernel(monkeypatch, arr):
    # every cover's traces come from its parent's: no flat takes a kernel,
    # and the arrangement module reaches integer_kernel only through core
    def refused(rows, cols):
        raise AssertionError("integer_kernel called by the lattice walk")

    assert not hasattr(arrzeta.arrangement, "integer_kernel")
    monkeypatch.setattr(arrzeta.core, "integer_kernel", refused)
    assert intersection_lattice(arr).minimal_flat().indices == frozenset(range(arr.r))


@pytest.mark.parametrize("n, size", [(3, 5), (4, 15), (5, 52), (6, 203), (7, 877)])
def test_braid_char_poly_closed_form(n, size):
    # the braid arrangement in C^n: prod over k < n of (t - k), and the
    # Bell number of flats (set partitions of n)
    want = poly({1: 1})
    for k in range(1, n):
        want = want * poly({1: 1, 0: -k})
    arr = braid(n)
    assert char_poly(arr) == want
    assert len(arr.lattice) == size


@pytest.mark.parametrize("n, size", [(2, 6), (3, 24), (4, 116), (5, 648)])
def test_type_b_char_poly_closed_form(n, size):
    # B_n: prod over k = 1..n of (t - 2k + 1), the exponents 1, 3, ..., 2n - 1
    want = poly({0: 1})
    for k in range(1, n + 1):
        want = want * poly({1: 1, 0: 1 - 2 * k})
    arr = type_b(n)
    assert char_poly(arr) == want
    assert len(arr.lattice) == size


def growth_arrangement(seed):
    """8 or 9 hyperplanes in C^4 or C^5 with integer entries in [-40, 40],
    some of them the sum or difference of two earlier ones, so that traces
    merge on the walk's flats while each rank step's 2x2 determinants
    grow their entries."""
    rng = random.Random(seed)
    n, r = 4 + seed % 2, rng.randint(8, 9)
    forms = {}
    while len(forms) < r:
        if len(forms) >= n and rng.random() < 0.4:
            u, v = rng.sample(list(forms.values()), 2)
            sign = rng.choice((1, -1))
            w = tuple(a + sign * b for a, b in zip(u, v))
        else:
            w = tuple(rng.randint(-40, 40) for _ in range(n))
        if any(w) and max(map(abs, w)) <= 40:
            forms.setdefault(primitive_normal(w), w)
    return Arrangement(n, list(forms.values()))


GROWTH = [growth_arrangement(seed) for seed in range(3000, 3012)]


@pytest.mark.parametrize("arr", GROWTH, ids=["growth-%d" % k for k in range(len(GROWTH))])
def test_lattice_with_large_entries_matches_brute_force(arr):
    flats, table = brute_force_lattice(arr)
    lat = intersection_lattice(arr)
    assert {f.indices: f.codim for f in lat.flats} == flats
    assert lat.mobius == tuple(table[frozenset()][f.indices] for f in lat.flats)


@pytest.mark.parametrize("n", [4, 5])
def test_growth_cases_merge_classes(n):
    # a proper flat with more hyperplanes than its codimension is reached
    # through a class of two or more proportional traces
    assert any(len(f.indices) > f.codim
               for arr in GROWTH if arr.n == n for f in intersection_lattice(arr).flats[:-1])


@st.composite
def scaled_central_arrangements(draw):
    """Central arrangements in C^2..C^4 whose forms are random rational
    multiples of distinct primitive vectors, written with "p/q" entries."""
    n = draw(st.integers(2, 4))
    vectors = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                            .filter(any), min_size=1, max_size=6,
                            unique_by=lambda v: primitive_normal(v)))
    forms = []
    for v in vectors:
        scale = draw(st.sampled_from([1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]))
        forms.append([str(scale * e) for e in v])
    return Arrangement(n, forms)


@settings(max_examples=60, deadline=None)
@given(scaled_central_arrangements())
def test_integer_lattice_matches_rational_oracle(arr):
    # every stored number against the Mobius table by its definition: the
    # ambient row, and chi(X, Y) = sum over X <= Z <= Y of
    # mu(X, Z) (codim Y - codim Z), listed below Y exactly when nonzero
    flats, table = brute_force_lattice(arr)
    primitive = Arrangement(arr.n, arr.normals)
    for lat in (intersection_lattice(arr), intersection_lattice(primitive)):
        assert {f.indices: f.codim for f in lat.flats} == flats
        assert lat.mobius == tuple(table[frozenset()][f.indices] for f in lat.flats)
        assert lat.minimal_flat().indices == frozenset(range(arr.r))
        for y in lat.flats:
            want = {}
            for x in lat.flats:
                if x.indices < y.indices:
                    want[x.indices] = sum(m * (y.codim - flats[z])
                                          for z, m in table[x.indices].items()
                                          if z <= y.indices)
                    assert lat.interval_euler(x, y) == want[x.indices]
            below = lat.euler_below(y)
            assert len(below) == len({x for x, _ in below})
            assert {x.indices: e for x, e in below} == {x: e for x, e in want.items() if e}


def test_lattice_is_built_without_fractions(monkeypatch):
    """No Fraction is made until a flat's rational basis is read."""
    arrs = [braid(5), Arrangement(3, [(1, k, k * k) for k in range(1, 21)])]
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    lattices = [intersection_lattice(arr) for arr in arrs]
    assert [len(lat) for lat in lattices] == [52, 212]
    assert made == []
    assert flat_basis(arrs[0], lattices[0].flats[1]) and made


def test_interval_euler_needs_nested_flats():
    lat = intersection_lattice(threelines())
    origin, line = lat.flat([0, 1, 2]), lat.flat([0])
    assert lat.interval_euler(lat.ambient, origin) == -1
    with pytest.raises(ArrangementError, match="strictly inside"):
        lat.interval_euler(origin, line)
    with pytest.raises(ArrangementError, match="strictly inside"):
        lat.interval_euler(line, line)


def test_lattice_lookups_reject_a_flat_not_in_the_lattice():
    lat = veys().lattice
    stray = Flat({0, 1, 2, 3}, 3)  # the origin, whose closed set also holds 4
    for read in (lat.mu, lat.is_dense, lat.euler_below,
                 lambda f: lat.interval_euler(lat.ambient, f),
                 lambda f: lat.interval_euler(f, lat.minimal_flat())):
        with pytest.raises(ArrangementError, match=r"\[0, 1, 2, 3\] is not closed"):
            read(stray)


# ---------------------------------------------------------------------------
# lattices per call

SRC = Path(arrzeta.__file__).parent


@pytest.fixture
def lattice_count(monkeypatch):
    """Count intersection_lattice calls through every module binding: the
    package's export and arrangement, where Arrangement.lattice calls it."""
    calls = []
    original = arrzeta.arrangement.intersection_lattice

    def counted(arr):
        calls.append(arr)
        return original(arr)

    for mod in (arrzeta, arrzeta.arrangement):
        monkeypatch.setattr(mod, "intersection_lattice", counted)
    return calls


def _call_scopes(node, name, scope=()):
    """The class and function names around each call of name under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                    getattr(child.func, "attr", None)):
            yield scope
        inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
        yield from _call_scopes(child, name, inner)


def test_only_arrangement_lattice_builds_a_lattice():
    # the count tests see every build only if Arrangement.lattice is the one
    # caller of intersection_lattice and no module but the package's
    # __init__ (its public export) imports the name
    calls, imports = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += [(path.name, scope) for scope in _call_scopes(tree, "intersection_lattice")]
        imports += [path.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    and any(a.name == "intersection_lattice" for a in node.names)]
    assert calls == [("arrangement.py", ("Arrangement", "lattice"))]
    assert imports == ["__init__.py"]


def test_one_arrangement_builds_one_lattice(lattice_count):
    arr = veys()
    beta = adapted_vector(arr)
    for call in (nd_check, lct, candidate_poles, dense_edges, char_poly,
                 complement_euler, proj_complement_euler, is_indecomposable,
                 nd_wall_set, log_canonical_polytope, local_zeta, global_zeta,
                 lambda a: smc_verify(a, veys_broots()),
                 lambda a: validate_adapted(a, beta)):
        call(arr)
    assert lattice_count == [arr]


@pytest.mark.parametrize("call", [local_zeta, global_zeta, adapted_vector,
                                  lambda arr: validate_adapted(arr, (1,) * 6 + (0,) * 3)],
                         ids=["local_zeta", "global_zeta", "adapted_vector", "validate_adapted"])
def test_one_lattice_per_call(lattice_count, call):
    call(ninefold())
    assert len(lattice_count) == 1


def test_nd_check_builds_one_lattice(lattice_count):
    nd_check(veys())
    assert len(lattice_count) == 1


def test_multi_nd_check_builds_one_lattice(lattice_count):
    multi_nd_check(threelines_factored())
    assert len(lattice_count) == 1


@pytest.mark.parametrize("command", ["analyze", "adapted"])
def test_analyze_builds_one_lattice(lattice_count, capsys, command):
    assert arrzeta.cli.run([command, "--example", "veys", "--json"]) == 0
    assert len(lattice_count) == 1
