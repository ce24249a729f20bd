"""Thresholds, polytopes, adapted vectors, and the conjecture checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrzeta import (Arrangement, ArrangementError, BRootSet, Polytope,
                     adapted_vector, is_essential, is_indecomposable, lct,
                     log_canonical_polytope, multi_nd_check, multi_smc_verify,
                     nd_check, smc_verify, validate_adapted)
from arrzeta.core import AffineForm
from arrzeta.examples import veys_broots
from arrzeta.harness import _adapted_violations, _leverage_scores
from arrzeta.arrangement import dense_edges

from conftest import (_distinct_normals, boolean2, braid, cauchy_binet_leverage,
                      fraction_adapted_violations, ninefold, polytope_member,
                      thirteen, threelines, threelines_factored, type_b, veys,
                      xy_ab, xy_in_c3, xyz)

F = Fraction


# ---------------------------------------------------------------------------
# log canonical threshold and polytope

def test_lct_golden():
    assert lct(veys()) == F(1, 4)
    assert lct(threelines()) == F(2, 3)
    assert lct(xy_ab(2, 3)) == F(1, 3)
    assert lct(boolean2()) == 1
    assert lct(xyz()) == 1
    with pytest.raises(ArrangementError):
        lct(Arrangement(2, []))
    with pytest.raises(ArrangementError):
        lct(Arrangement(1, [(1, -1)]))


def test_lct_against_polytope_bisection():
    # lct is where the ray t * mults leaves the log canonical polytope
    for arr in (veys(), threelines(), xy_ab(2, 3), xyz(), ninefold()):
        poly = log_canonical_polytope(arr)
        t = lct(arr)
        assert polytope_member(poly, [t * m for m in arr.mults])
        assert not polytope_member(poly, [(t + F(1, 1000)) * m for m in arr.mults])
        lo, hi = F(0), F(arr.n + 1)
        for _ in range(60):
            mid = (lo + hi) / 2
            if mid > 0 and polytope_member(poly, [mid * m for m in arr.mults]):
                lo = mid
            else:
                hi = mid
        assert abs(lo - t) < F(1, 2 ** 55)
        assert lo.limit_denominator(10 ** 6) == t


def test_polytope_structure():
    poly = log_canonical_polytope(threelines())
    assert poly.r == 3
    assert poly.inequalities == (
        (frozenset({0}), 1), (frozenset({1}), 1), (frozenset({2}), 1),
        (frozenset({0, 1, 2}), 2))
    pv = log_canonical_polytope(veys())
    assert len(pv.inequalities) == 8
    assert (frozenset({0, 1, 2}), 2) in pv.inequalities
    assert (frozenset({0, 3, 4}), 2) in pv.inequalities
    assert (frozenset(range(5)), 3) in pv.inequalities
    with pytest.raises(ArrangementError, match="empty arrangement"):
        log_canonical_polytope(Arrangement(2, []))


def test_polytope_member_semantics():
    poly = log_canonical_polytope(threelines())
    b = (F(2, 3), F(2, 3), F(2, 3))
    assert polytope_member(poly, b)
    assert not polytope_member(poly, b, strict=True)  # origin facet is tight
    assert polytope_member(poly, (F(1, 2), F(1, 2), F(1, 2)), strict=True)
    assert not polytope_member(poly, (F(3, 2), F(1, 4), F(1, 4)))
    with pytest.raises(ValueError, match="positive"):
        polytope_member(poly, (0, F(1, 2), F(1, 2)))
    with pytest.raises(ValueError, match="length"):
        polytope_member(poly, (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError, match="range"):
        Polytope(2, [((0, 5), 1)])


@pytest.mark.parametrize("ineq", [((0, 1.7), F(5, 2)), ((0, 1), F(5, 2)), ((0, True), 1)],
                         ids=["float-index", "fraction-bound", "bool-index"])
def test_polytope_rejects_non_integral_data(ineq):
    with pytest.raises(ValueError, match="must be an integer"):
        Polytope(2, [ineq])


# ---------------------------------------------------------------------------
# adapted vectors

def test_validate_adapted_pass():
    v = validate_adapted(threelines(), (F(2, 3), F(2, 3), F(2, 3)))
    assert v.passed and v.witnesses == ("vector is adapted",)
    assert validate_adapted(veys(), (F(1, 2), F(5, 8), F(5, 8), F(5, 8), F(5, 8))).passed


def test_validate_adapted_integral_sum():
    v = validate_adapted(threelines(), (1, F(1, 2), F(1, 2)))
    assert not v.passed
    assert "integral sum at dense hyperplane 1 (sum 1)" in v.witnesses
    # the minimal edge {1,2,3} is exempt from the integrality condition
    assert not any("edge {1,2,3}" in w for w in v.witnesses)


def test_validate_adapted_integral_edge_sum():
    v = validate_adapted(veys(), (F(1, 2), F(3, 4), F(3, 4), F(1, 2), F(1, 2)))
    assert not v.passed
    assert "integral sum at dense edge {1,2,3} (sum 2)" in v.witnesses


def test_validate_adapted_other_witnesses():
    v = validate_adapted(threelines(), (F(-1, 3), F(4, 3), 1))
    assert "component 1 is not positive (-1/3)" in v.witnesses
    v = validate_adapted(threelines(), (F(3, 2), F(1, 4), F(1, 4)))
    assert "polytope violated at dense hyperplane 1 (sum 3/2 > 1)" in v.witnesses
    v = validate_adapted(threelines(), (F(1, 3), F(1, 3), F(1, 3)))
    assert "total sum 1 differs from the ambient dimension 2" in v.witnesses


def test_validate_adapted_preconditions():
    with pytest.raises(ArrangementError, match="indecomposable"):
        validate_adapted(boolean2(), (F(1, 2), F(1, 2)))
    with pytest.raises(ArrangementError, match="essential"):
        validate_adapted(xy_in_c3(), (F(1, 2), F(1, 2)))
    with pytest.raises(ArrangementError, match="components"):
        validate_adapted(threelines(), (F(1, 2),))
    with pytest.raises(ArrangementError, match="at least one hyperplane"):
        validate_adapted(Arrangement(2, []), ())


def test_adapted_vector_golden():
    assert adapted_vector(threelines()) == (F(2, 3), F(2, 3), F(2, 3))
    assert adapted_vector(veys()) == (F(1, 2), F(5, 8), F(5, 8), F(5, 8), F(5, 8))
    # ninefold's leverage scores are adapted as they stand
    beta = adapted_vector(ninefold())
    assert validate_adapted(ninefold(), beta).passed
    assert beta == (F(29, 120), F(29, 120), F(3, 10), F(11, 30), F(7, 40),
                    F(3, 8), F(11, 30), F(7, 15), F(7, 15))


def test_adapted_vector_perturbation_path():
    arr = thirteen()
    scores = _leverage_scores(arr)
    assert scores == (F(1, 9),) * 3 + (F(2, 9),) * 6 + (F(1, 3),) * 4
    flat = validate_adapted(arr, scores)
    assert not flat.passed  # the scores sum to 1 on the six four-plane lines
    assert len(flat.witnesses) == 6
    assert all("integral sum at dense edge" in w for w in flat.witnesses)
    beta = adapted_vector(arr)
    assert validate_adapted(arr, beta).passed
    assert sum(beta) == 3
    assert beta == (F(809, 4608), F(47, 1152), F(539, 4608)) + scores[3:]


def test_adapted_vector_preconditions():
    with pytest.raises(ArrangementError, match="indecomposable"):
        adapted_vector(boolean2())
    with pytest.raises(ArrangementError, match="essential"):
        adapted_vector(xy_in_c3())


@pytest.mark.parametrize("arr", [veys(), threelines(), ninefold(), type_b(4), thirteen()],
                         ids=["veys", "threelines", "ninefold", "B4", "thirteen"])
def test_leverage_scores_and_adapted_vector(arr):
    assert _leverage_scores(arr) == cauchy_binet_leverage(arr)
    assert validate_adapted(arr, adapted_vector(arr)).passed


@st.composite
def _verdict_arrangements(draw):
    """Central arrangements in C^2..C^5 with at most 8 distinct planes,
    drawn by conftest's seeded normal generator, that meet the verdict
    preconditions: essential and indecomposable."""
    n = draw(st.integers(2, 5))
    r = draw(st.integers(n + 1, 8))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    arr = Arrangement(n, _distinct_normals(rng, n, r))
    assume(is_essential(arr) and is_indecomposable(arr))
    return arr


@settings(max_examples=100, deadline=None)
@given(_verdict_arrangements())
def test_leverage_scores_and_adapted_vector_random(arr):
    scores = _leverage_scores(arr)
    assert scores == cauchy_binet_leverage(arr)
    assert all(h > 0 for h in scores) and sum(scores) == arr.n
    assert validate_adapted(arr, adapted_vector(arr)).passed


def _integral_edges(arr):
    """The dense edges other than the origin on which the leverage scores
    sum to an integer, in the order of dense_edges."""
    dense = dense_edges(arr)
    _, data = _adapted_violations(arr, dense, _leverage_scores(arr))
    return [f for f, (_, s) in zip(dense, data["dense_sums"])
            if len(f.indices) < arr.r and s.denominator == 1]


@st.composite
def _integral_score_arrangements(draw):
    """Essential, indecomposable arrangements of 4 to 9 of thirteen's
    normals (every vector of {-1, 0, 1}^3 up to sign) whose leverage
    scores sum to an integer on some dense edge other than the origin: the
    first such arrangement in a seeded walk over random subsets, so that
    every draw needs the perturbation (about one subset in eighteen does)."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    normals = thirteen().normals
    for _ in range(1000):
        arr = Arrangement(3, rng.sample(normals, rng.randint(4, 9)))
        if is_essential(arr) and is_indecomposable(arr) and _integral_edges(arr):
            return arr
    assume(False)


def _assert_half_weights_separate(arr):
    # the k-th edge with an integral sum, X_k, gives d_k = e_j - e_m (j
    # the least index in X_k, m the least outside it); over every such
    # edge X, the sums of the d_k lie in {-1, 0, 1}, X's own is 1, and
    # the weights 2^-(k+1) leave a nonzero total
    edges = _integral_edges(arr)
    assert edges
    full = frozenset(range(arr.r))
    steps = [(min(f.indices), min(full - f.indices)) for f in edges]
    for own, f in enumerate(edges):
        sums = [int(j in f.indices) - int(m in f.indices) for j, m in steps]
        assert set(sums) <= {-1, 0, 1} and sums[own] == 1
        assert sum(F(t, 2 ** (k + 1)) for k, t in enumerate(sums)) != 0
    # adapted_vector moves the scores along that v, by a power of 1/2
    v = [F(0)] * arr.r
    for k, (j, m) in enumerate(steps):
        v[j] += F(1, 2 ** (k + 1))
        v[m] -= F(1, 2 ** (k + 1))
    scores = _leverage_scores(arr)
    beta = adapted_vector(arr)
    assert validate_adapted(arr, beta).passed
    eps = next((b - h) / x for b, h, x in zip(beta, scores, v) if x)
    assert eps > 0 and eps.numerator == 1 and eps.denominator & (eps.denominator - 1) == 0
    assert beta == tuple(h + eps * x for h, x in zip(scores, v))


def test_half_weights_separate_thirteen():
    assert len(_integral_edges(thirteen())) == 6
    _assert_half_weights_separate(thirteen())


@settings(max_examples=30, deadline=None)
@given(_integral_score_arrangements())
def test_half_weights_separate_random(arr):
    _assert_half_weights_separate(arr)


_VIOLATION_CORPUS = [threelines(), veys(), ninefold(), thirteen(), braid(4), type_b(3)]


@st.composite
def _arrangement_and_beta(draw):
    """A corpus arrangement and a vector of its length whose components
    may be zero or negative, with denominators up to 50 or small ones
    that make integral sums likely."""
    arr = draw(st.sampled_from(_VIOLATION_CORPUS))
    component = st.one_of(st.fractions(-3, 3, max_denominator=50),
                          st.integers(-1, 3).map(F),
                          st.sampled_from([F(1, 2), F(-1, 2), F(1, 3), F(2, 3), F(3, 4)]))
    return arr, tuple(draw(st.lists(component, min_size=arr.r, max_size=arr.r)))


@settings(max_examples=200, deadline=None)
@given(_arrangement_and_beta())
def test_adapted_violations_match_fraction_sums(case):
    # the sums on beta scaled by the lcm of its denominators give the
    # witnesses, dense sums and total of the sums in Fractions, as the
    # same types
    arr, beta = case
    dense = dense_edges(arr)
    bad, data = _adapted_violations(arr, dense, beta)
    want_bad, want = fraction_adapted_violations(arr, dense, beta)
    assert bad == want_bad
    assert data == want
    assert type(data["total"]) is Fraction
    assert all(type(s) is Fraction for _, s in data["dense_sums"])


def test_adapted_violations_show_every_witness():
    # one vector of threelines with every kind of witness
    arr = threelines()
    beta = (F(-1, 2), F(3, 2), F(2))
    bad, data = _adapted_violations(arr, dense_edges(arr), beta)
    assert (bad, data) == fraction_adapted_violations(arr, dense_edges(arr), beta)
    assert bad == ["component 1 is not positive (-1/2)",
                   "polytope violated at dense hyperplane 2 (sum 3/2 > 1)",
                   "polytope violated at dense hyperplane 3 (sum 2 > 1)",
                   "integral sum at dense hyperplane 3 (sum 2)",
                   "polytope violated at dense edge {1,2,3} (sum 3 > 2)",
                   "total sum 3 differs from the ambient dimension 2"]


# ---------------------------------------------------------------------------
# the -n/d candidate check

def test_nd_check_veys():
    v = nd_check(veys())
    assert v.passed
    assert v.data["ratio"] == F(-1, 3)
    assert v.data["is_candidate"] is True
    assert v.data["is_pole"] is False
    assert "candidate pole: yes" in v.witnesses
    assert "pole of the local zeta function: no" in v.witnesses


def test_nd_check_threelines():
    v = nd_check(threelines())
    assert v.passed
    assert v.data["ratio"] == F(-2, 3)
    assert v.data["is_pole"] is True
    assert "pole of the local zeta function: yes" in v.witnesses


def test_nd_check_preconditions():
    with pytest.raises(ArrangementError, match="indecomposable"):
        nd_check(xy_ab(2, 3))
    with pytest.raises(ArrangementError, match="more hyperplanes"):
        nd_check(Arrangement(1, [(1,)], mults=[3]))


# ---------------------------------------------------------------------------
# strong monodromy consistency

def test_smc_verify_pass():
    v = smc_verify(veys(), veys_broots())
    assert v.passed
    assert v.witnesses == ("all 5 poles lie in the supplied root set",)
    assert v.data["offenders"] == []


def test_smc_verify_fail_names_offender():
    deficient = BRootSet([F(-1), F(-1, 2), F(-2, 3), F(-1, 4), F(-1, 3)])
    v = smc_verify(veys(), deficient)
    assert not v.passed
    assert v.witnesses == ("pole -2/7 is not among the supplied roots",)
    assert v.data["offenders"] == [F(-2, 7)]


def test_smc_verify_monotone_in_roots():
    base = {F(-1), F(-2, 3)}
    assert smc_verify(threelines(), BRootSet(base)).passed
    assert smc_verify(threelines(), BRootSet(base | {F(-5)})).passed
    assert not smc_verify(threelines(), BRootSet({F(-1)})).passed


def test_smc_verify_accepts_plain_lists():
    assert smc_verify(threelines(), ["-1", "-2/3"]).passed
    with pytest.raises(ValueError):
        BRootSet([])
    with pytest.raises(ValueError, match="integers or"):
        BRootSet.from_json({"roots": [1.5]})


@pytest.mark.parametrize("root", [0.5, -1.0, True, False], ids=["float", "float-int",
                                                                "true", "false"])
def test_broots_reject_bool_and_float(root):
    with pytest.raises(ValueError, match="cannot interpret"):
        BRootSet([F(-1), root])


def test_broots_from_json():
    rs = BRootSet.from_json({"roots": ["-1/2", "-1"]})
    assert F(-1, 2) in rs and F(-1) in rs and F(-1, 3) not in rs
    with pytest.raises(ValueError):
        BRootSet.from_json(["-1/2"])


# ---------------------------------------------------------------------------
# multivariate versions

def test_multi_nd_threelines():
    v = multi_nd_check(threelines_factored())
    assert v.passed
    assert v.data["hyperplane"] == AffineForm((1, 2), 2)
    assert v.data["in_polar"] is True
    assert "distinguished hyperplane s1 + 2*s2 + 2" in v.witnesses


def test_multi_nd_preconditions():
    with pytest.raises(ArrangementError, match="factorization"):
        multi_nd_check(threelines())
    heavy = Arrangement(2, [(1, 0), (0, 1), (1, -1)], mults=[2, 1, 1],
                        factors=[(2, 1, 1)])
    with pytest.raises(ArrangementError, match="reduced"):
        multi_nd_check(heavy)


def test_multi_smc_pass_and_fail():
    tf = threelines_factored()
    full = [[1, 2, 2], [1, 0, 1], [0, 1, 1]]
    v = multi_smc_verify(tf, full)
    assert v.passed
    assert v.witnesses == ("polar locus (3 components) lies in the zero locus",)
    v = multi_smc_verify(tf, [[1, 0, 1], [0, 1, 1]])
    assert not v.passed
    assert v.witnesses == ("polar component s1 + 2*s2 + 2 is not in the zero locus",)
    assert v.data["offenders"] == [AffineForm((1, 2), 2)]


def test_multi_checks_accept_one_factor():
    # one factor gives a zeta in one variable, whose poles() are roots; the
    # polar locus is still read as forms
    one = Arrangement(2, threelines().forms, factors=[(1, 1, 1)])
    polar = {AffineForm((3,), 2), AffineForm((1,), 1)}
    v = multi_nd_check(one)
    assert v.passed and v.data["in_polar"] and set(v.data["polar"]) == polar
    assert multi_smc_verify(one, [[3, 2], [1, 1]]).passed


def test_multi_smc_canonicalizes_input():
    tf = threelines_factored()
    scaled = [[2, 4, 4], [1, 0, 1], [0, 1, 1]]
    assert multi_smc_verify(tf, scaled).passed
    forms = [AffineForm((1, 2), 2), AffineForm((1, 0), 1), AffineForm((0, 1), 1)]
    assert multi_smc_verify(tf, forms).passed


def test_multi_smc_requires_factors():
    with pytest.raises(ArrangementError, match="factorization"):
        multi_smc_verify(veys(), [[1, 1]])


@pytest.mark.parametrize("row", [[1.5, 0, 1], [Fraction(3, 2), 0, 1], [1, True, 1],
                                 ["1", 0, 1]], ids=["float", "fraction", "bool", "str"])
def test_multi_smc_rejects_non_integer_rows(row):
    # [1.5, 0, 1] used to read as s1 + 1, a polar component, and PASS
    with pytest.raises(ArrangementError, match="must be an integer"):
        multi_smc_verify(threelines_factored(), [row, [0, 1, 1], [1, 2, 2]])


@pytest.mark.parametrize("locus", [[[1, 1], [1, 1]],
                                   [[1, 2, 2, 0], [1, 0, 1, 0], [0, 1, 1, 0]],
                                   [AffineForm((1,), 1)],
                                   [[1, 2, 2], AffineForm((1, 0, 0), 1)]],
                         ids=["short-rows", "long-rows", "short-form", "long-form"])
def test_multi_smc_rejects_row_length(locus):
    # two factors: each zero-locus row is two coefficients and a constant;
    # a row of another length would never match a polar component
    with pytest.raises(ArrangementError, match="expected 3"):
        multi_smc_verify(threelines_factored(), locus)
