"""Thresholds, polytopes, adapted vectors, and the conjecture checks."""

from fractions import Fraction
from itertools import combinations

import pytest

from arrzeta import (Arrangement, ArrangementError, BRootSet, Polytope,
                     adapted_vector, lct, log_canonical_polytope,
                     multi_nd_check, multi_smc_verify, nd_check, smc_verify,
                     validate_adapted)
from arrzeta.core import AffineForm, QMatrix, rank
from arrzeta.examples import veys_broots

from conftest import (boolean2, ninefold, polytope_member, threelines,
                      threelines_factored, veys, xy_ab, xy_in_c3, xyz)

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


def test_adapted_vector_golden():
    assert adapted_vector(threelines()) == (F(2, 3), F(2, 3), F(2, 3))
    assert adapted_vector(veys()) == (F(1, 2), F(5, 8), F(5, 8), F(5, 8), F(5, 8))


def test_adapted_vector_perturbation_path():
    arr = ninefold()
    bases = [c for c in combinations(range(arr.r), arr.n)
             if rank(QMatrix.from_rows([arr.forms[i] for i in c], cols=arr.n)) == arr.n]
    uniform = tuple(F(sum(1 for b in bases if i in b), len(bases))
                    for i in range(arr.r))
    flat = validate_adapted(arr, uniform)
    assert not flat.passed  # the basis average lands on integral sums here
    assert any("integral sum at dense edge" in w for w in flat.witnesses)
    beta = adapted_vector(arr)
    assert validate_adapted(arr, beta).passed
    assert sum(beta) == arr.n
    assert beta == (F(11, 140), F(57, 280), F(61, 280), F(127, 280),
                    F(17, 40), F(17, 28), F(23, 70), F(12, 35), F(12, 35))


def test_adapted_vector_preconditions():
    with pytest.raises(ArrangementError, match="indecomposable"):
        adapted_vector(boolean2())
    with pytest.raises(ArrangementError, match="essential"):
        adapted_vector(xy_in_c3())


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
