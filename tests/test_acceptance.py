"""End-to-end acceptance checks, one per shipped guarantee, exact arithmetic.

Each test prints a single PASS line when its criterion holds; a failed
assertion is the FAIL line.  Everything is checked at zero tolerance.
"""

import random
import time
from fractions import Fraction
from itertools import product

from arrzeta import (BRootSet, DiagClass, MonomialConnectionSpec, WallFamily,
                     WallSet, adapted_vector, candidate_poles, chamber_path,
                     diag_annihilator, diag_s_eigenvalue, diag_vres_member,
                     extend_restricted_walls, lct, local_zeta,
                     localized_walls, log_canonical_polytope,
                     multi_nd_check, multi_smc_verify, multivariate_local_zeta,
                     nd_check, nd_wall_set, poles, rank2_zeta,
                     separating_walls, smc_verify, snc_zeta, validate_adapted)
from arrzeta.cli import run
from arrzeta.core import AffineForm
from arrzeta.examples import veys_broots

from conftest import (boolean2, boolean2_factored, polytope_member,
                      random_central_c3, random_lines, random_rational_point,
                      specialize, threelines, threelines_factored, veys, xy_ab,
                      xy_in_c3, xyz)

F = Fraction


def report(num, text):
    print("criterion %2d PASS: %s" % (num, text))


def test_01_veys_non_pole():
    arr = veys()
    start = time.perf_counter()
    z = local_zeta(arr)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ratio = F(-arr.n, arr.degree())
    assert ratio == F(-1, 3)
    cands = candidate_poles(arr)
    assert ratio in cands
    assert ratio not in poles(z).pole_set()
    report(1, "veys zeta in %.3fs; -1/3 = -n/d is a candidate but not a pole"
           % elapsed)


def test_02_veys_roots_containment(capsys):
    arr = veys()
    roots = veys_broots()
    pole_set = poles(local_zeta(arr)).pole_set()
    assert all(p in roots for p in pole_set)
    cands = set(candidate_poles(arr))
    assert cands == {F(-1), F(-1, 2), F(-1, 4), F(-2, 3), F(-2, 7), F(-1, 3)}
    assert all(c in roots for c in cands)
    verdict = smc_verify(arr, roots)
    assert verdict.passed
    assert run(["smc", "--example", "veys"]) == 0
    capsys.readouterr()
    report(2, "all veys poles and all 6 candidates lie in the shipped roots; "
              "smc PASS with exit 0")


def test_03_closed_forms():
    z = local_zeta(threelines())
    assert z.numerator.terms == {(1,): F(-1), (0,): F(2)}
    assert z.denominator_factors() == [(AffineForm((1,), 1), 1),
                                       (AffineForm((3,), 2), 1)]
    for a, b in ((1, 1), (2, 3), (5, 1)):
        za = local_zeta(xy_ab(a, b))
        assert za == snc_zeta(xy_ab(a, b))
        assert za.numerator.terms == {(0,): F(1)}
        expect = {}
        for d in (a, b):
            form = AffineForm((d,), 1)
            expect[form] = expect.get(form, 0) + 1
        assert dict(za.denominator) == expect
    zm = multivariate_local_zeta(boolean2_factored())
    assert zm.numerator.terms == {(0, 0): F(1)}
    assert zm.denominator_factors() == [(AffineForm((0, 1), 1), 1),
                                        (AffineForm((1, 0), 1), 1)]
    # the origin of the cross is not dense, so its form never enters the
    # terms; veys's 3s + 1 enters them and cancels
    assert AffineForm((1, 1), 2) not in {f for _, dens in zm.terms for f in dens}
    zv = local_zeta(veys())
    assert AffineForm((3,), 1) in {f for _, dens in zv.terms for f in dens}
    assert AffineForm((3,), 1) not in zv.denominator
    report(3, "threelines, monomial and factored-cross zeta functions match "
              "their closed forms, and veys's 3s + 1 cancels")


def test_04_oracle_equivalence():
    snc_fixtures = [boolean2(), xy_ab(1, 1), xy_ab(2, 3), xy_ab(5, 1), xyz(),
                    xy_in_c3()]
    for arr in snc_fixtures:
        assert local_zeta(arr) == snc_zeta(arr)
    lines = random_lines(907, count=6)
    assert len(lines) >= 5
    for arr in lines:
        assert local_zeta(arr) == rank2_zeta(arr)
    report(4, "flag formula equals the snc oracle on %d fixtures and the "
              "rank-2 oracle on %d random line arrangements"
           % (len(snc_fixtures), len(lines)))


def test_05_pole_confinement():
    fixtures = [threelines(), veys(), boolean2(), xy_ab(3, 4), xyz()]
    randoms = random_central_c3(202, count=10)
    for arr in fixtures + randoms:
        assert poles(local_zeta(arr)).pole_set() <= set(candidate_poles(arr))
    report(5, "poles lie inside the dense-edge candidates on %d fixtures and "
              "%d random central arrangements in C^3"
           % (len(fixtures), len(randoms)))


def test_06_specialization():
    tf = threelines_factored()
    zm = multivariate_local_zeta(tf)
    assert specialize(zm, (1, 1)) == local_zeta(threelines())
    polar = {f for f, _ in poles(zm).multivariate}
    assert polar == {AffineForm((1, 2), 2), AffineForm((1, 0), 1),
                     AffineForm((0, 1), 1)}
    report(6, "specializing the factored threelines zeta at (1,1) recovers "
              "the univariate one; polar locus is exactly the three forms")


def test_07_wall_extension_golden():
    base = WallSet([WallFamily((1, 1), [0])])
    ext = extend_restricted_walls(base)
    assert {f.normal for f in ext} == {(1, 1), (1, 0), (0, 1)}
    assert all(f.offsets == (F(0),) for f in ext)
    assert len(localized_walls(ext, (0, 0))) == 3
    assert len(localized_walls(ext, (F(1, 2), F(1, 2)))) == 1
    report(7, "diagonal wall family extends to the three integer families; "
              "3 walls through the origin, 1 through (1/2,1/2)")


def test_08_wall_chamber_properties():
    sets = [extend_restricted_walls(WallSet([WallFamily((1, 1), [0])])),
            extend_restricted_walls(WallSet([WallFamily((2, 1), [0]),
                                             WallFamily((1, 3), [0])])),
            extend_restricted_walls(nd_wall_set(threelines()))]
    rng = random.Random(7321)
    pairs = 0
    while pairs < 100:
        ws = sets[pairs % len(sets)]
        a = random_rational_point(rng, ws.dim, den=12)
        b = random_rational_point(rng, ws.dim, den=12)
        if a == b:
            continue
        sep = separating_walls(ws, a, b)
        assert sep == separating_walls(ws, b, a)
        m = tuple((x + y) / 2 for x, y in zip(a, b))
        assert sorted(separating_walls(ws, a, m)
                      + separating_walls(ws, m, b)) == sep
        assert sorted(chamber_path(ws, a, b)) == sep
        pairs += 1
    report(8, "separation symmetry, segment additivity and chamber path "
              "crossings agree on 100 random pairs over 3 wall sets")


def test_09_adapted_vectors():
    b_tl = adapted_vector(threelines())
    assert validate_adapted(threelines(), b_tl).passed
    b_v = adapted_vector(veys())
    assert validate_adapted(veys(), b_v).passed
    verdict = validate_adapted(threelines(), (1, F(1, 2), F(1, 2)))
    assert not verdict.passed
    assert any("integral sum at dense hyperplane" in w for w in verdict.witnesses)
    report(9, "produced adapted vectors certify for threelines and veys; "
              "(1,1/2,1/2) is rejected with an integral-sum witness")


def test_10_lct():
    targets = [(veys(), F(1, 4)), (threelines(), F(2, 3)), (xy_ab(2, 3), F(1, 3))]
    for arr, expect in targets:
        assert lct(arr) == expect
        poly = log_canonical_polytope(arr)
        lo, hi = F(0), F(arr.n + 1)
        for _ in range(60):
            mid = (lo + hi) / 2
            if mid > 0 and polytope_member(poly, [mid * m for m in arr.mults]):
                lo = mid
            else:
                hi = mid
        assert lo.limit_denominator(10 ** 6) == expect
    report(10, "lct values 1/4, 2/3, 1/3 match the polytope binary search")


def test_11_filtration_figure_data():
    # generators of the diagonal-image filtration in three drawn regions,
    # each a member inside its chamber and gone across the next wall
    inv = DiagClass(0, 0, 1)
    assert diag_vres_member(inv, (F(1, 2), F(1, 2)))
    assert not diag_vres_member(inv, (1, 1))
    assert diag_s_eigenvalue(inv) == -1
    sq = DiagClass(0, 0, 2)
    assert diag_vres_member(sq, (0, 0))
    assert not diag_vres_member(sq, (F(1, 2), F(1, 2)))
    assert diag_s_eigenvalue(sq) == 0
    t1 = DiagClass(1, 0, 1)
    assert diag_vres_member(t1, (1, 1))
    assert not diag_vres_member(t1, (F(3, 2), F(3, 2)))
    assert diag_s_eigenvalue(t1) == -2
    pairs = [((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2))),
             ((0, 0), (2, 2)),
             ((F(1, 4), F(3, 4)), (F(7, 4), F(9, 4)))]
    for alpha, beta in pairs:
        dying = {cls.level() + 2
                 for cls in (DiagClass(m, n, k)
                             for m, n, k in product(range(11), range(11), range(1, 11)))
                 if diag_vres_member(cls, alpha) and not diag_vres_member(cls, beta)}
        assert sorted(dying) == diag_annihilator(alpha, beta)
    assert diag_annihilator((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2))) == [1, 2]
    report(11, "figure classes reproduce membership and eigenvalues; "
               "brute force over m,n,k <= 10 matches the annihilator")


def test_12_checkable_directions(capsys):
    # the conjecture itself is not decidable here; what ships is the pair of
    # one-sided verdicts, exercised in both outcomes
    deficient = BRootSet([F(-1), F(-1, 2), F(-2, 3), F(-1, 4), F(-1, 3)])
    v = smc_verify(veys(), deficient)
    assert not v.passed
    assert v.data["offenders"] == [F(-2, 7)]
    assert smc_verify(veys(), veys_broots()).passed
    nd = nd_check(veys())
    assert nd.passed and nd.data["is_candidate"] and not nd.data["is_pole"]
    m = multi_nd_check(threelines_factored())
    assert m.passed and m.data["in_polar"]
    assert multi_smc_verify(threelines_factored(),
                            [[1, 2, 2], [1, 0, 1], [0, 1, 1]]).passed
    assert run(["nd", "--example", "veys"]) == 0
    capsys.readouterr()
    report(12, "verdicts fail on deficient roots naming -2/7, pass on the "
               "shipped data, and report candidate/pole status honestly")
