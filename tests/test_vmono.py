"""Filtration generators and annihilators for the two worked module families."""

import random
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest

from arrzeta import (DiagClass, MonomialConnectionSpec, diag_annihilator,
                     diag_s_eigenvalue, diag_vres_member, diag_walls,
                     ncv_generator, ncv_walls, separating_walls)

from conftest import random_rational_point

F = Fraction


def spec34():
    return MonomialConnectionSpec((0, F(-3, 4)))


# ---------------------------------------------------------------------------
# monomial connections

def test_spec_validation():
    s = spec34()
    assert s.r == 2 and s.beta == (F(0), F(-3, 4))
    with pytest.raises(ValueError):
        MonomialConnectionSpec(())


def test_ncv_generator_golden():
    s = spec34()
    assert ncv_generator(s, (0, 0)) == (-1, 0)
    assert ncv_generator(s, (F(1, 2), F(1, 2))) == (0, 1)
    assert ncv_generator(s, (1, 1)) == (0, 1)
    assert ncv_generator(s, (F(5, 4), 1)) == (1, 1)
    with pytest.raises(ValueError, match="length"):
        ncv_generator(s, (0,))


def test_ncv_walls_golden():
    ws = ncv_walls(spec34())
    by_normal = {f.normal: f.offsets for f in ws}
    assert by_normal == {(1, 0): (F(0),), (0, 1): (F(1, 4),)}
    ws3 = ncv_walls(MonomialConnectionSpec((F(1, 2), F(7, 3), -2)))
    by_normal = {f.normal: f.offsets for f in ws3}
    assert by_normal == {(1, 0, 0): (F(1, 2),),
                         (0, 1, 0): (F(1, 3),),
                         (0, 0, 1): (F(0),)}


def test_ncv_generator_constant_exactly_on_chambers():
    s = MonomialConnectionSpec((F(1, 2), F(-3, 4), F(5, 3)))
    ws = ncv_walls(s)
    rng = random.Random(808)
    for _ in range(60):
        a = random_rational_point(rng, 3, den=12)
        b = random_rational_point(rng, 3, den=12)
        same_gen = ncv_generator(s, a) == ncv_generator(s, b)
        assert same_gen == (not separating_walls(ws, a, b))


def test_ncv_generator_jump_counts():
    # the number of coordinate walls between two parameters equals the jump
    # of the matching generator exponent
    s = spec34()
    ws = ncv_walls(s)
    rng = random.Random(809)
    for _ in range(40):
        a = random_rational_point(rng, 2, den=8)
        b = random_rational_point(rng, 2, den=8)
        ga, gb = ncv_generator(s, a), ncv_generator(s, b)
        seps = separating_walls(ws, a, b)
        for i in range(2):
            normal = tuple(1 if j == i else 0 for j in range(2))
            count = sum(1 for w in seps if w.normal == normal)
            assert count == abs(ga[i] - gb[i])


# ---------------------------------------------------------------------------
# the diagonal direct image

def test_diag_class_basics():
    c = DiagClass(1, 0, 1)
    assert c.level() == 0
    with pytest.raises(ValueError):
        DiagClass(-1, 0, 0)
    with pytest.raises(ValueError):
        DiagClass(0, 0, -2)


def test_diag_membership_golden():
    half = (F(1, 2), F(1, 2))
    assert diag_vres_member(DiagClass(0, 0, 1), half)
    assert not diag_vres_member(DiagClass(0, 0, 1), (1, 1))
    assert diag_vres_member(DiagClass(0, 0, 2), (0, 0))
    assert diag_vres_member(DiagClass(1, 0, 1), (1, 1))
    assert not diag_vres_member(DiagClass(1, 0, 1), (F(3, 2), F(3, 2)))
    # k = 0 classes are always members
    assert diag_vres_member(DiagClass(0, 0, 0), (5, 5))
    assert diag_vres_member(DiagClass(3, 2, 0), (10, 10))


def test_diag_eigenvalues():
    assert diag_s_eigenvalue(DiagClass(0, 0, 1)) == -1
    assert diag_s_eigenvalue(DiagClass(0, 0, 2)) == 0
    assert diag_s_eigenvalue(DiagClass(1, 0, 1)) == -2
    assert diag_s_eigenvalue(DiagClass(1, 1, 0)) == -4


def test_diag_walls():
    ws = diag_walls()
    assert len(ws) == 1
    assert ws.families[0].normal == (1, 1)
    assert ws.families[0].offsets == (F(0),)


def test_diag_annihilator_golden():
    assert diag_annihilator((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2))) == [1, 2]
    assert diag_annihilator((0, 0), (0, 0)) == []
    assert diag_annihilator((0, 0), (F(1, 2), F(1, 2))) == [0]
    assert diag_annihilator((1, 1), (2, 2)) == [2, 3]
    with pytest.raises(ValueError, match="quadrant"):
        diag_annihilator((-1, 0), (0, 0))
    with pytest.raises(ValueError, match="at most"):
        diag_annihilator((2, 2), (1, 1))
    with pytest.raises(ValueError, match="two"):
        diag_annihilator((0, 0, 0), (1, 1, 1))


def test_diag_annihilator_against_brute_force():
    # the classes that are members at alpha but die at beta realize exactly
    # the annihilator levels through their Euler eigenvalues
    pairs = [((F(1, 2), F(1, 2)), (F(3, 2), F(3, 2))),
             ((0, 0), (2, 2)),
             ((1, 1), (1, 1)),
             ((0, F(1, 3)), (F(5, 2), 3)),
             ((F(3, 4), F(1, 4)), (F(3, 4), F(9, 4)))]
    for alpha, beta in pairs:
        dying = set()
        for m, n, k in product(range(11), range(11), range(1, 11)):
            cls = DiagClass(m, n, k)
            if diag_vres_member(cls, alpha) and not diag_vres_member(cls, beta):
                dying.add(cls.level() + 2)
        ann = diag_annihilator(alpha, beta)
        assert sorted(dying) == ann
        assert {-g for g in ann} == {diag_s_eigenvalue(DiagClass(m, n, k))
                                     for m, n, k in product(range(11), range(11), range(1, 11))
                                     if diag_vres_member(DiagClass(m, n, k), alpha)
                                     and not diag_vres_member(DiagClass(m, n, k), beta)}


def test_diag_membership_walls_consistency():
    # membership of a fixed class changes exactly when a diagonal wall at
    # its level + 2 separates the two parameter points
    ws = diag_walls()
    rng = random.Random(811)
    classes = [DiagClass(m, n, k) for m, n, k in product(range(4), range(4), range(1, 4))]
    for _ in range(30):
        a = (F(rng.randint(0, 32), 8), F(rng.randint(0, 32), 8))
        b = (F(rng.randint(0, 32), 8), F(rng.randint(0, 32), 8))
        gammas = {w.gamma for w in separating_walls(ws, a, b)}
        for cls in classes:
            changed = diag_vres_member(cls, a) != diag_vres_member(cls, b)
            assert changed == (cls.level() + 2 in gammas)


def test_diag_extremal_exponents():
    # smallest m with t1^m / (t1 - t2) in the filtration and largest k with
    # 1 / (t1 - t2)^k in it, read off the defining inequality
    samples = [(F(0), F(0)), (F(1, 4), F(1, 4)), (F(1, 2), F(1, 2)),
               (F(1, 2), F(3, 4)), (1, F(1, 3)), (F(5, 4), F(7, 4)),
               (2, F(1, 2))]
    for alpha in samples:
        L = F(alpha[0]) + F(alpha[1])
        members = [m for m in range(12) if diag_vres_member(DiagClass(m, 0, 1), alpha)]
        assert min(members) == max(0, ceil(L - 1))
        ks = [k for k in range(1, 12) if diag_vres_member(DiagClass(0, 0, k), alpha)]
        if L <= 1:
            assert max(ks) == floor(2 - L)
        else:
            assert ks == []
