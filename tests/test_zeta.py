"""Zeta functions: flag formula, normalization, poles, closed-form oracles."""

import random
from fractions import Fraction

import pytest

from arrzeta import (Arrangement, ArrangementError, candidate_poles,
                     dense_edges, enumerate_chains, global_zeta,
                     intersection_lattice, local_zeta,
                     multivariate_global_zeta, multivariate_local_zeta, poles,
                     rank2_zeta, resolution_datum, snc_zeta, specialize)
from arrzeta.core import AffineForm
from arrzeta.zeta import Chain, ZetaFunction

from conftest import (boolean2, boolean2_factored, ninefold, random_central_c3,
                      random_lines, random_rational_point, threelines,
                      threelines_factored, veys, xy_ab, xy_in_c3, xyz)

F = Fraction


def _af(coeffs, const):
    return AffineForm(tuple(coeffs), const)


# ---------------------------------------------------------------------------
# resolution data and candidate poles

def test_resolution_data_veys():
    arr = veys()
    lat = intersection_lattice(arr)
    data = {tuple(sorted(i + 1 for i in f.indices)): resolution_datum(arr, f)
            for f in dense_edges(arr, lat)}
    assert {k: (d.N, d.nu) for k, d in data.items()} == {
        (1,): (1, 1), (2,): (1, 1), (3,): (1, 1), (4,): (2, 1), (5,): (4, 1),
        (1, 2, 3): (3, 2), (1, 4, 5): (7, 2), (1, 2, 3, 4, 5): (9, 3)}
    assert all(d.ord is None for d in data.values())
    with pytest.raises(ArrangementError):
        resolution_datum(arr, lat.ambient)


def test_resolution_data_ord():
    arr = threelines_factored()
    lat = intersection_lattice(arr)
    origin = lat.flat([0, 1, 2])
    assert resolution_datum(arr, origin).ord == (1, 2)
    assert resolution_datum(arr, lat.flat([1])).ord == (0, 1)


def test_candidate_poles_veys():
    assert candidate_poles(veys()) == [
        F(-1, 4), F(-2, 7), F(-1, 3), F(-1, 2), F(-2, 3), F(-1)]
    # -2/5 would come from the non-dense flats {2,5} and {3,5}; those are
    # simple crossings, so they contribute no candidate
    assert F(-2, 5) not in candidate_poles(veys())


def test_candidate_poles_multi():
    forms = candidate_poles(threelines_factored(), multi=True)
    assert forms == [_af((0, 1), 1), _af((1, 0), 1), _af((1, 2), 2)]
    with pytest.raises(ArrangementError, match="factorization"):
        candidate_poles(threelines(), multi=True)


# ---------------------------------------------------------------------------
# chains

def test_chain_validation():
    lat = intersection_lattice(threelines())
    o = lat.flat([0, 1, 2])
    h = lat.flat([0])
    Chain([o, h])
    with pytest.raises(ValueError):
        Chain([])
    with pytest.raises(ValueError, match="ambient"):
        Chain([lat.ambient])
    with pytest.raises(ValueError, match="increase"):
        Chain([h, o])
    with pytest.raises(ValueError, match="increase"):
        Chain([h, h])


def test_chain_counts():
    lat2 = intersection_lattice(boolean2())
    assert len(enumerate_chains(lat2)) == 5
    assert len(enumerate_chains(lat2, start=lat2.minimal_flat())) == 3

    lat3 = intersection_lattice(threelines())
    assert len(enumerate_chains(lat3, start=lat3.minimal_flat())) == 4

    latv = intersection_lattice(veys())
    chains = enumerate_chains(latv, start=latv.minimal_flat())
    assert len(chains) == 26
    by_len = {}
    for c in chains:
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert by_len == {1: 1, 2: 11, 3: 14}
    # sorted by length then flat keys, and every chain starts at the origin
    assert [len(c) for c in chains] == sorted(len(c) for c in chains)
    assert all(c.flats[0] is latv.minimal_flat() for c in chains)


# ---------------------------------------------------------------------------
# the rational function container

def test_zeta_container_cancellation():
    f1, f2 = _af((1,), 1), _af((1,), 2)
    z = ZetaFunction(1, [(1, (f1,)), (-1, (f1, f2))])
    # 1/(s+1) - 1/((s+1)(s+2)) = 1/(s+2)
    assert z.numerator.terms == {(0,): F(1)}
    assert z.denominator_factors() == [(f2, 1)]
    assert z.evaluate((F(1),)) == F(1, 3)
    assert z.evaluate_terms((F(1),)) == F(1, 3)


def test_zeta_container_zero():
    f1 = _af((2,), 1)
    z = ZetaFunction(1, [(F(1, 2), (f1,)), (F(-1, 2), (f1,))])
    assert z.is_zero() and z.denominator == {}
    assert ZetaFunction(1, []).is_zero()
    assert z.evaluate((F(5),)) == 0


def test_zeta_container_rejects_improper():
    with pytest.raises(ValueError, match="proper"):
        ZetaFunction(1, [(1, ())])
    f1 = _af((1,), 1)
    with pytest.raises(ValueError, match="proper"):
        # 1/(s+1) + 1 has numerator degree equal to denominator degree
        ZetaFunction(1, [(1, (f1,)), (1, ())])


def test_zeta_container_checks_nvars():
    with pytest.raises(ValueError, match="variables"):
        ZetaFunction(2, [(1, (_af((1,), 1),))])


def test_zeta_equality():
    f1, f2 = _af((1,), 1), _af((1,), 2)
    a = ZetaFunction(1, [(1, (f1,)), (-1, (f1, f2))])
    b = ZetaFunction(1, [(1, (f2,))])
    assert a == b  # same normalized quotient, different raw terms
    assert a != ZetaFunction(1, [(1, (f1,))])


@pytest.mark.parametrize("build", [lambda: local_zeta(veys()),
                                   lambda: multivariate_global_zeta(boolean2_factored())],
                         ids=["veys", "boolean2-factored"])
def test_zeta_merges_equal_denominators(build):
    # halving every raw term leaves pairs with equal denominators; the
    # normalised quotient is unchanged and the raw terms are all kept
    z = build()
    halves = tuple((coef / 2, dens) for coef, dens in z.terms for _ in range(2))
    split = ZetaFunction(z.nvars, halves)
    assert split == z
    assert split.terms == halves


# ---------------------------------------------------------------------------
# local zeta functions, frozen

def test_local_zeta_threelines():
    z = local_zeta(threelines())
    assert z.numerator.terms == {(1,): F(-1), (0,): F(2)}
    assert z.denominator_factors() == [(_af((1,), 1), 1), (_af((3,), 2), 1)]
    rep = poles(z)
    assert rep.univariate == [(F(-2, 3), 1), (F(-1), 1)]
    assert rep.pole_set() == {F(-2, 3), F(-1)}


def test_local_zeta_boolean2():
    z = local_zeta(boolean2())
    assert z.numerator.terms == {(0,): F(1)}
    assert z.denominator_factors() == [(_af((1,), 1), 2)]
    assert poles(z).univariate == [(F(-1), 2)]


def test_local_zeta_monomial():
    z = local_zeta(xy_ab(2, 3))
    assert z.denominator_factors() == [(_af((2,), 1), 1), (_af((3,), 1), 1)]
    assert z.numerator.terms == {(0,): F(1)}


def test_local_zeta_veys_frozen():
    z = local_zeta(veys())
    assert z.numerator.terms == {
        (4,): F(56, 3), (3,): F(-16), (2,): F(-7), (1,): F(12), (0,): F(4)}
    assert z.denominator_factors() == [
        (_af((1,), 1), 1), (_af((2,), 1), 1), (_af((3,), 2), 1),
        (_af((4,), 1), 1), (_af((7,), 2), 1)]
    rep = poles(z)
    assert rep.univariate == [(F(-1, 4), 1), (F(-2, 7), 1), (F(-1, 2), 1),
                              (F(-2, 3), 1), (F(-1), 1)]
    # -1/3 is the origin candidate (9 s + 3, canonically 3 s + 1); the factor
    # sits in every raw term but cancels out of the normalized quotient
    raw = {f for _, dens in z.terms for f in dens}
    assert _af((3,), 1) in raw
    assert F(-1, 3) in candidate_poles(veys())
    assert F(-1, 3) not in rep.pole_set()


def test_local_zeta_nonessential():
    # two coordinate planes in C^3: minimal flat is the z-axis, not the origin
    z = local_zeta(xy_in_c3())
    assert z == snc_zeta(xy_in_c3())
    assert poles(z).univariate == [(F(-1), 2)]


def test_local_zeta_at_point():
    arr = Arrangement(1, [(1, 0), (1, -1)], mults=[1, 2])  # x (x - 1)^2
    z1 = local_zeta(arr, point=(1,))
    assert z1.denominator_factors() == [(_af((2,), 1), 1)]
    z0 = local_zeta(arr, point=(0,))
    assert z0.denominator_factors() == [(_af((1,), 1), 1)]
    z = local_zeta(threelines(), point=(0, 1))
    assert z.denominator_factors() == [(_af((1,), 1), 1)]
    with pytest.raises(ArrangementError):
        local_zeta(arr)  # not central, needs a point


def test_local_zeta_errors():
    with pytest.raises(ArrangementError):
        local_zeta(Arrangement(2, []))


# ---------------------------------------------------------------------------
# global zeta

def test_global_equals_local_on_central():
    for arr in (boolean2(), threelines(), xyz(), veys()):
        assert global_zeta(arr) == local_zeta(arr)


def test_global_term_structure():
    # for a central arrangement every stratum off the minimal flat has
    # vanishing Euler characteristic, so the surviving global terms are
    # exactly the local ones and the empty-flag term drops
    zl = local_zeta(threelines())
    zg = global_zeta(threelines())
    assert zg.terms == zl.terms
    assert all(dens for _, dens in zg.terms)


def test_multivariate_global_equals_local():
    tf = threelines_factored()
    assert multivariate_global_zeta(tf) == multivariate_local_zeta(tf)


# ---------------------------------------------------------------------------
# multivariate zeta

def test_multivariate_threelines_frozen():
    z = multivariate_local_zeta(threelines_factored())
    assert z.nvars == 2
    assert z.numerator.terms == {(1, 1): F(-1), (1, 0): F(1), (0, 0): F(2)}
    assert z.denominator_factors() == [
        (_af((0, 1), 1), 1), (_af((1, 0), 1), 1), (_af((1, 2), 2), 1)]


def test_multivariate_boolean2_cancellation():
    z = multivariate_local_zeta(boolean2_factored())
    # the origin factor s1 + s2 + 2 appears in the raw terms and cancels
    raw = {f for _, dens in z.terms for f in dens}
    assert _af((1, 1), 2) in raw
    assert z.numerator.terms == {(0, 0): F(1)}
    assert z.denominator_factors() == [(_af((0, 1), 1), 1), (_af((1, 0), 1), 1)]
    assert poles(z).multivariate == [(_af((0, 1), 1), 1), (_af((1, 0), 1), 1)]


def test_multivariate_requires_factors():
    with pytest.raises(ArrangementError, match="factorization"):
        multivariate_local_zeta(threelines())


def test_specialize():
    zf = multivariate_local_zeta(boolean2_factored())
    assert specialize(zf, (2, 3)) == local_zeta(xy_ab(2, 3))
    assert specialize(zf, (1, 1)) == local_zeta(boolean2())
    z1 = local_zeta(threelines())
    assert specialize(z1, (1,)) == z1
    with pytest.raises(ValueError):
        specialize(zf, (1,))
    with pytest.raises(ValueError):
        specialize(zf, (0, 1))


def test_specialize_threelines_weights():
    zf = multivariate_local_zeta(threelines_factored())
    zs = specialize(zf, (1, 1))
    assert zs == local_zeta(threelines())


# ---------------------------------------------------------------------------
# closed-form oracles against the flag formula

def test_snc_oracle():
    for arr in (boolean2(), xy_ab(2, 3), xy_ab(1, 5), xyz(),
                Arrangement(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], mults=[2, 3, 4]),
                xy_in_c3()):
        assert local_zeta(arr) == snc_zeta(arr)
    with pytest.raises(ArrangementError, match="independent"):
        snc_zeta(threelines())


def test_snc_oracle_multivariate():
    bf = boolean2_factored()
    assert multivariate_local_zeta(bf) == snc_zeta(bf, multi=True)


def test_rank2_oracle():
    assert local_zeta(threelines()) == rank2_zeta(threelines())
    for arr in random_lines(907, count=6):
        assert local_zeta(arr) == rank2_zeta(arr)
    with pytest.raises(ArrangementError):
        rank2_zeta(boolean2())
    with pytest.raises(ArrangementError):
        rank2_zeta(xyz())


# ---------------------------------------------------------------------------
# pole confinement and evaluation cross-checks

def test_poles_within_candidates():
    fixtures = [threelines(), veys(), xy_ab(3, 4), ninefold()]
    fixtures += random_central_c3(202, count=10)
    for arr in fixtures:
        lat = intersection_lattice(arr)
        cands = set(candidate_poles(arr, lattice=lat))
        z = local_zeta(arr)
        assert poles(z).pole_set() <= cands


def test_evaluate_routes_agree():
    rng = random.Random(515)
    for arr in (threelines(), veys(), ninefold()):
        z = local_zeta(arr)
        hits = 0
        while hits < 20:
            pt = random_rational_point(rng, 1, den=16)
            try:
                direct = z.evaluate(pt)
                summed = z.evaluate_terms(pt)
            except ZeroDivisionError:
                continue
            assert direct == summed
            hits += 1


def test_evaluate_routes_agree_multivariate():
    rng = random.Random(516)
    z = multivariate_local_zeta(threelines_factored())
    hits = 0
    while hits < 20:
        pt = random_rational_point(rng, 2, den=16)
        try:
            direct = z.evaluate(pt)
            summed = z.evaluate_terms(pt)
        except ZeroDivisionError:
            continue
        assert direct == summed
        hits += 1


def test_evaluate_on_polar_locus_raises():
    z = local_zeta(threelines())
    with pytest.raises(ZeroDivisionError):
        z.evaluate((F(-1),))
    with pytest.raises(ZeroDivisionError):
        z.evaluate((F(-2, 3),))
