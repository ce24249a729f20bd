"""Zeta functions: flag formula, normalization, poles, closed-form oracles."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrzeta import (Arrangement, ArrangementError, candidate_poles,
                     dense_edges, global_zeta,
                     intersection_lattice, local_zeta,
                     multivariate_global_zeta, multivariate_local_zeta, poles,
                     rank2_zeta, resolution_datum, snc_zeta)
from arrzeta.arrangement import IntersectionLattice
from arrzeta.core import AffineForm, MultiPoly, primitive_normal
from arrzeta.zeta import ZetaFunction

from conftest import (Chain, boolean2, boolean2_factored, braid, chain_terms,
                      enumerate_chains, ninefold, random_central_c3,
                      random_lines, random_rational_point, specialize,
                      threelines, threelines_factored, veys, xy_ab, xy_in_c3,
                      xyz)

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


def _oracle_div_linear(p, form):
    """Long division in the pivot variable, one leading slice per step."""
    m = next(j for j, c in enumerate(form.coeffs) if c)
    fpoly = form.to_poly()
    quot, rem = MultiPoly(p.nvars), p
    while rem.degree_in(m) > 0:
        d = rem.degree_in(m)
        t = MultiPoly(p.nvars, {ex[:m] + (d - 1,) + ex[m + 1:]: c / form.coeffs[m]
                                for ex, c in rem.terms.items() if ex[m] == d})
        quot, rem = quot + t, rem - t * fpoly
    return quot, rem


def _oracle_normalize(nvars, terms):
    """Each merged term expanded against the LCD one MultiPoly product at a
    time, then every LCD factor divided out while it divides."""
    lcd, merged = {}, {}
    for coef, dens in terms:
        if coef == 0:
            continue
        dens = tuple(sorted(dens))
        for f, k in Counter(dens).items():
            lcd[f] = max(lcd.get(f, 0), k)
        merged[dens] = merged.get(dens, F(0)) + coef
    num = MultiPoly(nvars)
    for dens, coef in merged.items():
        part = MultiPoly.constant(nvars, coef)
        counts = Counter(dens)
        for f, k in lcd.items():
            for _ in range(k - counts.get(f, 0)):
                part = part * f.to_poly()
        num = num + part
    if num.is_zero():
        return num, {}
    den = dict(lcd)
    for f in sorted(den):
        while den[f] > 0:
            quot, rem = _oracle_div_linear(num, f)
            if not rem.is_zero():
                break
            num = quot
            den[f] -= 1
        if den[f] == 0:
            del den[f]
    return num, den


@st.composite
def _term_lists(draw):
    nvars = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars).filter(any)
    pool = [AffineForm.canonical(c, k)[0] for c, k in
            draw(st.lists(st.tuples(coeffs, st.integers(0, 4)), min_size=1, max_size=4))]
    # a pivot coefficient other than 1, e.g. 2 s1 + 3 s2 + 1
    pool.append(AffineForm((2,) + (3,) * (nvars - 1), 1))
    coef = st.fractions(min_value=-4, max_value=4, max_denominator=7)
    terms = draw(st.lists(st.tuples(coef, st.lists(st.sampled_from(pool), min_size=1,
                                                   max_size=3)), min_size=1, max_size=6))
    # repeated forms give the LCD powers; a term and its negative merge to zero
    if draw(st.booleans()):
        f = draw(st.sampled_from(pool))
        c = draw(coef)
        terms += [(c, [f, f]), (-c, [f, f])]
    return nvars, terms


@settings(max_examples=80, deadline=None)
@given(_term_lists())
def test_normalize_matches_per_term_expansion(case):
    nvars, terms = case
    z = ZetaFunction(nvars, terms)
    num, den = _oracle_normalize(nvars, terms)
    assert z.numerator == num
    assert z.denominator == den


@pytest.fixture
def mul_count(monkeypatch):
    """Count MultiPoly products (both operand orders)."""
    calls = []
    original = MultiPoly.__mul__

    def counted(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    return calls


def test_multivariate_zeta_makes_no_polynomial_products(mul_count):
    arr = Arrangement(3, ninefold().forms, factors=[(1, 1, 1, 0, 0, 0, 0, 0, 0),
                                                    (0, 0, 0, 1, 1, 1, 0, 0, 0),
                                                    (0, 0, 0, 0, 0, 0, 1, 1, 1)])
    z = multivariate_local_zeta(arr)
    assert z.denominator
    assert mul_count == []


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
# the level walk against the chain-sum oracle

def _ninefold_factored():
    return Arrangement(3, ninefold().forms, factors=[(1, 1, 1, 0, 0, 0, 0, 0, 0),
                                                     (0, 0, 0, 1, 1, 1, 0, 0, 0),
                                                     (0, 0, 0, 0, 0, 0, 1, 1, 1)])


ORACLE_CORPUS = [threelines(), xyz(), veys(), ninefold(), boolean2(), xy_in_c3(),
                 braid(4), braid(5), boolean2_factored(), threelines_factored(),
                 _ninefold_factored()]


def _assert_matches_chain_oracle(arr):
    # equal terms, in order, give equal normalised quotients as well
    assert local_zeta(arr).terms == chain_terms(arr)
    assert global_zeta(arr).terms == chain_terms(arr, use_global=True)
    if arr.factors is not None:
        assert multivariate_local_zeta(arr).terms == chain_terms(arr, multi=True)
        assert (multivariate_global_zeta(arr).terms
                == chain_terms(arr, multi=True, use_global=True))


@pytest.mark.parametrize("arr", ORACLE_CORPUS, ids=[
    "threelines", "xyz", "veys", "ninefold", "boolean2", "xy_in_c3", "braid-A3",
    "braid-A4", "boolean2-factored", "threelines-factored", "ninefold-factored"])
def test_zeta_terms_match_chain_oracle(arr):
    _assert_matches_chain_oracle(arr)


@st.composite
def _central_arrangements(draw):
    """Central arrangements in C^2 to C^4 with multiplicities and a
    factorization.  A non-essential one draws the first n - 1 entries of
    each normal v and sets v_n so that v is orthogonal to a vector u with
    last entry 1: every hyperplane contains the line through u."""
    n = draw(st.integers(2, 4))
    nonessential = draw(st.booleans())
    m = n - 1 if nonessential else n
    vectors = st.lists(st.integers(-2, 2), min_size=m, max_size=m).filter(any)
    rows = draw(st.lists(vectors, min_size=m, max_size=min(n + 2, 5),
                         unique_by=primitive_normal))
    if nonessential:
        u = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        rows = [v + [-sum(a * b for a, b in zip(v, u))] for v in rows]
    k = draw(st.integers(1, 3))
    # each unit of multiplicity goes to one factor
    owners = [draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)) for _ in rows]
    factors = [[cols.count(j) for cols in owners] for j in range(k)]
    return Arrangement(n, rows, mults=[len(cols) for cols in owners], factors=factors)


@settings(max_examples=60, deadline=None)
@given(_central_arrangements())
def test_stratum_euler_is_one_only_at_the_minimal_flat(arr):
    # scaling acts freely on every open stratum but the minimal flat's
    lat = intersection_lattice(arr)
    vmin = lat.minimal_flat()
    assert [lat.stratum_euler(x) for x in lat.flats] == [int(x is vmin) for x in lat.flats]


@settings(max_examples=60, deadline=None)
@given(_central_arrangements())
def test_zeta_terms_match_chain_oracle_random(arr):
    _assert_matches_chain_oracle(arr)


@settings(max_examples=40, deadline=None)
@given(_central_arrangements())
def test_walk_extends_only_nonzero_flags(arr):
    # the walk reads interval_euler(ambient, W_k) once for each flag it
    # reaches, and it reaches exactly the flags from the minimal flat whose
    # running product is nonzero, in the oracle's order
    lat = arr.lattice
    live = [c.flats[-1] for c in enumerate_chains(lat, start=lat.minimal_flat())
            if all(lat.interval_euler(b, a) for a, b in zip(c.flats, c.flats[1:]))]
    reached = []
    original = IntersectionLattice.interval_euler

    def recorded(self, X, Y):
        if X is self.ambient:
            reached.append(Y)
        return original(self, X, Y)

    IntersectionLattice.interval_euler = recorded
    try:
        local_zeta(arr)
    finally:
        IntersectionLattice.interval_euler = original
    assert reached == live


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
