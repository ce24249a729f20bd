"""Zeta functions: flag formula, normalization, poles, closed-form oracles."""

import gc
import json
import random
from collections import Counter
from itertools import combinations
from math import comb, lcm
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrzeta import (Arrangement, ArrangementError, Flat, candidate_poles,
                     dense_edges, global_zeta, intersection_lattice, lct, local_zeta,
                     multi_nd_check, multi_smc_verify, multivariate_global_zeta,
                     multivariate_local_zeta, nd_check, poles, rank2_zeta,
                     smc_verify, snc_zeta)
from arrzeta.cli import json_form, run, zeta_from_json, zeta_json
import arrzeta.zeta
from arrzeta.examples import veys_broots
from arrzeta.core import (AffineForm, MultiPoly, div_linear, integer_kernel, packed_width,
                          primitive_normal)
from arrzeta.zeta import ZetaFunction

from conftest import (Chain, all_forms_denominator, boolean2, boolean2_factored,
                      braid, braid_local_zeta, chain_terms, enumerate_chains, fraction_flag_sum,
                      long_division, merged_terms, ninefold, random_central_c3,
                      random_lines, random_rational_point, specialize,
                      stratum_euler, thirteen, threelines, threelines_factored,
                      type_b, veys, xy_ab, xy_in_c3, xyz)

F = Fraction


def _af(coeffs, const):
    return AffineForm(tuple(coeffs), const)


# ---------------------------------------------------------------------------
# resolution data of the dense edges and candidate poles

def _dense_edge_data(arr, tmp_path):
    """{indices: entry} from the dense_edges list of analyze --json."""
    edges = json.loads(_cli_stdout(arr, tmp_path, "analyze"))["dense_edges"]
    return {tuple(e.pop("indices")): e for e in edges}


def test_resolution_data_veys(tmp_path):
    data = _dense_edge_data(veys(), tmp_path)
    assert {k: (e["N"], e["nu"]) for k, e in data.items()} == {
        (1,): (1, 1), (2,): (1, 1), (3,): (1, 1), (4,): (2, 1), (5,): (4, 1),
        (1, 2, 3): (3, 2), (1, 4, 5): (7, 2), (1, 2, 3, 4, 5): (9, 3)}
    assert all("ord" not in e for e in data.values())


def test_resolution_data_ord(tmp_path):
    data = _dense_edge_data(threelines_factored(), tmp_path)
    assert data[(1, 2, 3)]["ord"] == [1, 2]
    assert data[(2,)]["ord"] == [0, 1]


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
    for nvars in (1.5, True, F(3, 2)):
        with pytest.raises(ValueError, match="number of variables must be an integer"):
            ZetaFunction(nvars, [])


def test_zeta_container_rejects_non_forms():
    # each factor is checked before the denominator is sorted
    f = _af((1,), 1)
    for dens in ((f, 3), (3, f)):
        with pytest.raises(ValueError, match="does not match"):
            ZetaFunction(1, [(1, dens)])


@pytest.mark.parametrize("bad", [3, "s+1", _af((1, 1), 1)], ids=["int", "str", "two-variables"])
def test_zeta_container_checks_factors_of_later_terms(bad):
    # each distinct factor is checked once, the first time it is met, so a
    # bad one after many good repeats still raises
    f = _af((1,), 1)
    terms = [(1, (f, f))] * 50 + [(1, (f, bad))]
    with pytest.raises(ValueError, match="does not match"):
        ZetaFunction(1, terms)


def test_zeta_container_reads_fresh_factor_objects():
    # factors are told apart by object, and a generator that makes a new
    # form for every term, each free to die after its term, still gives
    # each its own row
    forms = [_af((1,), k) for k in range(1, 40)] + [_af((2,), 2 * k + 1) for k in range(40)]
    expected = ZetaFunction(1, [(k + 1, (f, f)) for k, f in enumerate(forms)])
    fresh = ZetaFunction(1, ((k + 1, (_af(f.coeffs, f.const),) * 2)
                             for k, f in enumerate(forms)))
    assert fresh.terms == expected.terms
    assert fresh == expected


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
    _assert_terms_merge_to_themselves(build())


def _assert_terms_merge_to_themselves(z):
    # terms is the merged sum sorted by denominator, also through the public
    # constructor: halved terms merge back, and reversed ones sort back
    halves = [(coef / 2, dens) for coef, dens in z.terms for _ in range(2)]
    reversed_terms = [(coef, dens[::-1]) for coef, dens in reversed(z.terms)]
    for terms in (halves, reversed_terms):
        again = ZetaFunction(z.nvars, terms)
        assert again.terms == z.terms
        assert again == z


def _times_form(poly, f):
    """The product of a {exponent tuple: coefficient} dict and an affine
    form, as such a dict."""
    out = {}
    for ex, c in poly.items():
        if f.const:
            out[ex] = out.get(ex, 0) + f.const * c
        for j, a in enumerate(f.coeffs):
            if a:
                up = ex[:j] + (ex[j] + 1,) + ex[j + 1:]
                out[up] = out.get(up, 0) + a * c
    return out


def _oracle_normalize(nvars, terms):
    """Each merged term expanded against the LCD on its own: the product of
    its lacked factors, one at a time on an {exponent tuple: int} dict,
    times its coefficient; then every LCD factor divided out while it
    divides."""
    lcd, merged = {}, {}
    for coef, dens in terms:
        if coef == 0:
            continue
        dens = tuple(sorted(dens))
        for f, k in Counter(dens).items():
            lcd[f] = max(lcd.get(f, 0), k)
        merged[dens] = merged.get(dens, F(0)) + coef
    total = {}
    for dens, coef in merged.items():
        part = {(0,) * nvars: 1}
        counts = Counter(dens)
        for f, k in lcd.items():
            for _ in range(k - counts.get(f, 0)):
                part = _times_form(part, f)
        for ex, c in part.items():
            total[ex] = total.get(ex, 0) + coef * c
    num = MultiPoly(nvars, total)
    if num.is_zero():
        return num, {}
    den = dict(lcd)
    for f in sorted(den):
        while den[f] > 0:
            quot, rem = long_division(num, f)
            if not rem.is_zero():
                break
            num = quot
            den[f] -= 1
        if den[f] == 0:
            del den[f]
    return num, den


@st.composite
def _term_lists(draw):
    nvars = draw(st.integers(1, 4))
    coeffs = st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars).filter(any)
    pool = [AffineForm.canonical(c, k)[0] for c, k in
            draw(st.lists(st.tuples(coeffs, st.integers(0, 4)), min_size=1, max_size=4))]
    # a pivot coefficient other than 1, e.g. 2 s1 + 3 s2 + 1
    pool.append(AffineForm((2,) + (3,) * (nvars - 1), 1))
    coef = st.fractions(min_value=-4, max_value=4, max_denominator=7)
    terms = draw(st.lists(st.tuples(coef, st.lists(st.sampled_from(pool), min_size=1,
                                                   max_size=5)), min_size=1, max_size=10))
    # forms repeated up to 3 times give the LCD powers
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.sampled_from(pool))
        rest = draw(st.lists(st.sampled_from(pool), max_size=2))
        terms.append((draw(coef), [f] * draw(st.integers(2, 3)) + rest))
    # a term and its negative merge to zero
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


@st.composite
def _one_variable_sums(draw):
    """The terms of a random sum in one variable with planted exact
    cancellations.  For distinct forms f = N_f s + nu_f and g,
    delta / (f g) = N_g / g - N_f / f with delta = N_g nu_f - N_f nu_g, so
    delta / (f g P) - N_g / (g P) + N_f / (f P) is zero for every product
    P of forms; P repeating f carries f to the power 2 or 3 in the LCD."""
    forms = st.builds(lambda n, nu: AffineForm.canonical((n,), nu)[0],
                      st.integers(-6, 6).filter(bool), st.integers(-6, 6))
    pool = draw(st.lists(forms, min_size=2, max_size=5, unique=True))
    coef = st.fractions(min_value=-4, max_value=4, max_denominator=7)
    terms = draw(st.lists(st.tuples(coef, st.lists(st.sampled_from(pool), min_size=1,
                                                   max_size=3)), max_size=5))
    for _ in range(draw(st.integers(1, 3))):
        f, g = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=2, unique=True))
        rest = [f] * draw(st.integers(0, 2)) + draw(st.lists(st.sampled_from(pool), max_size=2))
        c = draw(coef.filter(bool))
        delta = g.coeffs[0] * f.const - f.coeffs[0] * g.const
        terms += [(c * delta, [f, g] + rest), (-c * g.coeffs[0], [g] + rest),
                  (c * f.coeffs[0], [f] + rest)]
    return terms


@settings(max_examples=100, deadline=None)
@given(_one_variable_sums())
def test_one_variable_poles_match_the_oracle(terms):
    # every one-variable form is decided exactly at its root: a simple
    # form that cancels is ruled out there, and a double or triple one is
    # read from its lower Laurent coefficients
    z = ZetaFunction(1, terms)
    num, den = _oracle_normalize(1, terms)
    assert z.denominator == den
    assert z.numerator == num


@pytest.mark.parametrize("degree", [7, 8])
def test_normalize_at_the_packing_width_boundary(degree, divisions):
    # the packed width grows from 4 to 5 bits per variable between LCD
    # degree 7 and 8; the term with no denominator makes the exponent of s1
    # reach the LCD degree, the largest value its slot must hold
    assert packed_width(degree) == (4 if degree == 7 else 5)
    forms = [_af((1, 0), k) for k in range(1, degree)] + [_af((1, 1), 1)]
    terms = [(F(1), ()), (F(-2, 3), forms), (F(5, 7), forms[:2])]
    ordered = sorted(forms)
    table = arrzeta.zeta._RowTable([f.coeffs + (f.const,) for f in ordered], ordered)
    ranked = {tuple(sorted(map(ordered.index, dens))): int(coef * 21) for coef, dens in terms}
    den = arrzeta.zeta._denominator(table, ranked)
    assert divisions == []
    num = arrzeta.zeta._numerator(2, table, ranked, 21, den)
    assert (num, den) == _oracle_normalize(2, terms)
    assert max(ex[0] for ex in num.terms) == degree
    # no form cancels, so the numerator read divides by none
    assert divisions == []
    with pytest.raises(ValueError, match="proper"):
        ZetaFunction(2, terms)


@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_flag_sum_at_the_packing_width_boundary(n):
    # every flat of the Boolean arrangement has the pole form s + 1, so the
    # one merged term has (s + 1)^n, a multiplicity equal to the rank, in a
    # packed slot that grows from 3 to 4 bits between n = 3 and 4 and from
    # 4 to 5 between n = 7 and 8; the same with one factor row of all ones
    assert packed_width(n) == {3: 3, 4: 4, 7: 4, 8: 5}[n]
    arr = Arrangement(n, [[int(i == j) for j in range(n)] for i in range(n)])
    one_row = Arrangement(n, arr.forms, factors=[[1] * n])
    for z, oracle in ((local_zeta(arr), snc_zeta(arr)),
                      (multivariate_local_zeta(one_row), snc_zeta(one_row, multi=True))):
        assert z == oracle
        assert z.terms == ((1, (_af((1,), 1),) * n),)


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
    assert z.numerator.terms
    assert mul_count == []


@pytest.fixture
def form_monomials(monkeypatch):
    """Count the monomials that zeta passes through _add_times_form; the
    divisions are not counted, as div_linear calls core's copy."""
    count = [0]
    original = arrzeta.zeta._add_times_form

    def counted(out, terms, steps, const):
        count[0] += len(terms)
        return original(out, terms, steps, const)

    monkeypatch.setattr(arrzeta.zeta, "_add_times_form", counted)
    return count


@pytest.mark.parametrize("nvars", [1, 2])
def test_lcd_numerator_shares_products_of_lacked_factors(form_monomials, nvars):
    # sum of 1/(s + k), k <= 199, and of 1/(s1 + k s2 + k), k <= 60: each
    # term lacks every other form, so a product of lacked factors built
    # anew for each term or group of terms costs time cubic in their number
    # (1,333,101 and 593,835 monomials); merging halves takes 58,376 and
    # 83,934
    if nvars == 1:
        terms = [(F(1), [_af((1,), k)]) for k in range(1, 200)]
    else:
        terms = [(F(1), [_af((1, k), k)]) for k in range(1, 61)]
    z = ZetaFunction(nvars, terms)
    assert z.numerator.terms
    assert form_monomials[0] <= 150_000
    point = (F(1, 3), F(2, 7))[:nvars]
    assert z.evaluate(point) == z.evaluate_terms(point)


def test_cancellation_makes_no_fraction(monkeypatch):
    """No Fraction is made inside div_linear while a quotient is cancelled."""
    inside, divided, made = [], [], []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        if inside:
            made.append(args)
        return original(cls, *args, **kwargs)

    def traced(terms, form, width):
        inside.append(form)
        try:
            quot = div_linear(terms, form, width)
        finally:
            inside.pop()
        divided.append(quot is not None)
        return quot

    # veys with hyperplane i in factor i mod 2, whose 2 s1 + s2 + 1 cancels
    z = multivariate_local_zeta(_mod_factors(veys(), 2))
    assert z.denominator
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    monkeypatch.setattr(arrzeta.zeta, "div_linear", traced)
    assert z.numerator.terms
    # a numerator read divides only by the decided cancellations, which all
    # succeed, so the failing branch runs on s1 + 1 against s1 + 2
    assert arrzeta.zeta.div_linear({0: 1, 1: 1}, _af((1, 0, 0), 2), packed_width(1)) is None
    assert True in divided and False in divided
    assert made == []


@pytest.fixture
def divisions(monkeypatch):
    """The (form, whether it divides) pairs of the div_linear calls made,
    in order: by deciding a form that the leading read leaves open, and by
    a numerator read."""
    log = []

    def traced(terms, form, width):
        quot = div_linear(terms, form, width)
        log.append((form, quot is not None))
        return quot

    monkeypatch.setattr(arrzeta.zeta, "div_linear", traced)
    return log


@pytest.mark.parametrize("k, form", [(1, _af((3,), 1)), (2, _af((2, 1), 1))],
                         ids=["veys-one-row", "veys-mod-2"])
def test_multivariate_zeta_tries_only_dividing_forms(divisions, k, form):
    # veys with hyperplane i in factor i mod k: of the 6 (k = 1) and 7
    # (k = 2) LCD forms, one cancels once, the form of veys's -1/3; the
    # numerator read divides once per cancelled power and never fails.  In
    # one variable the exact leading read rules the form out; in two it
    # reads zero at its point, and the decision divides the numerator of
    # the form's carriers by it once
    z = multivariate_local_zeta(_mod_factors(veys(), k))
    assert z.denominator
    assert divisions == ([] if k == 1 else [(form, True)])
    divisions.clear()
    assert z.numerator.terms
    assert divisions == [(form, True)]


def _assert_normalizes_as_oracle(nvars, terms, divisions):
    """The quotient equals the oracle's.  Returns it and the divisions
    made while deciding its poles, which are taken out of the log, so that
    the log keeps the numerator read's."""
    z = ZetaFunction(nvars, terms)
    decided = divisions[:]
    divisions.clear()
    assert (z.numerator, z.denominator) == _oracle_normalize(nvars, terms)
    return z, decided


def test_kept_whole_with_pivot_two_and_negative_entries(divisions):
    # f = 2 s1 - 3 s2 + 1 divides b - 2, b = f + 2, so 1/(f a) - 2/(f a b)
    # is 1/(a b).  On f = 0 the carriers' values read 1/a - 2/(a b) with b
    # = 2: zero only when each term gets c_m to the power of its own number
    # of other factors.  So f is left open and divides its carriers'
    # numerator once; a and b (pivot 2) keep their powers, and the
    # numerator read divides f out once.
    f, a, b = _af((2, -3), 1), _af((1, 1), -1), _af((2, -3), 3)
    z, decided = _assert_normalizes_as_oracle(2, [(F(1), [f, a]), (F(-2), [f, a, b])],
                                              divisions)
    assert z.denominator == {a: 1, b: 1}
    assert decided == [(f, True)]
    assert divisions == [(f, True)]


def test_kept_whole_falls_back_where_a_carrier_form_vanishes(divisions):
    # h = s1 + r + 1 vanishes at the point of f = s1 + s2 + 1 = 0 with s2
    # = r, so the check on f (and on h, at the same point) cannot decide,
    # and each is settled by a failed division of its carriers' numerator;
    # nothing cancels, so the numerator read divides by nothing.  With
    # s1 + 2 for h the check decides every form.
    r = arrzeta.zeta._point(2)[1]
    f, g = _af((1, 1), 1), _af((0, 1), 1)
    for h, opened in ((_af((1, 0), r + 1), True), (_af((1, 0), 2), False)):
        z, decided = _assert_normalizes_as_oracle(2, [(F(1), [f, h]), (F(1), [f, g])],
                                                  divisions)
        assert z.denominator == {f: 1, g: 1, h: 1}
        assert divisions == []
        assert decided == ([(h, False), (f, False)] if opened else [])


@pytest.mark.parametrize("arr", [veys(), braid(5)], ids=["veys", "A4"])
def test_one_variable_poles_build_no_laurent_coefficient(divisions, arr):
    # in one variable the carriers' sum on f = 0 is read exactly: veys's
    # -1/3 and A4's cancelled candidate are simple in the LCD, so reading
    # their sums zero rules them out, and deciding the poles divides nothing
    z = local_zeta(arr)
    assert divisions == []
    assert {f.root() for f in z.denominator} < set(candidate_poles(arr))


def test_kept_whole_leaves_a_double_cancellation_to_the_divisions(divisions):
    # with b = a + f and c = a + 2 f, 1/(f^2 a) - 2/(f^2 b) + 1/(f^2 c) is
    # 2/(a b c): f^2 cancels, so the check on f reads zero, f divides its
    # carriers' numerator twice, and the numerator read divides f out
    # twice; the other forms keep their powers undivided
    f, a, g = _af((1, 1, 1), 1), _af((1, 0, 0), 2), _af((0, 0, 1), 1)
    b, c = _af((2, 1, 1), 3), _af((3, 2, 2), 4)
    z, decided = _assert_normalizes_as_oracle(3, [(F(1), [f, f, a]), (F(-2), [f, f, b]),
                                                  (F(1), [f, f, c]), (F(1, 3), [a, g])],
                                              divisions)
    assert z.denominator == {a: 1, b: 1, c: 1, g: 1}
    assert decided == [(f, True), (f, True)]
    assert divisions == [(f, True), (f, True)]


@pytest.mark.parametrize("nvars, terms, den, decided", [
    # 1/f^2 - 1/(f^2 a) = 1/(f a): f^2 cancels once
    (1, [(F(1), [_af((1,), 1)] * 2), (F(-1), [_af((1,), 1)] * 2 + [_af((1,), 2)])],
     {_af((1,), 1): 1, _af((1,), 2): 1}, [True, False]),
    # 1/f - 1/f^2 + 1/(f^2 a) = 1/a: f^2 cancels twice
    (1, [(F(1), [_af((1,), 1)]), (F(-1), [_af((1,), 1)] * 2),
         (F(1), [_af((1,), 1)] * 2 + [_af((1,), 2)])], {_af((1,), 2): 1}, [True, True]),
    # with f = a + b, 1/(f^2 a) + 1/(f^2 b) + 1/(a b) = (f + 1)/(f a b):
    # f^2 cancels once, and the last term does not carry f
    (2, [(F(1), [_af((1, 1), 1)] * 2 + [_af((1, 0), 2)]),
         (F(1), [_af((1, 1), 1)] * 2 + [_af((0, 1), -1)]),
         (F(1), [_af((0, 1), -1), _af((1, 0), 2)])],
     {_af((1, 1), 1): 1, _af((1, 0), 2): 1, _af((0, 1), -1): 1}, [True, False]),
], ids=["one-variable-once", "one-variable-twice", "two-variables-once"])
def test_double_form_cancels_by_division(monkeypatch, divisions, nvars, terms, den, decided):
    # A_2 along f, the sum on f = 0 of the terms with f^2, is zero, so the
    # leading read leaves f open; in one variable that proves only an order
    # below 2.  The numerator of f's carriers, the terms with f, over their
    # own LCD is divided by f until it fails or f's power 2 is used up, and
    # the numerator read divides f out as often as it cancels.
    built = []
    lcd_numerator = arrzeta.zeta._lcd_numerator

    def traced(table, ranked):
        forms = [AffineForm(row[:-1], row[-1]) for row in table.rows]
        built.append(sorted(tuple(forms[i] for i in dens) for dens in ranked))
        return lcd_numerator(table, ranked)

    monkeypatch.setattr(arrzeta.zeta, "_lcd_numerator", traced)
    f = terms[0][1][0]
    z, decisions = _assert_normalizes_as_oracle(nvars, terms, divisions)
    assert z.denominator == den
    assert decisions == [(f, ok) for ok in decided]
    assert divisions == [(f, True)] * decided.count(True)
    # deciding builds the numerator of f's carriers alone, the read that
    # of every term
    every = sorted(tuple(sorted(dens)) for _, dens in terms)
    assert built == [[dens for dens in every if f in dens], every]


@pytest.mark.parametrize("nvars, terms, den, decided", [
    # with b = a + f and c = b + f, 1/(f^2 a) - 1/(f^2 b) is 1/(f a b), and
    # the carrier -1/(f a c), below f's LCD power 2, cancels the rest of f:
    # the sum is 1/(a b c).  The top carriers alone keep a simple f.
    (2, [(F(1), [_af((1, 1), 1)] * 2 + [_af((1, 0), 2)]),
         (F(-1), [_af((1, 1), 1)] * 2 + [_af((2, 1), 3)]),
         (F(-1), [_af((1, 1), 1), _af((1, 0), 2), _af((3, 2), 4)])],
     {_af((1, 0), 2): 1, _af((2, 1), 3): 1, _af((3, 2), 4): 1}, [True, True]),
    # with b = a + f and c = a + 2 f, the top carriers 1/(f^2 a) -
    # 2/(f^2 b) + 1/(f^2 c) are 2/(a b c), and the carrier 1/(f g) keeps a
    # simple f: the top carriers alone would rule f out
    (3, [(F(1), [_af((1, 1, 1), 1)] * 2 + [_af((1, 0, 0), 2)]),
         (F(-2), [_af((1, 1, 1), 1)] * 2 + [_af((2, 1, 1), 3)]),
         (F(1), [_af((1, 1, 1), 1)] * 2 + [_af((3, 2, 2), 4)]),
         (F(1), [_af((1, 1, 1), 1), _af((0, 0, 1), 1)])],
     {_af((1, 1, 1), 1): 1, _af((1, 0, 0), 2): 1, _af((2, 1, 1), 3): 1, _af((3, 2, 2), 4): 1,
      _af((0, 0, 1), 1): 1}, [True, False]),
], ids=["cancelled-below-the-top", "kept-below-the-top"])
def test_division_reads_the_carriers_below_the_top(divisions, nvars, terms, den, decided):
    # A_2 along f reads zero, so f is left open, and the carrier with f to
    # the power 1 decides its order: the division must take every carrier
    # of f, not only the top ones that the leading read sums
    f = terms[0][1][0]
    z, decisions = _assert_normalizes_as_oracle(nvars, terms, divisions)
    assert z.denominator == den
    assert decisions == [(f, ok) for ok in decided]
    assert z.denominator_factors() == sorted(z.denominator.items())


def test_modular_read_leaves_a_pivot_the_prime_divides_open(divisions):
    # f = P s1 + s2 + 1, P = _PRIME: modulo P the pivot of f is 0, so its
    # leading read proves nothing and f is settled by division.  In
    # 1/(f g) + 1/(f h) f is a simple pole; with g = f + h, 1/(f h) -
    # 1/(f g) is 1/(g h) and f cancels.
    prime = arrzeta.zeta._PRIME
    f, h = _af((prime, 1), 1), _af((1, 0), 1)
    g = _af((prime + 1, 1), 2)
    for terms, cancels in (([(F(1), [f, g]), (F(1), [f, h])], False),
                           ([(F(1), [f, h]), (F(-1), [f, g])], True)):
        z, decided = _assert_normalizes_as_oracle(2, terms, divisions)
        assert (f in z.denominator) is not cancels
        assert decided == [(f, cancels)]
        assert divisions == [(f, True)] * cancels
        divisions.clear()


def test_multivariate_smc_passes_on_a_form_settled_by_division(divisions):
    # veys with hyperplane i in factor i mod 2: the candidate 2 s1 + s2 + 1,
    # the multivariate -1/3, is the one form the leading read leaves open,
    # and dividing its carriers' numerator rules it out of the polar locus
    arr = _mod_factors(veys(), 2)
    form = _af((2, 1), 1)
    candidates = candidate_poles(arr, multi=True)
    assert form in candidates
    verdict = multi_smc_verify(arr, candidates)
    assert verdict.passed
    assert divisions == [(form, True)]
    z = verdict.data["zeta"]
    assert verdict.data["polar"] == sorted(_oracle_normalize(2, z.terms)[1])
    assert form not in verdict.data["polar"]


@pytest.fixture
def no_numerator(monkeypatch):
    """Make every route that builds a numerator raise."""
    def refuse(*args):
        raise AssertionError("a numerator was built")

    monkeypatch.setattr(arrzeta.zeta, "_lcd_numerator", refuse)
    monkeypatch.setattr(arrzeta.zeta, "div_linear", refuse)
    return monkeypatch


def _braid_a4_factored():
    """Braid A4 made essential in C^4 (x_5 = 0), hyperplane i in factor i
    mod 2."""
    forms = []
    for i, j in combinations(range(5), 2):
        v = [0] * 4
        v[i] = 1
        if j < 4:
            v[j] = -1
        forms.append(v)
    return Arrangement(4, forms, factors=[[int(i % 2 == j) for i in range(10)]
                                          for j in range(2)])


@pytest.mark.parametrize("build", [veys, _braid_a4_factored, threelines_factored,
                                   lambda: _ninefold_factored()],
                         ids=["veys", "braid-A4", "threelines-factored", "ninefold-factored"])
def test_verdicts_build_no_numerator(no_numerator, build, tmp_path):
    arr = build()
    roots = candidate_poles(arr)
    zetas = [v.data["zeta"] for v in (nd_check(arr), smc_verify(arr, roots))]
    assert poles(zetas[0]).pole_set() <= set(roots)
    (tmp_path / "roots.json").write_text(json.dumps({"roots": [str(x) for x in roots]}))
    calls = [("nd",), ("smc", "--broots", str(tmp_path / "roots.json"))]
    if arr.factors is not None:
        locus = candidate_poles(arr, multi=True)
        zetas += [v.data["zeta"] for v in (multi_nd_check(arr), multi_smc_verify(arr, locus))]
        (tmp_path / "locus.json").write_text(json.dumps(
            {"zero_locus": [list(f.coeffs) + [f.const] for f in locus]}))
        calls += [("multi-nd",), ("multi-smc", "--zero-locus", str(tmp_path / "locus.json"))]
    for call in calls:
        assert json.loads(_cli_stdout(arr, tmp_path, *call))["passed"]
    no_numerator.undo()
    for z in zetas:
        assert (z.numerator, z.denominator) == _oracle_normalize(z.nvars, z.terms)


# the polar locus of the multivariate zeta of ninefold with hyperplane i
# alone in factor i, as (coefficients, constant, order), from dividing the
# LCD numerator (332,524 monomials) by every form while it divides
NINEFOLD_9_POLAR = [
    ((0, 0, 0, 0, 0, 0, 0, 0, 1), 1, 1), ((0, 0, 0, 0, 0, 0, 0, 1, 0), 1, 1),
    ((0, 0, 0, 0, 0, 0, 1, 0, 0), 1, 1), ((0, 0, 0, 0, 0, 1, 0, 0, 0), 1, 1),
    ((0, 0, 0, 0, 1, 0, 0, 0, 0), 1, 1), ((0, 0, 0, 1, 0, 0, 0, 0, 0), 1, 1),
    ((0, 0, 1, 0, 0, 0, 0, 0, 0), 1, 1), ((0, 0, 1, 0, 0, 0, 1, 0, 1), 2, 1),
    ((0, 0, 1, 0, 1, 1, 0, 0, 0), 2, 1), ((0, 0, 1, 1, 0, 0, 0, 1, 0), 2, 1),
    ((0, 1, 0, 0, 0, 0, 0, 0, 0), 1, 1), ((0, 1, 0, 0, 1, 0, 1, 1, 0), 2, 1),
    ((0, 1, 0, 1, 0, 1, 0, 0, 0), 2, 1), ((1, 0, 0, 0, 0, 0, 0, 0, 0), 1, 1),
    ((1, 0, 0, 0, 0, 1, 1, 0, 0), 2, 1), ((1, 0, 0, 1, 1, 0, 0, 0, 1), 2, 1),
    ((1, 1, 1, 0, 0, 0, 0, 0, 0), 2, 1), ((1, 1, 1, 1, 1, 1, 1, 1, 1), 3, 1)]


def test_multivariate_verdicts_at_the_frontier(no_numerator):
    # ninefold with hyperplane i alone in factor i: 9 variables, 56 merged
    # terms over an LCD of 24 forms, 6 of which cancel
    arr = Arrangement(3, ninefold().forms, factors=[[int(i == j) for i in range(9)]
                                                    for j in range(9)])
    polar = [(f.coeffs, f.const, k) for f, k in
             multi_nd_check(arr).data["zeta"].denominator_factors()]
    assert polar == NINEFOLD_9_POLAR
    forms = [AffineForm(coeffs, const) for coeffs, const, _ in NINEFOLD_9_POLAR]
    assert multi_smc_verify(arr, forms).passed
    assert not multi_smc_verify(arr, forms[1:]).passed


def test_normalize_leaves_no_cyclic_garbage():
    """Deciding the poles and reading the numerator create no reference
    cycles: every object they make is freed by reference counting alone."""
    arrs = [(local_zeta, veys()), (local_zeta, braid(5)),
            (multivariate_local_zeta, _ninefold_factored())]
    for _, arr in arrs:
        arr.lattice
    gc.collect()
    gc.disable()
    try:
        zetas = [zeta(arr) for zeta, arr in arrs]
        assert all(z.numerator.terms for z in zetas)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(z.denominator for z in zetas)


def test_multivariate_zeta_at_the_frontier():
    # ninefold with hyperplane i in factor i mod 5
    arr = Arrangement(3, ninefold().forms,
                      factors=[[int(i % 5 == j) for i in range(9)] for j in range(5)])
    z = multivariate_local_zeta(arr)
    assert len(z.numerator.terms) == 3967
    for point in ((F(1, 3), F(2), F(-5, 7), F(3, 2), F(1, 11)),
                  (F(-1, 5), F(7, 4), F(2, 9), F(-3), F(5, 6))):
        assert z.evaluate(point) == z.evaluate_terms(point)


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
    # sits in every term but cancels out of the normalized quotient
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
# the merged flag sum against the chain-sum oracle

def _ninefold_factored():
    return Arrangement(3, ninefold().forms, factors=[(1, 1, 1, 0, 0, 0, 0, 0, 0),
                                                     (0, 0, 0, 1, 1, 1, 0, 0, 0),
                                                     (0, 0, 0, 0, 0, 0, 1, 1, 1)])


ORACLE_CORPUS = [threelines(), xyz(), veys(), ninefold(), boolean2(), xy_in_c3(),
                 braid(4), braid(5), boolean2_factored(), threelines_factored(),
                 _ninefold_factored()]


def _assert_same_function(z, terms):
    # z is the function of the oracle's terms: the same reduced quotient
    # through the public constructor, and the same value summed term by
    # term and read off the quotient at rational points off the poles
    oracle = ZetaFunction(z.nvars, terms)
    assert z == oracle
    rng = random.Random(len(terms))
    hits = 0
    while hits < 3:
        pt = random_rational_point(rng, z.nvars, den=16)
        try:
            assert z.evaluate_terms(pt) == oracle.evaluate_terms(pt) == z.evaluate(pt)
        except ZeroDivisionError:
            continue
        hits += 1


def _assert_terms_are_candidates(z, arr, multi):
    # every form of the sum is the pole form of a dense edge
    forms = {f for _, dens in z.terms for f in dens}
    if multi:
        assert forms <= set(candidate_poles(arr, multi=True))
    else:
        assert {f.root() for f in forms} <= set(candidate_poles(arr))


def _assert_matches_fraction_flag_sum(z, arr, multi):
    # the integer sum over the dense edges is the function of the Fraction
    # recursion over every flat
    _assert_same_function(z, fraction_flag_sum(arr, multi))
    _assert_terms_are_candidates(z, arr, multi)


def _assert_matches_chain_oracle(arr):
    # the merged terms sum to the function of the oracle's chain terms
    cases = [(local_zeta, {}), (global_zeta, {"use_global": True})]
    if arr.factors is not None:
        cases += [(multivariate_local_zeta, {"multi": True}),
                  (multivariate_global_zeta, {"multi": True, "use_global": True})]
    zetas = {}
    for zeta, options in cases:
        zetas[zeta] = zeta(arr)
        _assert_same_function(zetas[zeta], chain_terms(arr, **options))
    _assert_matches_fraction_flag_sum(zetas[local_zeta], arr, False)
    if arr.factors is not None:
        _assert_matches_fraction_flag_sum(zetas[multivariate_local_zeta], arr, True)
    # the univariate zeta is the zeta of the one-row factorization
    z = zetas[local_zeta]
    one_row = Arrangement(arr.n, arr.forms, arr.mults, factors=[arr.mults])
    z1 = multivariate_local_zeta(one_row)
    assert (z1.terms, z1.numerator, z1.denominator) == (z.terms, z.numerator, z.denominator)
    cands = candidate_poles(arr)
    assert sorted((f.root() for f in candidate_poles(one_row, multi=True)),
                  reverse=True) == cands
    # every pole is a candidate, in one variable and in several (the polar
    # forms; a one-row factorization reports its poles as roots)
    assert poles(z).pole_set() <= set(cands)
    if arr.factors is not None:
        assert set(zetas[multivariate_local_zeta].denominator) <= set(
            candidate_poles(arr, multi=True))


@pytest.mark.parametrize("arr", ORACLE_CORPUS, ids=[
    "threelines", "xyz", "veys", "ninefold", "boolean2", "xy_in_c3", "braid-A3",
    "braid-A4", "boolean2-factored", "threelines-factored", "ninefold-factored"])
def test_zeta_terms_match_chain_oracle(arr):
    _assert_matches_chain_oracle(arr)


@pytest.mark.parametrize("arr, first", [(braid(6), {0}), (braid(7), {0}), (type_b(5), {0}),
                                        (braid(5), {0, 7})],
                         ids=["A5", "A6", "B5", "A4-in-C5"])
def test_flag_sum_matches_fraction_recursion_beyond_chains(arr, first):
    # one variable, and two factors: the hyperplanes in first and the rest
    _assert_matches_fraction_flag_sum(local_zeta(arr), arr, False)
    split = Arrangement(arr.n, arr.forms, factors=[[int(i in first) for i in range(arr.r)],
                                                   [int(i not in first) for i in range(arr.r)]])
    z = multivariate_local_zeta(split)
    _assert_matches_fraction_flag_sum(z, split, True)
    if len(first) > 1:
        # braid A4 as given in C^5 is not essential, so its minimal flat is
        # not the origin; x1 - x2 and x3 - x4 (hyperplanes 1 and 8) span a
        # flat that is not dense, whose sum is the product of theirs, so
        # their shared pole form s1 + 1 repeats in a term
        assert arr.lattice.minimal_flat().codim < arr.n
        assert any(len(set(dens)) < len(dens) for _, dens in z.terms)


def test_flag_sum_matches_flag_route_braid_a5():
    # braid A5: the 5,687 flags of the maximal model merge into 46
    # distinct denominators, and the sum over the dense edges has 28
    oracle = chain_terms(braid(6))
    assert len(oracle) == 5687
    assert len(merged_terms(oracle)) == 46
    z = local_zeta(braid(6))
    assert len(z.terms) == 28
    _assert_same_function(z, oracle)


def _permuted(arr, rng):
    order = list(range(arr.r))
    rng.shuffle(order)
    factors = None
    if arr.factors is not None:
        factors = [[row[i] for i in order] for row in arr.factors]
    return Arrangement(arr.n, [arr.forms[i] for i in order],
                       mults=[arr.mults[i] for i in order], factors=factors, name=arr.name)


def _cli_stdout(arr, tmp_path, command, *flags):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({
        "n": arr.n, "forms": [[int(e) for e in f] for f in arr.forms],
        "mults": list(arr.mults), "factors": arr.factors, "name": arr.name}))
    out = StringIO()
    with redirect_stdout(out):
        assert run([command, str(path), "--json", *flags]) == 0
    return out.getvalue()


@pytest.mark.parametrize("arr, multi", [(veys(), False), (ninefold(), False),
                                        (braid(5), False), (threelines_factored(), True)],
                         ids=["veys", "ninefold", "braid-A4", "threelines-factored"])
def test_terms_do_not_depend_on_hyperplane_order(arr, multi, tmp_path):
    zeta = multivariate_local_zeta if multi else local_zeta
    flags = ["--multi"] * multi
    terms, stdout = zeta(arr).terms, _cli_stdout(arr, tmp_path, "zeta", *flags)
    rng = random.Random(1301)
    for _ in range(3):
        other = _permuted(arr, rng)
        assert zeta(other).terms == terms
        assert _cli_stdout(other, tmp_path, "zeta", *flags) == stdout


@st.composite
def _central_arrangements(draw, cap=6):
    """Central arrangements in C^2 to C^4 with multiplicities and a
    factorization, at most n + cap - 4 and at most cap planes.  A
    non-essential one draws the first n - 1 entries of each normal v and
    sets v_n so that v is orthogonal to a vector u with last entry 1: every
    hyperplane contains the line through u."""
    n = draw(st.integers(2, 4))
    nonessential = draw(st.booleans())
    m = n - 1 if nonessential else n
    vectors = st.lists(st.integers(-2, 2), min_size=m, max_size=m).filter(any)
    rows = draw(st.lists(vectors, min_size=m, max_size=min(n + cap - 4, cap),
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
    weight = stratum_euler(arr)
    assert [weight[x.indices] for x in lat.flats] == [int(x is vmin) for x in lat.flats]


@settings(max_examples=60, deadline=None)
@given(_central_arrangements())
def test_zeta_terms_match_chain_oracle_random(arr):
    _assert_matches_chain_oracle(arr)


def _divides(form, poly):
    """Whether the affine form divides the MultiPoly (core.div_linear on
    an integer multiple of it)."""
    width = packed_width(max(sum(ex) for ex in poly.terms))
    q = lcm(*(c.denominator for c in poly.terms.values()))
    packed = {sum(e << width * j for j, e in enumerate(ex)): int(c * q)
              for ex, c in poly.terms.items()}
    return div_linear(packed, form, width) is not None


@settings(max_examples=60, deadline=None)
@given(_central_arrangements(cap=8))
def test_pole_orders_match_division_oracle_random(arr):
    # the poles decided on each form's hyperplane, checked both ways on
    # every draw: the numerator read divides each form out as often as it
    # was decided to cancel, or raises, and no pole form divides what is
    # left.  The division oracle expands every term over the whole LCD on
    # its own, so it runs where the LCD has at most 2,000 monomials: some
    # draws in C^4 with three factors have an LCD of degree 42 (14,190
    # monomials), where it takes over a minute.
    for z in (local_zeta(arr), multivariate_local_zeta(arr)):
        assert not any(_divides(f, z.numerator) for f in z.denominator)
        lcd = {}
        for _, dens in z.terms:
            for f, k in Counter(dens).items():
                lcd[f] = max(lcd.get(f, 0), k)
        if comb(sum(lcd.values()) + z.nvars, z.nvars) <= 2000:
            assert z.denominator == _oracle_normalize(z.nvars, z.terms)[1]


# ---------------------------------------------------------------------------
# a sum over the dense edges alone

def _mod_factors(arr, k):
    """arr with hyperplane i, its whole multiplicity, in factor i mod k."""
    return Arrangement(arr.n, arr.forms, arr.mults,
                       factors=[[m * (i % k == j) for i, m in enumerate(arr.mults)]
                                for j in range(k)])


DENSE_CORPUS = [veys(), threelines(), ninefold(), thirteen(), braid(4), braid(5), braid(6),
                type_b(3), type_b(4)]
DENSE_IDS = ["veys", "threelines", "ninefold", "thirteen", "A3", "A4", "A5", "B3", "B4"]


def _assert_dense_decision_matches_every_form(arr):
    # the denominator of the sum over the dense edges is the one decided
    # on every form of the sum over all flats, and each form of the sum
    # and of its denominator is a candidate
    cases = [(arr, False)]
    if arr.factors is not None:
        cases.append((arr, True))
    for case, multi in cases:
        z = (multivariate_local_zeta if multi else local_zeta)(case)
        assert z.denominator == all_forms_denominator(case, multi)
        # the denominator is kept in sorted order, which denominator_factors returns
        assert z.denominator_factors() == sorted(z.denominator.items())
        _assert_terms_are_candidates(z, case, multi)
        _assert_terms_merge_to_themselves(z)
        if multi:
            assert set(z.denominator) <= set(candidate_poles(case, multi=True))
        else:
            assert {f.root() for f in z.denominator} <= set(candidate_poles(case))


@pytest.mark.parametrize("arr", DENSE_CORPUS, ids=DENSE_IDS)
def test_dense_decision_matches_every_form(arr):
    _assert_dense_decision_matches_every_form(arr)
    for k in (2, 3):
        _assert_dense_decision_matches_every_form(_mod_factors(arr, k))


@settings(max_examples=60, deadline=None)
@given(_central_arrangements())
def test_dense_decision_matches_every_form_random(arr):
    _assert_dense_decision_matches_every_form(arr)


@pytest.mark.parametrize("arr", [braid(6), _mod_factors(braid(6), 2), _mod_factors(type_b(4), 3)],
                         ids=["A5", "A5-mod-2", "B4-mod-3"])
def test_flag_sum_decides_exactly_the_candidate_forms(monkeypatch, arr):
    # _denominator decides every form of the sum it is handed, and the
    # flag sum hands it the integer rows of the candidate poles and of no
    # other form
    seen = []

    def traced(table, ranked):
        rows = table.rows
        seen.append((rows, {rows[i] for dens in ranked for i in dens}))
        return original(table, ranked)

    original = arrzeta.zeta._denominator
    monkeypatch.setattr(arrzeta.zeta, "_denominator", traced)
    multi = arr.factors is not None
    z = (multivariate_local_zeta if multi else local_zeta)(arr)
    [(rows, used)] = seen
    assert used == set(rows)
    # the pole table is kept with the lattice, but each zeta call still sums
    # and decides: one _denominator call per call, none memoized
    again = (multivariate_local_zeta if multi else local_zeta)(arr)
    assert again is not z and again == z
    assert seen == [(rows, used), (rows, used)]
    forms = [_af(row[:-1], row[-1]) for row in rows]
    assert set(forms) == {f for _, dens in z.terms for f in dens}
    if multi:
        assert forms == candidate_poles(arr, multi=True)
    else:
        assert sorted((f.root() for f in forms), reverse=True) == candidate_poles(arr)


def _count_pole_tables(monkeypatch):
    """The factor rows of every zeta._PoleTable built from now on."""
    built = []
    real = arrzeta.zeta._PoleTable

    def counting(lattice, factor_rows):
        built.append(factor_rows)
        return real(lattice, factor_rows)

    monkeypatch.setattr(arrzeta.zeta, "_PoleTable", counting)
    return built


def test_pole_table_built_once_per_lattice_and_factor_rows(monkeypatch):
    built = _count_pole_tables(monkeypatch)
    arr = veys()
    z = local_zeta(arr)
    global_zeta(arr)
    cands = candidate_poles(arr)
    lct(arr)
    nd_check(arr)
    smc_verify(arr, veys_broots())
    assert built == [(arr.mults,)]
    assert local_zeta(arr) == z and candidate_poles(arr) == cands
    # the multivariate routes of a factored arrangement build its one table
    factored = _mod_factors(ninefold(), 3)
    mz = multivariate_local_zeta(factored)
    multivariate_global_zeta(factored)
    forms = candidate_poles(factored, multi=True)
    multi_nd_check(factored)
    multi_smc_verify(factored, forms)
    assert built == [(arr.mults,), factored.factors]
    assert list(factored.lattice.pole_tables) == [factored.factors]
    assert multivariate_local_zeta(factored) == mz
    # a lattice passed in gets a table of its own, with the same candidates
    lattice = intersection_lattice(arr)
    assert candidate_poles(arr, lattice=lattice) == cands
    assert built == [(arr.mults,), factored.factors, (arr.mults,)]
    assert list(lattice.pole_tables) == [(arr.mults,)]


def test_one_row_factorization_shares_the_univariate_table(monkeypatch):
    built = _count_pole_tables(monkeypatch)
    arr = _mod_factors(veys(), 1)
    assert arr.factors == (arr.mults,)
    z = local_zeta(arr)
    mz = multivariate_local_zeta(arr)
    assert built == [(arr.mults,)]
    assert [(f.root(), k) for f, k in mz.denominator_factors()] == \
        [(f.root(), k) for f, k in z.denominator_factors()]
    assert sorted((form.root() for form in candidate_poles(arr, multi=True)),
                  reverse=True) == candidate_poles(arr)


@pytest.mark.parametrize("multi", [False, True], ids=["univariate", "multivariate"])
def test_candidate_poles_returns_a_new_list(multi):
    # a caller that changes a result changes neither the lattice's pole
    # table nor any later candidate list, lct, flag sum or zeta
    arr = _mod_factors(veys(), 2)
    zeta = multivariate_local_zeta if multi else local_zeta
    expected, threshold, terms = candidate_poles(arr, multi=multi), lct(arr), zeta(arr).terms
    got = candidate_poles(arr, multi=multi)
    assert got == expected and got is not expected
    got.append(got[0])
    got.sort()
    got.clear()
    arrzeta.zeta._flag_sum(arr, multi)[0].clear()
    assert candidate_poles(arr, multi=multi) == expected
    assert lct(arr) == threshold
    assert zeta(arr).terms == terms


def _fresh(arr):
    """A copy of arr with a lattice, and so row tables, of its own."""
    return Arrangement(arr.n, arr.forms, arr.mults, factors=arr.factors)


def _assert_later_zetas_decide_as_a_fresh_lattice(arr):
    # the row table keeps each form's read values from its first decision
    # on; every later zeta of the lattice, univariate and multivariate in
    # turn, decides exactly the poles that a fresh lattice decides
    zetas = [local_zeta, global_zeta]
    if arr.factors is not None:
        zetas += [multivariate_local_zeta, multivariate_global_zeta]
    for _ in range(3):
        for zeta in zetas:
            got, want = zeta(arr).denominator, zeta(_fresh(arr)).denominator
            assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("arr", DENSE_CORPUS, ids=DENSE_IDS)
def test_later_zetas_decide_as_a_fresh_lattice(arr):
    _assert_later_zetas_decide_as_a_fresh_lattice(arr)
    for k in (2, 3):
        _assert_later_zetas_decide_as_a_fresh_lattice(_mod_factors(arr, k))


@settings(max_examples=40, deadline=None)
@given(_central_arrangements())
def test_later_zetas_decide_as_a_fresh_lattice_random(arr):
    _assert_later_zetas_decide_as_a_fresh_lattice(arr)


def test_results_report_the_row_tables_forms():
    # a flag sum's denominator keys and term factors are its pole table's
    # AffineForm objects, on every call
    arr = _mod_factors(veys(), 2)
    for multi, zeta in ((False, local_zeta), (True, multivariate_local_zeta)):
        ids = {id(f) for f in arrzeta.zeta._pole_table(arr, arr.lattice, multi).forms}
        for z in (zeta(arr), zeta(arr)):
            assert {id(f) for f in z.denominator} <= ids
            assert {id(f) for _, dens in z.terms for f in dens} == ids
    # ZetaFunction(nvars, terms) reports the objects it was given: of two
    # equal ones, the first
    f, g, h = _af((1, 0), 1), _af((0, 1), 1), _af((1, 1), 2)
    twin = _af((1, 0), 1)
    z = ZetaFunction(2, [(F(1), [f, g]), (F(1, 2), [twin, h]), (F(3), [h])])
    assert twin == f and twin is not f
    made = [x for _, dens in z.terms for x in dens] + list(z.denominator)
    assert {id(x) for x in made} == {id(f), id(g), id(h)}


def test_changing_a_denominator_dict_changes_no_other():
    arr = _mod_factors(veys(), 2)
    for multi, zeta in ((False, local_zeta), (True, multivariate_local_zeta)):
        table = arrzeta.zeta._pole_table(arr, arr.lattice, multi)
        forms, rows = list(table.forms), table.rows
        one, other = zeta(arr), zeta(arr)
        assert one.denominator is not other.denominator
        want = dict(other.denominator)
        one.denominator[next(iter(one.denominator))] += 5
        one.denominator.clear()
        assert other.denominator == want and zeta(arr).denominator == want
        assert table.forms == forms and table.rows is rows
        assert zeta(_fresh(arr)).denominator == want
    terms = local_zeta(veys()).terms
    one, other = ZetaFunction(1, terms), ZetaFunction(1, terms)
    want = dict(other.denominator)
    one.denominator.popitem()
    assert other.denominator == want == ZetaFunction(1, terms).denominator


@pytest.mark.parametrize("arr", [_mod_factors(braid(5), 2), _mod_factors(braid(6), 3)],
                         ids=["A4-mod-2", "A5-mod-3"])
def test_terms_read_back_decide_only_candidate_forms(monkeypatch, arr):
    # zeta_from_json has no lattice and decides every form of the terms it
    # reads, and those are candidate forms only: 9 and 25 here, where the
    # sum over every flat has 14 and 60
    z = multivariate_local_zeta(arr)
    data = json.loads(json.dumps(zeta_json(z), default=json_form))
    seen = []

    def traced(table, ranked):
        seen.append(list(table.rows))
        return original(table, ranked)

    original = arrzeta.zeta._denominator
    monkeypatch.setattr(arrzeta.zeta, "_denominator", traced)
    again = zeta_from_json(data)
    [rows] = seen
    assert rows == [f.coeffs + (f.const,) for f in candidate_poles(arr, multi=True)]
    assert again.denominator == z.denominator


@pytest.mark.parametrize("arr", [braid(5), _mod_factors(thirteen(), 3), veys()],
                         ids=["A4", "thirteen-mod-3", "veys"])
def test_unchecked_constructors_see_canonical_data(monkeypatch, arr):
    multi = arr.factors is not None
    z = (multivariate_local_zeta if multi else local_zeta)(arr)
    made = [f for _, dens in z.terms for f in dens] + list(z.denominator)
    made += candidate_poles(arr, multi=True) if multi else []
    for f in made:
        assert type(f.coeffs) is tuple and all(type(c) is int for c in f.coeffs)
        assert type(f.const) is int
        assert AffineForm(f.coeffs, f.const)._key() == f._key()
    for f in arr.lattice.flats:
        assert vars(f).keys() == {"indices", "codim"}
        checked = Flat(f.indices, f.codim)
        assert (checked.indices, checked.codim) == (f.indices, f.codim)
        assert type(f.indices) is frozenset and all(type(i) is int for i in f.indices)
        assert type(f.codim) is int

    # with the lattice built, the zeta and candidate routes make every
    # form and flat unchecked
    def refuse(self, *args):
        raise AssertionError("checked constructor called")

    monkeypatch.setattr(AffineForm, "__init__", refuse)
    monkeypatch.setattr(Flat, "__init__", refuse)
    local_zeta(arr).terms
    candidate_poles(arr)
    if multi:
        multivariate_local_zeta(arr).terms
        candidate_poles(arr, multi=True)


@pytest.mark.parametrize("arr", [veys(), braid(5), _mod_factors(thirteen(), 3),
                                 _mod_factors(type_b(4), 3)],
                         ids=["veys", "A4", "thirteen-mod-3", "B4-mod-3"])
def test_zeta_routes_hash_no_flat(monkeypatch, arr):
    # with the lattice built, the flag sum, the pole decision, the
    # candidates and the dense edges read every flat by lattice position
    arr.lattice

    def refuse(self):
        raise AssertionError("a flat was hashed")

    monkeypatch.setattr(Flat, "__hash__", refuse)
    with pytest.raises(AssertionError, match="hashed"):
        hash(arr.lattice.ambient)
    local_zeta(arr)
    global_zeta(arr)
    candidate_poles(arr)
    dense_edges(arr)
    if arr.factors is not None:
        multivariate_local_zeta(arr)
        candidate_poles(arr, multi=True)


def _connected_by_ranks(normals, n):
    """Whether the matroid of the normals is connected, from integer_kernel
    ranks alone.  With B a basis, each other element e is joined to the b
    in B whose swap for e leaves a basis, the rest of e's fundamental
    circuit.  A circuit lies in one component, so a split of the matroid
    splits this graph; and if a union E_1 of the graph's components misses
    some element, every e in E_1 lies in the span of E_1's part of B, so
    the ranks of E_1 and of the rest add up to the rank of all."""
    def rank(rows):
        return n - len(integer_kernel(rows, n)[0])

    basis = []
    for i, v in enumerate(normals):
        if rank([normals[j] for j in basis] + [v]) > len(basis):
            basis.append(i)
    edges = [(e, b) for e in range(len(normals)) if e not in basis for b in basis
             if rank([normals[j] for j in basis if j != b] + [normals[e]]) == len(basis)]
    seen = {0}
    while True:
        grown = seen | {x for edge in edges if seen & set(edge) for x in edge}
        if grown == seen:
            return len(seen) == len(normals)
        seen = grown


def _assert_lattice_records_dense_and_splits(arr):
    lat, n = intersection_lattice(arr), arr.n
    flats = lat.flats

    def normals(indices):
        return [arr.normals[i] for i in sorted(indices)]

    def rank(indices):
        return n - len(integer_kernel(normals(indices), n)[0])

    assert lat.dense == tuple(k for k in range(1, len(flats)) if lat.is_dense(flats[k]))
    assert sorted(lat.splits) == [k for k in range(1, len(flats)) if k not in lat.dense]
    for k in lat.dense:
        assert _connected_by_ranks(normals(flats[k].indices), n)
    for k, (y, g) in lat.splits.items():
        x, head, rest = flats[k], flats[y], flats[g]
        assert y == next(iter(lat.euler[k]))
        assert head.indices and rest.indices and not head.indices & rest.indices
        assert head.indices | rest.indices == x.indices
        assert head.codim + rest.codim == x.codim
        # additive ranks split x's localization, so x is not dense
        assert rank(head.indices) + rank(rest.indices) == rank(x.indices) == x.codim
        assert g in lat.dense and _connected_by_ranks(normals(rest.indices), n)


@pytest.mark.parametrize("arr", DENSE_CORPUS + [Arrangement(3, [(1, k, k * k) for k in range(1, 9)])],
                         ids=DENSE_IDS + ["vandermonde-8"])
def test_lattice_records_dense_and_splits(arr):
    _assert_lattice_records_dense_and_splits(arr)


@settings(max_examples=60, deadline=None)
@given(_central_arrangements())
def test_lattice_records_dense_and_splits_random(arr):
    _assert_lattice_records_dense_and_splits(arr)


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
    # the origin is not dense, so its sum is the product of the lines':
    # the origin's form s1 + s2 + 2, which the sum over every flat has and
    # cancels, never enters the terms, and the function is unchanged
    every_flat = fraction_flag_sum(boolean2_factored(), True)
    assert _af((1, 1), 2) in {f for _, dens in every_flat for f in dens}
    assert _af((1, 1), 2) not in {f for _, dens in z.terms for f in dens}
    assert z == ZetaFunction(2, every_flat)
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


def test_oracles_reject_affine_and_empty_input():
    affine = Arrangement(2, [(1, 0, 1), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(ArrangementError, match="snc oracle needs a central"):
        snc_zeta(affine)
    with pytest.raises(ArrangementError, match="at least one hyperplane"):
        snc_zeta(Arrangement(2, []))
    with pytest.raises(ArrangementError, match="rank-2 oracle needs a central"):
        rank2_zeta(affine)


@pytest.mark.parametrize("m", range(2, 9), ids=["A%d" % (m - 1) for m in range(2, 9)])
def test_braid_matches_partition_lattice_oracle(m):
    # the oracle walks no lattice; from A3 on some pole forms have a scale
    # above 1, so the flag sum divides them out (A7 ends with q = 315)
    z = local_zeta(braid(m))
    for s in (F(1, 3), F(-11, 97), F(5)):
        assert z.evaluate((s,)) == braid_local_zeta(m, s)
    # the numerator read raises on a cancellation decided where there is
    # none, and no pole form divides what is left: none was missed
    assert not any(_divides(f, z.numerator) for f in z.denominator)
    if m == 8:
        assert lcm(*(c.denominator for c, _ in z.terms)) == 315


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


def test_zero_function_formats_as_zero():
    z = ZetaFunction(1, [])
    assert z.is_zero() and z.format_str() == "0"


def test_evaluate_on_polar_locus_raises():
    z = local_zeta(threelines())
    with pytest.raises(ZeroDivisionError):
        z.evaluate((F(-1),))
    with pytest.raises(ZeroDivisionError):
        z.evaluate((F(-2, 3),))
