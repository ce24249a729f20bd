"""Topological zeta functions of hyperplane arrangements.

The local and global (multivariate) topological zeta functions are computed
from the maximal wonderful model of the arrangement, whose boundary strata
are indexed by flags of proper flats.  Each flag of flats W_1 < ... < W_k
(strictly increasing subspaces) contributes the product of the Euler
characteristics of the projectivized complements of the interval
arrangements along the flag divided by the product of the flats' pole forms
ord_X . s + nu_X (_pole_forms); in one variable they are N_X s + nu_X, the
forms of the one-row factorization by the multiplicities.  The dense edges'
forms are the candidate poles.  The local zeta sums the flags starting at
the minimal flat.  The global one sums all flags weighted by the Euler
characteristic of the open stratum of the first flat, plus the empty flag;
on a central arrangement that is the local sum (see global_zeta).  The
interval Euler characteristics are the nonzero ones the arrangement's one
intersection lattice, Arrangement.lattice, keeps for each flat by lattice
position (IntersectionLattice.euler); no interval arrangement is built.

The flag sum is taken by a recursion over the proper flats (_flag_sum)
that keeps, for each flat, the sum over the flags from it up to the
ambient space with equal denominators merged; no flag is enumerated.  It
runs on integers alone and by lattice position: each such sum is integer
coefficients over one common denominator, kept in a list indexed by the
flat's position, and a denominator is a monomial in the sorted distinct
pole forms packed into one int, unpacked into a sorted tuple of form
ranks only at the minimal flat; one AffineForm is made per distinct form.

Results are exact rational functions in two shapes: the merged flag sum,
one term per distinct denominator, and a reduced numerator / denominator
pair in which every removable linear factor has been cancelled, so the
reported poles are genuine.  Both are taken from the flag sum's integer
shape; ZetaFunction(nvars, terms) converts given terms to it once.

The poles are decided without the numerator (_denominator), one form f
of the least common denominator (LCD) at a time, on f's hyperplane.  For
a zeta function of an arrangement only the forms of the dense edges are
decided, and the others have order 0: the minimal wonderful model (De
Concini and Procesi, Selecta Math. 1995) blows up the dense edges alone,
so the reduced denominator divides a product of dense-edge forms.  The
flag sum marks those forms as it visits each flat.  Sums given as terms
have every form decided.  A decided form's order is the largest j up to
its LCD power e whose Laurent coefficient A_j along f is not zero.  A_e
is the sum on f = 0 of the terms that carry f^e; read at one point
modulo a prime, a nonzero value proves order e, which settles most
forms.  Otherwise A_e, A_(e-1), ... are built exactly as sums in one
variable fewer (_laurent) and tested for zero: such a sum is zero
exactly when its constant part is zero and none of its forms is a pole,
decided the same way one dimension lower.  With no variables left every
sum is one rational number, so one variable takes the same route.  The
verdicts read only the poles.

The numerator is built on first read (_numerator): once, over the LCD,
as fractions are added over their lcm, by halves (_lcd_numerator), on
one raw integer dict keyed by packed exponents (core.packed_width).  It
is then divided by each form as often as the decided orders say it
cancels; a form skipped as off the dense edges is divided out as often
as the LCD has it.  A division that fails raises, so a read catches a
cancellation decided where there is none, a skipped form that is a
pole included; a cancellation that was missed is not caught.  The
numerator is unpacked into a MultiPoly once, at the end.
"""

from fractions import Fraction
from functools import cache, cached_property
from math import comb, gcd, lcm

from .core import (AffineForm, MultiPoly, _add_times_form, _trusted, as_int, div_linear,
                   format_poly, integer_kernel, packed_steps, packed_width, poly_eval,
                   rational, unpack)
from .arrangement import ArrangementError, dense_edges, localize_at_point


def _factor_rows(arr, multi):
    """The rows summed over a flat's hyperplanes in its pole form: the
    factorization, or the multiplicities as one row for the univariate zeta."""
    if not multi:
        return (arr.mults,)
    if arr.factors is None:
        raise ArrangementError("multivariate zeta needs a factorization")
    return arr.factors


def _pole_forms(arr, flats, multi):
    """The (row, scale) pairs of the flats, in their order: row is the
    canonical integer row (ord, codim) / scale of the flat's pole form
    ord . s + codim, where ord sums each row of _factor_rows over the
    flat's hyperplanes and scale is the gcd of the row.  The entries are
    nonnegative and codim is positive, so the divided row is already
    canonical, and rows sort as their AffineForms do; the callers make one
    AffineForm per distinct row (_form)."""
    getters = [r.__getitem__ for r in _factor_rows(arr, multi)]
    out = []
    for f in flats:
        row = [sum(map(get, f.indices)) for get in getters] + [f.codim]
        g = gcd(*row)
        out.append((tuple(row) if g == 1 else tuple(c // g for c in row), g))
    return out


def _form(row):
    """The AffineForm of a canonical integer row from _pole_forms, made
    unchecked (core._trusted)."""
    return _trusted(AffineForm, coeffs=row[:-1], const=row[-1])


def candidate_poles(arr, multi=False, lattice=None):
    """Candidate poles: the pole forms of the dense edges.

    Univariate: their roots -nu/N, sorted descending.  Multivariate: the
    forms ord . s + nu, canonical and sorted; requires a factorization.
    lattice as for dense_edges.
    """
    rows = {row for row, _ in _pole_forms(arr, dense_edges(arr, lattice), multi)}
    forms = [_form(row) for row in sorted(rows)]
    if multi:
        return forms
    return sorted((form.root() for form in forms), reverse=True)


# ---------------------------------------------------------------------------
# the rational function container

class ZetaFunction:
    """Sum of constant/product-of-affine-forms terms, kept in two shapes.

    terms: the (coefficient, sorted denominator factors) pairs as given,
        zero terms dropped.  A zeta function built from an arrangement has
        the flag sum with equal denominators merged, sorted by denominator,
        made on first read.
    numerator, denominator: the normalized quotient over the least common
        denominator with all removable affine factors cancelled; the pole
        data is read from this shape.  The denominator is decided when the
        function is made (_denominator) and the numerator is built on first
        read (_numerator).  A zero sum has zero numerator and empty
        denominator.
    """

    def __init__(self, nvars, terms):
        self.nvars = as_int(nvars, "the number of variables")
        self.terms = self._clean(terms)
        forms = sorted({f for _, dens in self.terms for f in dens})
        rank = {f: i for i, f in enumerate(forms)}
        q = lcm(*(coef.denominator for coef, _ in self.terms))
        ranked = {}
        for coef, dens in self.terms:
            key = tuple(rank[f] for f in dens)
            ranked[key] = ranked.get(key, 0) + coef.numerator * (q // coef.denominator)
        self._quotient(forms, ranked, q)

    @classmethod
    def _merged(cls, nvars, forms, ranked, q, dense):
        """The zeta function of a sum already in _denominator's shape, such
        as the flag sum, whose poles lie among the forms of rank in dense."""
        z = cls.__new__(cls)
        z.nvars = nvars
        z._quotient(forms, ranked, q, dense)
        return z

    def _quotient(self, forms, ranked, q, dense=None):
        """Keep the sum and decide its poles, among the forms of rank in
        dense if given (_denominator).  A sum with a nonzero constant
        part, the terms with no denominator, is not proper; the rest is a
        sum of proper fractions, whose reduced numerator has lower degree
        than its denominator."""
        ranked = {dens: c for dens, c in ranked.items() if c}
        if () in ranked:
            raise ValueError("zeta function is not a proper rational function")
        self._sum = (forms, ranked, q)
        self.denominator = _denominator(forms, ranked, dense)

    @cached_property
    def terms(self):
        forms, ranked, q = self._sum
        return tuple((Fraction(c, q), tuple(forms[i] for i in dens))
                     for dens, c in sorted(ranked.items()))

    @cached_property
    def numerator(self):
        return _numerator(self.nvars, *self._sum, self.denominator)

    def _clean(self, terms):
        clean = []
        for coef, dens in terms:
            coef = rational(coef)
            dens = tuple(dens)
            for f in dens:
                if not isinstance(f, AffineForm) or f.nvars != self.nvars:
                    raise ValueError("denominator factor %r does not match %d variables"
                                     % (f, self.nvars))
            if coef != 0:
                clean.append((coef, tuple(sorted(dens))))
        return tuple(clean)

    def is_zero(self):
        """A proper sum is zero exactly when it has no pole."""
        return not self.denominator

    def denominator_factors(self):
        """Sorted (form, multiplicity) pairs of the normalized denominator."""
        return sorted(self.denominator.items())

    def evaluate(self, point):
        """Exact value at a point off the polar locus (normalized shape)."""
        val = poly_eval(self.numerator, point)
        for f, k in self.denominator.items():
            fv = f.evaluate(point)
            if fv == 0:
                raise ZeroDivisionError("point lies on the polar locus (%r)" % (f,))
            val /= fv ** k
        return val

    def evaluate_terms(self, point):
        """Exact value summed over terms, one by one; cross-check route."""
        total = Fraction(0)
        for coef, dens in self.terms:
            val = coef
            for f in dens:
                fv = f.evaluate(point)
                if fv == 0:
                    raise ZeroDivisionError("point lies on a term denominator (%r)" % (f,))
                val /= fv
            total += val
        return total

    def __eq__(self, other):
        return (isinstance(other, ZetaFunction) and self.nvars == other.nvars
                and self.denominator == other.denominator
                and self.numerator == other.numerator)

    __hash__ = None

    def format_str(self):
        num = format_poly(self.numerator)
        if not self.denominator:
            return num
        den = "*".join("(%s)" % f.format_str() + ("^%d" % k if k > 1 else "")
                       for f, k in self.denominator_factors())
        return "(%s) / %s" % (num, den)

    def __repr__(self):
        return "ZetaFunction(%s)" % self.format_str()


# ---------------------------------------------------------------------------
# poles, decided on each form's hyperplane

def _by_form(terms):
    """{form: [largest power, the terms that have it]} over (sorted
    denominator tuple, coefficient) pairs; the largest powers make the
    least common denominator (LCD)."""
    out = {}
    for term in terms:
        dens, prev = term[0], None
        for f in dens:
            if f != prev:
                prev = f
                k = dens.count(f)
                entry = out.setdefault(f, [k, []])
                entry[0] = max(entry[0], k)
                entry[1].append(term)
    return out


def _denominator(forms, ranked, dense=None):
    """{form: pole order} for the forms that are poles of the sum of
    c / (q prod forms[i]) over the {sorted rank tuple: int c} entries of
    ranked, with no zero entry; forms are distinct canonical forms in
    sorted order.  No numerator is built (_poles).

    dense, if given, is the set of ranks of the forms that can be poles;
    only they are decided and every other form is taken as order 0.  For
    a flag sum they are the forms of the dense edges: the minimal
    wonderful model (De Concini and Procesi, Selecta Math. 1995) blows up
    the dense edges alone, and its exceptional and strict-transform
    divisors are the only denominators of the zeta function computed on
    it, so the reduced denominator divides a product of dense-edge forms.
    A form skipped wrongly would still be caught: the numerator read
    divides every skipped LCD form out as often as the LCD has it
    (_numerator), which fails for a form that is a pole.
    """
    rows = [f.coeffs + (f.const,) for f in forms]
    return {forms[i]: e for i, e in _poles(rows, ranked, dense)}


def _poles(rows, ranked, dense=None):
    """The (i, order) pairs of the poles rows[i] of a sum as for
    _denominator, given by the integer rows (coefficients, then constant)
    of its forms, in ascending i; lazily.  With dense, only the i in
    dense are decided (see _denominator); the recursion on restricted
    sums (_is_zero) decides every form, having no such theorem.

    The order of a form f of the least common denominator, of power e
    there, is the largest j <= e whose Laurent coefficient A_j along f is
    not zero, or 0.  A_e is the sum of the carriers, the terms with f^e,
    on f = 0.  It is first read at one point of f = 0 modulo _PRIME
    (_leading_nonzero), which settles most forms: a nonzero value proves
    order e.  Otherwise A_e, A_(e-1), ... are built exactly in one
    variable fewer (_laurent) and decided zero or not (_is_zero).
    """
    point = _point(len(rows[0]) - 1 if rows else 0)
    at = [(sum(a * x for a, x in zip(row, point)) + row[-1]) % _PRIME for row in rows]
    for i, (e, having) in sorted(_by_form(ranked.items()).items()):
        if dense is not None and i not in dense:
            continue
        if not _leading_nonzero(rows, at, i, e, having):
            while e and _is_zero(*_laurent(rows, having, i, e)):
                e -= 1
        if e:
            yield i, e


def _is_zero(rows, ranked):
    """Whether a sum as for _poles is zero: exactly when its constant
    part, the entry with no denominator, is zero and none of its forms is
    a pole, as a sum of proper fractions without poles is a polynomial
    that vanishes at infinity.  Each form's Laurent coefficients are sums
    in one variable fewer, so the recursion ends with no variables, where
    every sum is a constant."""
    return () not in ranked and next(_poles(rows, ranked), None) is None


# a Mersenne prime, the modulus of the values read at one point
_PRIME = (1 << 61) - 1


@cache
def _point(nvars):
    """The fixed residues modulo _PRIME, one per variable, at which sums
    are read: the powers of one odd 64-bit constant, so that forms with
    small coefficients seldom vanish there."""
    return tuple(pow(0x2545F4914F6CDD1D, j + 1, _PRIME) for j in range(nvars))


def _leading_nonzero(rows, at, i, e, having):
    """Whether A_e, the sum on the hyperplane of f = rows[i] of the
    carriers among the terms having f, is nonzero at one point of it
    modulo _PRIME; at holds every form's value at _point.  The arguments
    are _poles'.

    On f = 0 each carrier c / (f^e prod h^k_h) leaves c / prod h^k_h.
    With m f's pivot, c_m h is there w_h = c_m h - h_m f, which is free of
    s_m (as in _laurent), so every w_h is read at the whole of _point.  A
    carrier's c / prod h^k_h is c c_m^a / prod w_h^k_h, a its number of
    factors other than f: every carrier is brought to the same power of
    c_m.  The carriers are summed as one fraction, so no inverse is taken.
    A nonzero sum proves that A_e is not zero; a zero sum, or a w_h that
    vanishes, proves nothing.
    """
    f = rows[i]
    m = next(j for j, c in enumerate(f) if c)
    cm = f[m]
    if not cm % _PRIME:
        return False
    w = {}
    num, den = 0, 1
    for dens, c in having:
        if dens.count(i) != e:
            continue
        d = 1
        for h in dens:
            if h != i:
                if h not in w:
                    w[h] = (cm * at[h] - rows[h][m] * at[i]) % _PRIME
                d = d * w[h] % _PRIME
        if not d:
            return False
        num = (num * d + c * pow(cm, len(dens) - e, _PRIME) * den) % _PRIME
        den = den * d % _PRIME
    return num != 0


def _laurent(rows, terms, i, j):
    """The Laurent coefficient A_j along f = rows[i] of the sum of the
    (sorted tuple of indices into rows, int coefficient) terms, times a
    positive integer scale, as a sum in one variable fewer in _poles'
    shape: (rows, {sorted tuple of indices: nonzero int}).  The scale
    changes neither whether a sum is zero nor its poles, so the
    coefficients stay integers.

    With u = f and m its pivot, every other form h is (w_h + h_m u) / c_m,
    where w_h = c_m h - h_m f is free of s_m: the restriction of c_m h to
    f = 0, in the coordinates other than s_m.  So
        h^-a = c_m^a sum over n >= 0 of (-1)^n C(a+n-1, n) h_m^n u^n w_h^-(a+n),
    and a term c / (u^k prod h^a_h) gives A_j the coefficient of u^(k-j) in
    c prod h^-a_h.  w_h is canonicalised and its scale g_h folded into the
    coefficient; a w_h with no variable left is a nonzero constant (h is
    not f) and goes into the coefficient whole, as g_h.  Forms with equal
    w_h share one index.  The common scale is the lcm over the terms of
    the largest product of the g_h powers a term can divide by.
    """
    f = rows[i]
    m = next(x for x, c in enumerate(f) if c)
    cm = f[m]
    index, restricted, found, scale = {}, {}, [], 1
    for dens, c in terms:
        k = dens.count(i)
        if k < j:
            continue
        top = k - j
        # (power of u, restricted indices, numerator, denominator), one h at a time
        series, bound, prev = [(0, (), c, 1)], 1, None
        for h in dens:
            if h == i or h == prev:
                continue
            prev = h
            a = dens.count(h)
            if h not in restricted:
                w, g = _restrict(rows[h], f, m)
                restricted[h] = (None if w is None else index.setdefault(w, len(index))), g
            w, g = restricted[h]
            hm = rows[h][m]
            bound *= g ** (a + top if hm else a)
            series = [(d + n, rest if w is None else rest + (w,) * (a + n),
                       v * (-1) ** n * comb(a + n - 1, n) * hm ** n * cm ** a, s * g ** (a + n))
                      for d, rest, v, s in series for n in range(top - d + 1 if hm else 1)]
        scale = lcm(scale, bound)
        found += [(rest, v, s) for d, rest, v, s in series if d == top]
    out = {}
    for rest, v, s in found:
        key = tuple(sorted(rest))
        out[key] = out.get(key, 0) + v * scale // s
    return list(index), {key: v for key, v in out.items() if v}


def _restrict(h, f, m):
    """(canonical row of w = c_m h - h_m f without column m, its scale), or
    (None, w) when w is a constant; rows as for _laurent."""
    cm, hm = f[m], h[m]
    row = [cm * x - hm * y for x, y in zip(h, f)]
    del row[m]
    if not any(row[:-1]):
        return None, row[-1]
    g = gcd(*row)
    if next(x for x in row if x) < 0:
        g = -g
    return tuple(x // g for x in row), g


# ---------------------------------------------------------------------------
# the numerator, built on first read

def _numerator(nvars, forms, ranked, q, den):
    """The numerator MultiPoly of the reduced quotient of the sum of
    c / (q prod forms[i]) over ranked (as for _denominator), whose reduced
    denominator den is already decided.

    The numerator N = sum of c LCD / D over the least common denominator is
    built once by _lcd_numerator, which adds halves of the terms over their
    own LCDs.  The terms go in the order of their reversed rank tuples, so
    the terms that share their highest forms fall in the same halves:
    forms sort by their coefficients, so in a flag sum the highest are those
    of the deepest flats, which many flags share, and a half's LCD stays
    small.  N is a raw integer dict on packed exponents (core.packed_width
    of the LCD degree, which bounds every exponent).  Each LCD form is
    divided out (div_linear, on the same packed dict) as often as its LCD
    power exceeds its power in den, and no more.  A division that fails
    raises AssertionError, so a read catches a cancellation decided where
    there is none, but not one that was missed.  The one MultiPoly is made
    at the end, unpacked and divided by q.  The reduced quotient with
    canonical denominator forms is unique, so any grouping of the same sum
    into merged terms gives the same numerator.
    """
    if not ranked:
        return MultiPoly(nvars)
    lcd = {i: k for i, (k, _) in _by_form(ranked.items()).items()}
    width = packed_width(sum(lcd.values()))
    factors, first = [], {}
    for i in sorted(lcd):
        first[i] = len(factors)
        factors += [(packed_steps(forms[i], width), forms[i].const)] * lcd[i]
    terms = []
    for dens, c in sorted(ranked.items(), key=lambda t: t[0][::-1]):
        has, k, prev = 0, 0, None
        for i in dens:
            k = k + 1 if i == prev else 0
            prev = i
            has |= 1 << (first[i] + k)
        terms.append((has, c))
    total = {ex: c for ex, c in _lcd_numerator(terms, factors)[0].items() if c}
    for i in sorted(lcd):
        f = forms[i]
        for _ in range(lcd[i] - den.get(f, 0)):
            total = div_linear(total, f, width)
            if total is None:
                raise AssertionError("%s does not divide the numerator as often as the "
                                     "pole orders say" % f.format_str())
    return _trusted(MultiPoly, nvars=nvars, terms={unpack(ex, nvars, width): Fraction(c, q)
                                                   for ex, c in total.items()})


def _lcd_numerator(terms, factors):
    """The sum of c times the factors that the term lacks from the terms'
    LCD, over the (has, c) terms, and that LCD: (raw {packed exponent: int}
    dict that may keep zero entries, OR of the has masks).  factors are
    (packed steps, const) pairs, and bit j of has is set when the term's
    denominator has factors[j].

    Fractions added over their lcm, by halves: each half is summed over its
    own LCD and multiplied, lowest bit first, by the factors that the other
    half's LCD has and its own lacks, and the two are added.  The recursion
    is log2(len(terms)) deep, and a module-level function leaves no
    reference cycle behind (a nested function that calls itself would).
    """
    if len(terms) == 1:
        has, c = terms[0]
        return {0: c}, has
    half = len(terms) // 2
    left, lhas = _lcd_numerator(terms[:half], factors)
    right, rhas = _lcd_numerator(terms[half:], factors)
    out = {}
    for part, lack in ((left, rhas & ~lhas), (right, lhas & ~rhas)):
        while lack:
            j = (lack & -lack).bit_length() - 1
            lack &= lack - 1
            part = _add_times_form({}, part, *factors[j])
        if len(out) < len(part):
            out, part = part, out
        for ex, c in part.items():
            out[ex] = out.get(ex, 0) + c
    return out, lhas | rhas


class PoleReport:
    """Poles of a normalized zeta function.

    univariate: (root, order) pairs sorted by root descending, or None.
    multivariate: (AffineForm, order) pairs in canonical order, or None.
    """

    def __init__(self, univariate=None, multivariate=None):
        self.univariate = univariate
        self.multivariate = multivariate

    def pole_set(self):
        pairs = self.univariate if self.univariate is not None else self.multivariate
        return {p for p, _ in pairs}

    def __repr__(self):
        if self.univariate is not None:
            return "PoleReport(%s)" % ", ".join("%s (order %d)" % pq for pq in self.univariate)
        return "PoleReport(%s)" % ", ".join("%s (order %d)" % (f.format_str(), k)
                                            for f, k in self.multivariate)


def poles(z):
    """Poles of the normalized form: genuine after cancellation."""
    if z.nvars == 1:
        pairs = sorted(((f.root(), k) for f, k in z.denominator.items()), reverse=True)
        return PoleReport(univariate=pairs)
    return PoleReport(multivariate=z.denominator_factors())


# ---------------------------------------------------------------------------
# the flag formula

def _flag_sum(arr, multi):
    """The flag formula summed with equal denominators merged, in
    _denominator's shape: (forms, {sorted rank tuple: int}, q, dense), the
    sum of c / (q prod forms[i]) over the entries, and the set of ranks of
    the forms of the dense edges, the flats whose row of the Euler table
    has an entry at the ambient space (Crapo's beta; dense_edges).  No
    flag is enumerated and no Fraction is made.

    Each proper flat X has the canonical pole form and scale L_X, s_X of
    _pole_forms.  D(X), the sum over the flags from X up to the ambient
    space, is 1 with no denominator at the ambient space and otherwise

        D(X) = (1/s_X) sum of interval_euler(Y, X) * (D(Y) with L_X added)

    over the flats Y < X with a nonzero interval_euler, read by lattice
    position from IntersectionLattice.euler.  The answer is D(minimal
    flat).  The flats are visited in lattice order and D is a list indexed
    by position, so every such D(Y) is ready when X needs it.  D(X) is
    kept as integer coefficients N_X over one denominator q_X: q_X is s_X
    times the lcm of the q_Y, each N_Y is scaled by e q / q_Y, and the gcd
    of q_X and the coefficients is divided out.  A denominator is a
    monomial in the sorted distinct pole forms, packed like an exponent
    vector into one int with core.packed_width(rank) bits per form (a flag
    has at most rank flats, so no multiplicity exceeds the rank), and
    adding L_X adds one int.  The keys of D(minimal flat) are unpacked
    once into sorted tuples of form ranks (_ranks), which sort as the
    denominators do, and one AffineForm is made per distinct form
    (_form).
    """
    lattice = arr.lattice
    pole_rows = _pole_forms(arr, lattice.proper_flats(), multi)
    rows = sorted({row for row, _ in pole_rows})
    width = packed_width(lattice.minimal_flat().codim)
    step = {row: 1 << width * i for i, row in enumerate(rows)}
    sums = [(1, {0: 1})]
    dense = set()
    for below, (row, scale) in zip(lattice.euler[1:], pole_rows):
        if 0 in below:
            dense.add(row)
        unit = step[row]
        # pairwise: lcm(*...) over argument tuples of every length kept
        # about 0.3 MB more resident over repeated calls
        q = 1
        for y in below:
            q = lcm(q, sums[y][0])
        out = {}
        for y, e in below.items():
            qy, dy = sums[y]
            e *= q // qy
            for key, c in dy.items():
                key += unit
                out[key] = out.get(key, 0) + e * c
        q *= scale
        g = gcd(q, *out.values())
        sums.append((q // g, {key: c // g for key, c in out.items() if c}))
    q, packed = sums[-1]
    ranked = {_ranks(key, width): c for key, c in packed.items()}
    return ([_form(row) for row in rows], ranked, q,
            {i for i, row in enumerate(rows) if row in dense})


def _ranks(key, width):
    """The sorted tuple of form ranks of a packed denominator, read from
    its highest slot down: each slot costs a shift and a subtraction."""
    out = []
    while key:
        i = (key.bit_length() - 1) // width
        k = key >> width * i
        out += [i] * k
        key -= k << width * i
    out.reverse()
    return tuple(out)


def _local(arr, multi, point):
    if point is not None:
        arr = localize_at_point(arr, point)
    if not arr.central:
        raise ArrangementError("zeta needs a central arrangement (every hyperplane "
                               "through the origin)")
    if arr.r == 0:
        raise ArrangementError("the empty arrangement has no zeta function")
    return ZetaFunction._merged(len(_factor_rows(arr, multi)), *_flag_sum(arr, multi))


def local_zeta(arr, point=None):
    """The local topological zeta function at the origin (or at a point).

    With a point, the arrangement is first localized there; without one the
    arrangement must be central and the origin is used.  Flags start at the
    minimal flat, the intersection of all hyperplanes, which is the origin
    exactly when the arrangement is essential.  The flags are read off the
    arrangement's lattice (Arrangement.lattice); a localized arrangement is
    a new Arrangement with a lattice of its own.  The terms are the flag
    sum over flats with equal denominators merged, and the quotient is
    normalized from them.
    """
    return _local(arr, False, point)


def global_zeta(arr):
    """The global topological zeta function of a central arrangement.

    It is the local zeta at the origin, quotient and terms.  The global flag
    sum weights each flag by the Euler characteristic of the open stratum
    of its first flat, and the empty flag by that of the complement.
    Scaling acts freely on every open stratum except that of the minimal
    flat, which is the whole minimal flat, so the weight is 1 there and 0
    everywhere else: what is left is the local flag sum.
    """
    return _local(arr, False, None)


def multivariate_local_zeta(arr, point=None):
    """Local zeta in one variable per factor of the factorization; point
    as for local_zeta."""
    return _local(arr, True, point)


def multivariate_global_zeta(arr):
    """Global zeta in one variable per factor of the factorization; equal
    to the multivariate local zeta, as for global_zeta."""
    return _local(arr, True, None)


# ---------------------------------------------------------------------------
# independent closed-form oracles

def snc_zeta(arr, multi=False):
    """Zeta of an arrangement with linearly independent normals.

    The identity map already resolves such an arrangement, and the fiber
    over the origin meets only the deepest stratum, so the local zeta is
    the product of 1/(d_i s + 1); multivariate, 1/(sum_j d_ij s_j + 1).
    Computed without any lattice machinery, as an independent check.
    """
    if not arr.central:
        raise ArrangementError("snc oracle needs a central arrangement")
    if arr.r == 0:
        raise ArrangementError("snc oracle needs at least one hyperplane")
    if len(integer_kernel(arr.normals, arr.n)[0]) != arr.n - arr.r:
        raise ArrangementError("snc oracle needs linearly independent normals")
    rows = _factor_rows(arr, multi)
    forms = []
    for i in range(arr.r):
        form, scale = AffineForm.canonical([row[i] for row in rows], 1)
        assert scale == 1
        forms.append(form)
    return ZetaFunction(len(rows), [(Fraction(1), forms)])


def rank2_zeta(arr):
    """Local zeta of at least three distinct lines through the origin of C^2.

    Closed form: (2 - r)/(d s + 2) + sum_i 1/((d s + 2)(d_i s + 1)) with
    d the total degree.  Independent of the flag machinery.
    """
    if not arr.central:
        raise ArrangementError("rank-2 oracle needs a central arrangement")
    if arr.n != 2:
        raise ArrangementError("rank-2 oracle is for arrangements in C^2")
    if arr.r < 3:
        raise ArrangementError("rank-2 oracle needs at least three lines")
    d = arr.degree()
    f0, s0 = AffineForm.canonical((d,), 2)
    terms = [(Fraction(2 - arr.r, s0), (f0,))]
    for i in range(arr.r):
        fi, si = AffineForm.canonical((arr.mults[i],), 1)
        assert si == 1
        terms.append((Fraction(1, s0), (f0, fi)))
    return ZetaFunction(1, terms)
