"""Topological zeta functions of hyperplane arrangements.

The local and global (multivariate) topological zeta functions are read
off the maximal wonderful model of the arrangement, whose boundary strata
are indexed by flags of proper flats.  Each flag W_1 < ... < W_k (strictly
increasing subspaces) contributes the product of the Euler characteristics
of the projectivized complements of the interval arrangements along the
flag divided by the product of the flats' pole forms ord_X . s + nu_X;
in one variable they are N_X s + nu_X, the forms of the one-row
factorization by the multiplicities.  The local zeta sums the flags
starting at the minimal flat.  The global one sums all flags weighted by
the Euler characteristic of the open stratum of the first flat, plus the
empty flag; on a central arrangement that is the local sum (see
global_zeta).  The interval Euler characteristics are the nonzero ones
the arrangement's one intersection lattice, Arrangement.lattice, keeps for
each dense flat by lattice position (IntersectionLattice.euler), the only
rows the sum reads; no interval arrangement is built.

Only the dense edges, the building set of the minimal wonderful model (De
Concini and Procesi, Selecta Math. 1995), give denominators, so every
form of the sum is a candidate pole.  A recursion over the proper flats
(_flag_sum) keeps, for each flat, the sum over the flags from it up to the
ambient space, the local zeta at a generic point of the flat: by the flag
recursion at a dense flat, and as the product of its components' sums at
any other.  No flag is enumerated.  It runs on integers alone and by
lattice position: the lattice records the dense edges' positions and each
other flat's split into two once.  One sum is made per class of flats
with equal sums (_PoleTable.plan; braid A7 has 22 classes among 4,140
flats), kept in a list indexed by class, with integer coefficients over
monomials in the dense edges' unscaled pole forms, each packed into one
int; no flat is hashed and none keeps a denominator.  Only at the minimal
flat is each monomial unpacked into a sorted tuple of canonical form
ranks and the forms' scales divided out, over one least common q.

The dense edges' pole forms and the classes depend on the lattice and
the factor rows alone.  They are worked out once per lattice and factor
rows, as integer rows and packed slots (_PoleTable) and, on the first
flag sum, the class plan, and kept with the lattice
(IntersectionLattice.pole_tables); the flag sums and candidate poles of an
arrangement read that one table.  It is also the rows' row table
(_RowTable), which keeps what the pole decision reads of the rows alone:
their AffineForms, their roots and the roots' descending ranks, every
row's value at the read point and, from a form's first decision on, its
pivot coefficient and the values of its w_h (_leading_nonzero).
ZetaFunction(nvars, terms) makes a row table of the forms it is given.
Nothing computed from a sum is kept: every call makes every class's sum,
groups the sum by form (_by_form), reads each form's leading coefficient,
divides what that leaves open and builds its ZetaFunction and its
denominator dict afresh.

Results are exact rational functions in two shapes: the merged flag sum,
one term per distinct denominator, and a reduced numerator / denominator
pair in which every removable linear factor has been cancelled, so the
reported poles are genuine.  Both are read off one integer shape of the
sum, (rows, ranked, q): the sorted distinct forms' integer rows and the
merged integer coefficients over q, keyed by sorted rank tuples.  The
flag sum is built in it, and ZetaFunction(nvars, terms) converts given
terms to it once.  The AffineForms of the results are the row table's.

The poles are decided one form f of the least common denominator (LCD)
at a time (_denominator); every form of the sum is decided.  The terms
that carry f, those with f in their denominators, hold all of the sum's
pole along f, so f's order is its LCD power e less the number of times f
divides their numerator over their own LCD.  Most forms are settled
without that numerator, by the leading Laurent coefficient A_e along f:
the sum on f = 0 of f's top carriers, the terms that carry f^e.  One
pass over the sum (_by_form) gives each form its LCD power and its top
carriers and no other term.  In one variable f = 0 is one point, f's
root, where every other form is a nonzero rational, so A_e is summed
there exactly, on integers: a nonzero sum proves order e, and a zero one
proves order below e, so a simple form that cancels, such as veys's
-1/3, is ruled out at once.  In two or more variables A_e is read at one
point modulo a prime, where only a nonzero value proves order e.  A form
that read leaves open, such as the multivariate -1/3 of veys with
hyperplane i in factor i mod 2, is settled by dividing the numerator of
all its carriers, gathered from the sum then, by f, at most e times.
The verdicts read only the poles.

The numerator is built on first read (_numerator), by the routine that
builds a carriers' numerator (_lcd_numerator): once, over the LCD, as
fractions are added over their lcm, by halves, on one raw integer dict
keyed by packed exponents (core.packed_width).  It is then divided by
each form as often as the decided orders say it cancels.  A division that
fails raises, so a read catches a cancellation decided where there is
none; a cancellation that was missed is not caught.  The numerator is
unpacked into a MultiPoly once, at the end.
"""

from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import mul

from .core import (AffineForm, MultiPoly, _add_times_form, _trusted, as_int, div_linear,
                   format_poly, integer_kernel, packed_steps, packed_width, poly_eval,
                   rational, unpack)
from .arrangement import ArrangementError, localize_at_point


def _factor_rows(arr, multi):
    """The rows summed over a flat's hyperplanes in its pole form: the
    factorization, or the multiplicities as one row for the univariate zeta."""
    if not multi:
        return (arr.mults,)
    if arr.factors is None:
        raise ArrangementError("multivariate zeta needs a factorization")
    return arr.factors


class _RowTable:
    """One sorted list of distinct canonical integer rows (coefficients,
    then constant), the forms of a sum, and what deciding their poles
    reads of the rows alone, made once per table: a flag sum reads the
    table of its lattice and factor rows (_PoleTable), and
    ZetaFunction(nvars, terms) makes one of the forms it is given.  No sum
    is kept.

    rows: the rows, sorted.
    forms: their AffineForms, the given objects or made from the rows; the
        keys of every denominator decided over the table and the factors
        of its terms.
    prime, at: the modulus and every row's value at the read point: the
        exact constants in one variable (prime 0, the point 0), residues
        modulo _PRIME at _point in two or more.
    root_rank: in one variable, {id(form): (rank, root)}, rank the place
        of the root in descending order (distinct canonical rows have
        distinct roots), ordered on integers and made on first read; poles
        sorts by it.  The table keeps the forms, so their ids stay theirs.
    roots: the roots in that order, made on first read (candidate_poles).
    _reads: {i: read(i)} for the forms decided so far.
    """

    def __init__(self, rows, forms=None):
        self.rows = rows
        # made unchecked (core._trusted): the rows are canonical
        self.forms = forms or [_trusted(AffineForm, coeffs=row[:-1], const=row[-1])
                               for row in rows]
        nvars = len(rows[0]) - 1 if rows else 0
        if nvars == 1:
            self.prime, self.at = 0, [row[-1] for row in rows]
        else:
            self.prime, point = _PRIME, _point(nvars)
            self.at = [(sum(map(mul, row, point)) + row[-1]) % _PRIME
                       for row in rows]
        self._reads = {}

    @cached_property
    def root_rank(self):
        # the root of N s + c is -c/N, so the roots descend as the integers
        # c (M // N) ascend, M the lcm of the N
        m = lcm(*(n for n, _ in self.rows))
        ranked = sorted(zip(self.rows, self.forms), key=lambda item: item[0][1] * (m // item[0][0]))
        return {id(form): (rank, form.root()) for rank, (_, form) in enumerate(ranked)}

    @cached_property
    def roots(self):
        return [root for _, root in sorted(self.root_rank.values())]

    def read(self, i):
        """(w, c_m) for f = rows[i], m its pivot, which its leading read
        takes (_leading_nonzero): w[h] is the value of w_h = c_m h - h_m f
        at the read point, from the values in at, and w[i] is 1.  Made on
        f's first decision and kept."""
        if i not in self._reads:
            f, at = self.rows[i], self.at
            m = next(j for j, c in enumerate(f) if c)
            w = [f[m] * a - row[m] * at[i] for row, a in zip(self.rows, at)]
            w[i] = 1
            self._reads[i] = w, f[m]
        return self._reads[i]


class _PoleTable(_RowTable):
    """The dense edges' pole forms ord . s + codim under one list of factor
    rows, as the flag sum and the candidate poles read them, ord summing
    each factor row over the flat's hyperplanes: a _RowTable of their
    rows, and how the flag sum packs them.  It holds lattice-derived data
    only, so one table serves every zeta function and candidate list of a
    lattice and those rows (_pole_table); no sum is kept.

    Each dense edge's integer row (ord, codim) is scale times a canonical
    row, scale its gcd: the entries are nonnegative and codim is positive,
    so the divided row is already canonical, and rows sort as their
    AffineForms do.

    rows: the sorted distinct canonical rows, the forms of every flag sum.
    width: the bits of one packed slot, core.packed_width of the rank.
    unit: {position of a dense edge: 1 << width * i}, i the edge's slot,
        one slot per distinct (row, scale) pair in sorted order.
    slots: ((rank of the slot's row in rows,), scale) by slot.

    plan: the classes of flats with equal local sums D(X), made on the
    first flag sum and kept, so that it makes one sum per class.  Classes
    are numbered in lattice order, the ambient space 0.  A dense X's key
    is its unit and the sorted pairs (class c, sum of interval_euler(Y, X)
    over the Y of X's Euler row in c) with a nonzero sum; any other proper
    X's is the sorted pair of the classes of its split (y, g).  Equal keys
    give equal sums, by induction in lattice order, as D(X) is that
    weighted sum of the D(c) over X's unscaled form, or D(y) D(g); two
    classes may still have equal sums.  Braid A_k's classes are the
    partitions of k + 1: 22 among A7's 4,140 flats.
    """

    def __init__(self, lattice, factor_rows):
        # a hyperplane's entries in the factor rows, so ord sums columns
        column = list(zip(*factor_rows)).__getitem__
        found = []
        for k in lattice.dense:
            f = lattice.flats[k]
            row = (*map(sum, zip(*map(column, f.indices))), f.codim)
            g = gcd(*row)
            found.append((row if g == 1 else tuple(c // g for c in row), g))
        super().__init__(tuple(sorted({row for row, _ in found})))
        slots = sorted(set(found))
        self.width = packed_width(lattice.minimal_flat().codim)
        step = {slot: 1 << self.width * i for i, slot in enumerate(slots)}
        self.unit = {k: step[slot] for k, slot in zip(lattice.dense, found)}
        rank = {row: i for i, row in enumerate(self.rows)}
        # (rank,) * 1 is the tuple itself, so a slot of multiplicity 1 makes no object
        self.slots = [((rank[row],), scale) for row, scale in slots]
        self._plan = None

    def plan(self, lattice):
        """(keys, classes): keys[c - 1] is class c's key, (unit, pairs) or
        (0, (class, class)) for a split, and classes[k] the class of the
        flat at position k.  A class fixes its flats' codimension, so the
        minimal flat's class is the last.  One pass in lattice order reads
        the Euler row of each dense flat (IntersectionLattice.euler, which
        has a row for the dense flats alone) and the split of every other
        proper flat (IntersectionLattice.splits)."""
        if self._plan is None:
            euler, unit, splits = lattice.euler, self.unit, lattice.splits
            index, classes = {}, [0]
            for k in range(1, len(lattice)):
                u = unit.get(k)
                if u:
                    by = {}
                    for y, e in euler[k].items():
                        c = classes[y]
                        by[c] = by.get(c, 0) + e
                    key = u, tuple(sorted([item for item in by.items() if item[1]]))
                else:
                    y, g = splits[k]
                    a, b = classes[y], classes[g]
                    key = 0, ((a, b) if a < b else (b, a))
                classes.append(index.setdefault(key, len(index) + 1))
            self._plan = list(index), classes
        return self._plan


def _pole_table(arr, lattice, multi):
    """The _PoleTable of lattice, arr's, under _factor_rows(arr, multi):
    made on first use and kept in lattice.pole_tables, keyed by those rows,
    so a one-row factorization by the multiplicities shares the univariate
    table."""
    factor_rows = _factor_rows(arr, multi)
    table = lattice.pole_tables.get(factor_rows)
    if table is None:
        table = lattice.pole_tables[factor_rows] = _PoleTable(lattice, factor_rows)
    return table


def candidate_poles(arr, multi=False, lattice=None):
    """Candidate poles: the pole forms of the dense edges.

    Univariate: their roots -nu/N, sorted descending.  Multivariate: the
    forms ord . s + nu, canonical and sorted; requires a factorization.
    lattice as for dense_edges.  Both are read off the lattice's pole
    table (_pole_table), made once per lattice and factor rows; each call
    returns a new list.
    """
    table = _pole_table(arr, lattice or arr.lattice, multi)
    return list(table.forms if multi else table.roots)


# ---------------------------------------------------------------------------
# the rational function container

class ZetaFunction:
    """Sum of constant/product-of-affine-forms terms, kept in two shapes.

    terms: the (coefficient, sorted denominator factors) pairs of the sum,
        given or built, with equal denominators merged and zero terms
        dropped, sorted by denominator, made on first read.
    numerator, denominator: the normalized quotient over the least common
        denominator with all removable affine factors cancelled; the pole
        data is read from this shape.  The denominator is decided when the
        function is made (_denominator) and the numerator is built on first
        read (_numerator).  A zero sum has zero numerator and empty
        denominator.
    """

    def __init__(self, nvars, terms):
        self.nvars = as_int(nvars, "the number of variables")
        # each distinct factor object is checked once and numbered by its id;
        # seen keeps the objects alive, so no id is reused while this runs
        number, seen, given = {}, [], []
        for coef, dens in terms:
            key = []
            for f in dens:
                i = number.get(id(f))
                if i is None:
                    if not isinstance(f, AffineForm) or f.nvars != self.nvars:
                        raise ValueError("denominator factor %r does not match %d variables"
                                         % (f, self.nvars))
                    i = number[id(f)] = len(seen)
                    seen.append((f.coeffs + (f.const,), f))
                key.append(i)
            given.append((rational(coef), key))
        # the first object of each row, set last as seen is read backwards
        first = dict(reversed(seen))
        rows = sorted(first)
        rank = {row: i for i, row in enumerate(rows)}
        rank_of = [rank[row] for row, _ in seen]
        q = lcm(*(coef.denominator for coef, _ in given))
        ranked = {}
        for coef, key in given:
            key = tuple(sorted(map(rank_of.__getitem__, key)))
            ranked[key] = ranked.get(key, 0) + coef.numerator * (q // coef.denominator)
        self._quotient(_RowTable(rows, [first[row] for row in rows]), ranked, q)

    @classmethod
    def _merged(cls, nvars, table, ranked, q):
        """The zeta function of a sum already in _denominator's shape over
        the rows of a _RowTable, such as the flag sum over its lattice's
        _PoleTable."""
        z = cls.__new__(cls)
        z.nvars = nvars
        z._quotient(table, ranked, q)
        return z

    def _quotient(self, table, ranked, q):
        """Keep the sum and decide its poles (_denominator).  A sum with a
        nonzero constant part, the terms with no denominator, is not
        proper; the rest is a sum of proper fractions, whose reduced
        numerator has lower degree than its denominator."""
        ranked = {dens: c for dens, c in ranked.items() if c}
        if () in ranked:
            raise ValueError("zeta function is not a proper rational function")
        self._sum = (table, ranked, q)
        self.denominator = _denominator(table, ranked)

    @cached_property
    def terms(self):
        table, ranked, q = self._sum
        forms = table.forms
        return tuple((Fraction(c, q), tuple(forms[i] for i in dens))
                     for dens, c in sorted(ranked.items()))

    @cached_property
    def numerator(self):
        return _numerator(self.nvars, *self._sum, self.denominator)

    def is_zero(self):
        """A proper sum is zero exactly when it has no pole."""
        return not self.denominator

    def denominator_factors(self):
        """Sorted (form, multiplicity) pairs of the normalized denominator:
        its items, which _denominator inserts in sorted order."""
        return list(self.denominator.items())

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
    """{form: (e, top)} over (sorted denominator tuple, coefficient) pairs:
    e is the form's largest power, its power in the least common
    denominator (LCD), and top the terms that have it to the power e, its
    top carriers.  One pass counts each form's run in a sorted tuple; a
    term joins the list of the power it has reached, and a higher power
    starts a new list, so a term below the top is in none."""
    out = {}
    for term in terms:
        prev = k = None
        for f in term[0]:
            k = k + 1 if f == prev else 1
            prev = f
            top = out.get(f)
            if top is None or top[0] < k:
                out[f] = (k, [term])
            elif top[0] == k:
                top[1].append(term)
    return out


def _denominator(table, ranked):
    """{AffineForm: pole order} for the forms that are poles of the sum of
    c / (q prod rows[i]) over the {sorted rank tuple: int c} entries of
    ranked, with no zero entry, rows those of the _RowTable table.  Every
    form is decided (_poles); a numerator is built only of the terms that
    carry a form the leading read leaves open.  The keys are the table's
    forms, in ascending row, which is AffineForm order, so the dict is
    sorted; the dict itself is new on every call.
    """
    forms = table.forms
    return {forms[i]: e for i, e in _poles(table, ranked)}


def _poles(table, ranked):
    """The (i, order) pairs of the poles rows[i] of a sum as for
    _denominator, in ascending i; lazily.

    The carriers of a form f of the least common denominator, of power e
    there, are the terms with f in their denominators; the other terms
    have no pole along f.  So f's order is e less the number of times f
    divides the carriers' numerator over their own LCD (_lcd_numerator),
    found by at most e divisions (div_linear); a zero numerator divides
    every time.  Most forms are settled without that numerator, by A_e,
    the leading Laurent coefficient along f: the sum on f = 0 of the top
    carriers, those with f^e, which _by_form lists with e
    (_leading_nonzero).  In one variable f = 0 is one point and the sum is
    exact: a nonzero sum proves order e, and a zero one order below e, so
    a form of power 1 is then no pole.  In more variables it is read at
    one point modulo _PRIME, where only a nonzero value proves order e.
    Only a form that the read leaves open, a zero read in two or more
    variables or in one of power 2 or more, is divided, and only then are
    all its carriers, a carrier below the top included, gathered from the
    sum.  The forms, the read point's values and each form's w_h come
    from the table; _by_form and the reads run on every call.
    """
    for i, (e, top) in sorted(_by_form(ranked.items()).items()):
        if not _leading_nonzero(table, i, e, top):
            if table.prime or e > 1:
                carriers = {dens: c for dens, c in ranked.items() if i in dens}
                num, _, width = _lcd_numerator(table, carriers)
                f = table.forms[i]
                while e and (num := div_linear(num, f, width)) is not None:
                    e -= 1
            else:
                e = 0
        if e:
            yield i, e


# a Mersenne prime, the modulus of the values read at one point in two or
# more variables; one variable is read exactly
_PRIME = (1 << 61) - 1


@cache
def _point(nvars):
    """The fixed residues modulo _PRIME, one per variable, at which sums
    in two or more variables are read: the powers of one odd 64-bit
    constant, so that forms with small coefficients seldom vanish there."""
    return tuple(pow(0x2545F4914F6CDD1D, j + 1, _PRIME) for j in range(nvars))


def _leading_nonzero(table, i, e, top):
    """Whether A_e, the sum on the hyperplane of f = rows[i] of top, f's
    top carriers (the terms with f^e, from _by_form), is nonzero at the
    table's read point: exact when its prime is 0, else modulo the prime.

    On f = 0 each top carrier c / (f^e prod h^k_h) leaves c / prod h^k_h.
    With m f's pivot, c_m h is there w_h = c_m h - h_m f, which is free of
    s_m, so every w_h is read at the whole point: its value there is its
    value at the point of f = 0 that differs in s_m alone.  The table
    holds those values, with 1 at f itself (_RowTable.read).  A carrier's
    c / prod h^k_h is c c_m^a / prod w_h^k_h, a its number of factors
    other than f: every carrier is brought to the same power of c_m.  The
    carriers are summed as one fraction, so no inverse is taken.

    In one variable the point is 0 and the prime 0: each w_h is the
    integer c_m nu_h - h_m nu_f, nonzero as distinct canonical rows have
    distinct roots, and the sum is A_e times the sum's positive scale, so
    the answer is exact both ways.  Modulo a prime the sum is the residue
    of A_e's exact value at that point of f = 0, whatever c_m is modulo
    the prime, so a nonzero sum proves that A_e is not zero; a zero sum or
    a w_h that vanishes there proves nothing.
    """
    w, cm = table.read(i)
    prime = table.prime
    num, den = 0, 1
    for dens, c in top:
        d = 1
        for h in dens:
            d *= w[h]
        num = num * d + c * cm ** (len(dens) - e) * den
        den *= d
        if prime:
            num, den = num % prime, den % prime
            if not den:
                return False
    return num != 0


# ---------------------------------------------------------------------------
# numerators over the least common denominator

def _numerator(nvars, table, ranked, q, den):
    """The numerator MultiPoly of the reduced quotient of the sum of
    c / (q prod rows[i]) over ranked (as for _denominator, rows those of
    the _RowTable table), whose reduced denominator den, keyed by the
    table's forms, is already decided.

    The numerator over the least common denominator is built once
    (_lcd_numerator), and each LCD form, the table's, is divided out (div_linear, on the same packed dict) as often as the
    decided orders say it cancels: its LCD power less its power in den.
    A division that fails raises AssertionError, so a read catches a
    cancellation decided where there is none, but not one that was missed.
    The one MultiPoly is made at the end, unpacked and divided by q.  The
    reduced quotient with canonical denominator forms is unique, so any
    grouping of the same sum into merged terms gives the same numerator.
    """
    if not ranked:
        return MultiPoly(nvars)
    total, lcd, width = _lcd_numerator(table, ranked)
    for i, k in lcd.items():
        f = table.forms[i]
        for _ in range(k - den.get(f, 0)):
            total = div_linear(total, f, width)
            if total is None:
                raise AssertionError("%s does not divide the numerator as often as the "
                                     "pole orders say" % f.format_str())
    return _trusted(MultiPoly, nvars=nvars, terms={unpack(ex, nvars, width): Fraction(c, q)
                                                   for ex, c in total.items()})


def _lcd_numerator(table, ranked):
    """(N, lcd, width) for the sum of c / prod rows[i] over the nonempty
    {sorted rank tuple: int c} ranked, rows those of the _RowTable table,
    whose forms it reads: its least common denominator (LCD)
    as {i: power of rows[i]} in ascending i, and N = sum of c LCD / D over
    the terms, a {packed exponent: nonzero int} dict with width bits per
    slot (core.packed_width of the LCD degree, which bounds every
    exponent).  The pole decision builds it of one form's carriers, a
    numerator read of the whole sum.

    N is built once, by halves (_by_halves).  The terms go in the order of
    their reversed rank tuples, so the terms that share their highest
    forms fall in the same halves: rows sort by their coefficients, so in
    a flag sum the highest are those of the deepest dense edges, which
    many flags share, and a half's LCD stays small.
    """
    lcd = {i: k for i, (k, _) in sorted(_by_form(ranked.items()).items())}
    width = packed_width(sum(lcd.values()))
    factors, first = [], {}
    for i, k in lcd.items():
        f = table.forms[i]
        first[i] = len(factors)
        factors += [(packed_steps(f, width), f.const)] * k
    terms = []
    for dens, c in sorted(ranked.items(), key=lambda t: t[0][::-1]):
        has, k, prev = 0, 0, None
        for i in dens:
            k = k + 1 if i == prev else 0
            prev = i
            has |= 1 << (first[i] + k)
        terms.append((has, c))
    return {ex: c for ex, c in _by_halves(terms, factors)[0].items() if c}, lcd, width


def _by_halves(terms, factors):
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
    left, lhas = _by_halves(terms[:half], factors)
    right, rhas = _by_halves(terms[half:], factors)
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
        rank = z._sum[0].root_rank
        pairs = sorted((rank[id(f)], k) for f, k in z.denominator.items())
        return PoleReport(univariate=[(root, k) for (_, root), k in pairs])
    return PoleReport(multivariate=z.denominator_factors())


# ---------------------------------------------------------------------------
# the flag formula

def _flag_sum(arr, multi):
    """The flag formula over the dense edges summed with equal denominators
    merged, in _denominator's shape: (rows, {sorted rank tuple: int}, q),
    the sum of c / (q prod rows[i]) over the entries.  rows are the sorted
    distinct integer rows of the dense edges' pole forms
    (IntersectionLattice.dense).  No flag is enumerated, no Fraction or
    AffineForm is made and no flat is hashed: every flat is read by its
    position.

    D(X), the sum over the flags from X up to the ambient space, is the
    local zeta at a generic point of X, and 1 with no denominator at the
    ambient space.  A dense X has the canonical pole form and scale L_X,
    s_X of its row in the lattice's _PoleTable (_pole_table), and

        D(X) = sum of interval_euler(Y, X) * D(Y) / (s_X L_X)

    over the flats Y < X with a nonzero interval_euler, read by lattice
    position from X's row of IntersectionLattice.euler.  Any other proper
    X is the direct sum of its components G_1, ..., G_k (k >= 2), the
    maximal dense flats below it, and the zeta of a direct sum is the
    product of the zetas: D(X) = D(G_1) ... D(G_k).  It is taken as
    D(Y) D(G), (Y, G) the split the lattice records once
    (IntersectionLattice.splits): G one component and Y the join of the
    others, the one of least position.  Such an X has no Euler row and
    needs none.  Each flat Y < X is the join of flats Y_i <= G_i, and
    [Y, X] is the product of the [Y_i, G_i]; Crapo's beta of a product of
    two lattices of rank at least 1 is 0, so interval_euler(Y, X) is
    nonzero only when all Y_i but one equal their G_i, and is then
    interval_euler(Y_i, G_i): the product rule, by which
    IntersectionLattice.interval_euler and euler_below read such an X;
    the first flat of its row so read is the first flat of its split.  The
    answer is D(minimal flat).

    The sums run over the classes of the table's plan (_PoleTable.plan),
    in lattice order, one D per class in a list indexed by class: a dense
    class's key holds its unit and, per class c below, the sum e of
    interval_euler over its row's flats in c, and its D is the sum of the
    e D(c) over its unscaled form; a split class's key is the pair of its
    split's classes and its D their product.  Equal keys give equal D by
    induction, so every flat of a class has its D.  D has integer
    coefficients over monomials in the unscaled forms s_X L_X, one slot
    per distinct (row, scale) pair in sorted order, packed like an
    exponent vector into one int with core.packed_width(rank) bits per
    slot (a term of D(X) has at most codim X factors): adding s_X L_X adds
    one int, the table's unit of X, and a product of monomials is a sum,
    so no flat keeps a denominator.  The slots, units, rows and plan come
    from the table; the class sums are made on every call.  At the
    minimal flat each key is
    read from its highest slot down into the sorted tuple of its form
    ranks and the product p of its scales, and c / p is added to that
    tuple's entry over q, the lcm of the p so far, the entries made being
    multiplied up as q grows.  Dividing out the gcd of q and the
    coefficients leaves the one integer shape of these rational entries
    with the least q, however the terms were grouped; the order of the
    entries follows the grouping.  Zero entries are left to
    ZetaFunction._quotient.
    """
    lattice = arr.lattice
    table = _pole_table(arr, lattice, multi)
    sums = [{0: 1}]
    for u, parts in table.plan(lattice)[0]:
        out = {}
        if u:
            for c, e in parts:
                for key, v in sums[c].items():
                    key += u
                    out[key] = out.get(key, 0) + e * v
        else:
            y, g = parts
            dg = sums[g]
            for ky, cy in sums[y].items():
                for kg, cg in dg.items():
                    out[ky + kg] = out.get(ky + kg, 0) + cy * cg
        sums.append(out)
    slots, width = table.slots, table.width
    ranked, q = {}, 1
    for key, c in sums[-1].items():
        dens, p = [], 1
        while key:
            i = (key.bit_length() - 1) // width
            n = key >> width * i
            key -= n << width * i
            r, scale = slots[i]
            dens += r * n
            p *= scale ** n
        dens = tuple(reversed(dens))
        if q % p:
            m = p // gcd(q, p)
            q *= m
            for d in ranked:
                ranked[d] *= m
        ranked[dens] = ranked.get(dens, 0) + c * (q // p)
    g = gcd(q, *ranked.values())
    for dens in ranked:
        ranked[dens] //= g
    return list(table.rows), ranked, q // g


def _local(arr, multi, point):
    if point is not None:
        arr = localize_at_point(arr, point)
    if not arr.central:
        raise ArrangementError("zeta needs a central arrangement (every hyperplane "
                               "through the origin)")
    if arr.r == 0:
        raise ArrangementError("the empty arrangement has no zeta function")
    _, ranked, q = _flag_sum(arr, multi)
    return ZetaFunction._merged(len(_factor_rows(arr, multi)), _pole_table(arr, arr.lattice, multi),
                                ranked, q)


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
