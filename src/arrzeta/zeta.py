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
one term per distinct denominator, and a normalized numerator / denominator
pair in which every removable linear factor has been cancelled over the
integers (_normalize), so the reported poles are genuine.  _normalize
takes the flag sum's integer shape directly; ZetaFunction(nvars, terms)
converts given terms to it once.  The numerator over the least common
denominator (LCD) is built once, as fractions are added over their lcm,
by halves (_lcd_numerator): each half of the terms is summed over its own
LCD and multiplied by the factors that the other half's LCD has and its
own lacks, so a factor multiplies one partial sum per half, not each term.
The expansion and the cancelling divisions work on one raw integer dict
keyed by packed exponents, each exponent vector one int with a fixed
number of bits per variable (core.packed_width), and the numerator is
unpacked into a MultiPoly once, at the end; Fractions are made only there
and for the coefficients of terms.  In two or more variables a factor is
divided only when it may divide: on a form's hyperplane only the terms
that carry it to its full LCD power survive, and if their sum is nonzero
at one point of it, modulo a prime, the form keeps its whole power with no
division (_kept_whole).
"""

from fractions import Fraction
from math import gcd, lcm

from .core import (AffineForm, MultiPoly, _add_times_form, as_int, div_linear,
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
    rows = _factor_rows(arr, multi)
    out = []
    for f in flats:
        row = [sum(r[i] for i in f.indices) for r in rows] + [f.codim]
        g = gcd(*row)
        out.append((tuple(c // g for c in row), g))
    return out


def _form(row):
    return AffineForm(row[:-1], row[-1])


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
        the flag sum with equal denominators merged, sorted by denominator.
    numerator, denominator: the normalized quotient over the least common
        denominator with all removable affine factors cancelled; the pole
        data is read from this shape.  A zero sum has zero numerator and
        empty denominator.
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
    def _merged(cls, nvars, forms, ranked, q):
        """The zeta function of a sum already in _normalize's shape, such as
        the flag sum; terms are its nonzero entries as Fractions, sorted by
        denominator."""
        z = cls.__new__(cls)
        z.nvars = nvars
        z.terms = tuple((Fraction(c, q), tuple(forms[i] for i in dens))
                        for dens, c in sorted(ranked.items()) if c)
        z._quotient(forms, ranked, q)
        return z

    def _quotient(self, forms, ranked, q):
        self.numerator, self.denominator = _normalize(self.nvars, forms, ranked, q)
        if (self.numerator.terms
                and self.numerator.total_degree() >= sum(self.denominator.values())):
            raise ValueError("zeta function is not a proper rational function")

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
        return self.numerator.is_zero()

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
                and self.numerator == other.numerator
                and self.denominator == other.denominator)

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


def _normalize(nvars, forms, ranked, q):
    """The reduced quotient of the sum of c / (q prod forms[i]) over the
    {sorted rank tuple: int c} entries of ranked, as (numerator MultiPoly,
    {form: multiplicity}).  forms are distinct canonical forms in sorted
    order, and a denominator is a sorted tuple of indices into them.

    The numerator N = sum of c LCD / D over the least common denominator is
    built once by _lcd_numerator, which adds halves of the terms over their
    own LCDs.  The terms go in the order of their reversed rank tuples, so
    the terms that share their highest forms fall in the same halves.
    Forms sort by their coefficients, so in a flag sum the highest are
    those of the deepest flats, which many flags share, and a half's LCD
    stays small: the plain tuple order multiplied 1.5 to 2.2 times as many
    monomials on the multivariate zeta of ninefold (hyperplane i in factor
    i mod 5 or 7) and of braid A5 and A6 (i mod 2).  N is a raw integer
    dict on packed exponents (core.packed_width of the LCD degree, which
    bounds every exponent).  Every denominator factor that divides it is
    cancelled there (div_linear, on the same packed dict), and the one
    MultiPoly is made at the end, unpacked and divided by q.  In two or
    more variables a form goes to div_linear only when _kept_whole, which
    reads the terms that carry it to its full LCD power at one point of
    its hyperplane, cannot prove that it does not divide N; div_linear
    stays the only code that cancels a factor.  On ninefold with
    hyperplane i in factor i mod 5 that leaves 4 of the 18 divisions, all
    of which succeed.  One variable skips the check: there N has at most
    deg + 1 coefficients, so a division costs about as much.  The reduced
    quotient with canonical denominator forms is unique, so any grouping of
    the same sum into merged terms gives the same numerator and
    denominator.  The quotient need not be proper; ZetaFunction checks that.
    """
    ranked = {dens: c for dens, c in ranked.items() if c}
    if not ranked:
        return MultiPoly(nvars), {}
    lcd = {}
    for dens in ranked:
        k, prev = 0, None
        for i in dens:
            k = k + 1 if i == prev else 1
            prev = i
            if k > lcd.get(i, 0):
                lcd[i] = k
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
    if not total:
        return MultiPoly(nvars), {}
    kept = _kept_whole(forms, ranked, lcd) if nvars > 1 else ()
    den = {}
    for i in sorted(lcd):
        f, k = forms[i], lcd[i]
        while k and i not in kept:
            quot = div_linear(total, f, width)
            if quot is None:
                break
            total = quot
            k -= 1
        if k:
            den[f] = k
    return MultiPoly(nvars, {unpack(ex, nvars, width): Fraction(c, q)
                             for ex, c in total.items()}), den


# a Mersenne prime, the modulus of _kept_whole's values
_PRIME = (1 << 61) - 1


def _point(nvars):
    """The fixed residues modulo _PRIME, one per variable, from which
    _kept_whole takes its points: the powers of one odd 64-bit constant,
    so that forms with small coefficients seldom vanish there."""
    return [pow(0x2545F4914F6CDD1D, j + 1, _PRIME) for j in range(nvars)]


def _kept_whole(forms, ranked, lcd):
    """The indices i of the LCD forms f = forms[i] that provably do not
    divide the numerator N over the LCD, in two or more variables; the
    arguments are _normalize's.  Such an f keeps its whole LCD power e.

    Only the terms whose denominator has f^e, the carriers, survive in N
    on f = 0: there N is S times the product of the other forms h to the
    powers lcd_h - M_h, where S is the sum of c prod h^(M_h - k_h) over
    the carriers, k_h a carrier's power of h and M_h the largest of them.
    Distinct canonical forms are never proportional, so no other form
    vanishes on the whole hyperplane f = 0, and f divides N exactly when
    it divides S.  S is read at one point of f = 0 modulo _PRIME: the
    coordinates other than f's pivot m are the fixed residues of _point,
    and t = c_m s_m solves f = 0 there.  Every form's value is scaled by
    c_m, w_h = c_m h = h_m t + c_m (the rest of h), so a carrier's
    c / prod h^k_h is c c_m^a / prod w_h^k_h, a its number of factors
    other than f: every carrier is brought to the same power of c_m.  The
    carriers sum to S / prod h^M_h, kept as one fraction so that no
    inverse is taken.  If the sum is nonzero, so is S at a point of f = 0
    modulo _PRIME; f, primitive, then does not divide S over the
    integers (Gauss's lemma) and keeps its power.  A zero sum, or a
    carrier's w_h that vanishes, proves nothing, and _normalize divides
    as before.
    """
    point = _point(forms[0].nvars)
    at = [(sum(a * x for a, x in zip(f.coeffs, point)) + f.const) % _PRIME for f in forms]
    carriers = {}
    for dens, c in ranked.items():
        for i in set(dens):
            if dens.count(i) == lcd[i]:
                carriers.setdefault(i, []).append((dens, c))
    kept = set()
    for i, group in carriers.items():
        f, e = forms[i], lcd[i]
        m = next(j for j, c in enumerate(f.coeffs) if c)
        cm = f.coeffs[m]
        if not cm % _PRIME:
            continue
        t = cm * point[m] - at[i]
        w = {}
        num, den = 0, 1
        for dens, c in group:
            d = 1
            for h in dens:
                if h != i:
                    if h not in w:
                        hm = forms[h].coeffs[m]
                        w[h] = (hm * t + cm * (at[h] - hm * point[m])) % _PRIME
                    d = d * w[h] % _PRIME
            if not d:
                break
            num = (num * d + c * pow(cm, len(dens) - e, _PRIME) * den) % _PRIME
            den = den * d % _PRIME
        else:
            if num:
                kept.add(i)
    return kept


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
    _normalize's shape: (forms, {sorted rank tuple: int}, q), the sum of
    c / (q prod forms[i]) over the entries.  No flag is enumerated and no
    Fraction is made.

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
    denominators do, and one AffineForm is made per distinct form.
    """
    lattice = arr.lattice
    pole_rows = _pole_forms(arr, lattice.proper_flats(), multi)
    rows = sorted({row for row, _ in pole_rows})
    width = packed_width(lattice.minimal_flat().codim)
    step = {row: 1 << width * i for i, row in enumerate(rows)}
    sums = [(1, {0: 1})]
    for below, (row, scale) in zip(lattice.euler[1:], pole_rows):
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
    return [_form(row) for row in rows], ranked, q


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
