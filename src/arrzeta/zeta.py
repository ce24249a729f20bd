"""Topological zeta functions of hyperplane arrangements.

The local and global (multivariate) topological zeta functions are computed
from the maximal wonderful model of the arrangement, whose boundary strata
are indexed by flags of proper flats.  Each flag of flats W_1 < ... < W_k
(strictly increasing subspaces) contributes the product of the Euler
characteristics of the projectivized complements of the interval
arrangements along the flag divided by the product of the corresponding
(N s + nu) factors.  The local zeta sums the flags starting at the minimal
flat.  The global one sums all flags weighted by the Euler characteristic
of the open stratum of the first flat, plus the empty flag; on a central
arrangement that is the local sum (see global_zeta).  The interval Euler
characteristics are read off the Mobius table (interval_euler) of the
arrangement's one intersection lattice, Arrangement.lattice; no interval
arrangement is built.

Results are exact rational functions: a list of flag terms plus a
normalized numerator / denominator pair in which every removable linear
factor has been cancelled, so the reported poles are genuine.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import lcm

from .core import (AffineForm, MultiPoly, _add_times_affine, div_linear,
                   format_poly, integer_kernel, poly_eval, rational)
from .arrangement import ArrangementError, dense_edges, localize_at_point


class ResolutionDatum:
    """Numerical data of the boundary divisor attached to a proper flat.

    N: total multiplicity sum of d_i over the flat's index set.
    nu: discrepancy plus one, equal to the codimension of the flat.
    ord: per-factor multiplicities (sum of factor exponents over the index
        set), present only when the arrangement carries a factorization.
    """

    def __init__(self, flat, N, nu, ord=None):
        self.flat = flat
        self.N = int(N)
        self.nu = int(nu)
        self.ord = tuple(int(e) for e in ord) if ord is not None else None

    def __repr__(self):
        extra = ", ord=%r" % (self.ord,) if self.ord is not None else ""
        return "ResolutionDatum(%r, N=%d, nu=%d%s)" % (self.flat, self.N, self.nu, extra)


def resolution_datum(arr, flat):
    if flat.codim == 0:
        raise ArrangementError("the ambient flat carries no resolution datum")
    N = sum(arr.mults[i] for i in flat.indices)
    ords = None
    if arr.factors is not None:
        ords = tuple(sum(row[i] for i in flat.indices) for row in arr.factors)
    return ResolutionDatum(flat, N, flat.codim, ords)


def candidate_poles(arr, multi=False, lattice=None):
    """Candidate poles read off the dense edges.

    Univariate: the rationals -nu/N, sorted descending.  Multivariate: the
    canonical affine forms of (ord, nu), sorted; requires a factorization.
    lattice as for dense_edges.
    """
    dense = dense_edges(arr, lattice)
    if multi:
        if arr.factors is None:
            raise ArrangementError("multivariate candidate poles need a factorization")
        forms = {AffineForm.canonical(resolution_datum(arr, f).ord, f.codim)[0]
                 for f in dense}
        return sorted(forms)
    roots = {Fraction(-f.codim, sum(arr.mults[i] for i in f.indices)) for f in dense}
    return sorted(roots, reverse=True)


# ---------------------------------------------------------------------------
# the rational function container

class ZetaFunction:
    """Sum of constant/product-of-affine-forms terms, kept in two shapes.

    terms: the raw flag contributions (coefficient, denominator factors).
    numerator, denominator: the normalized quotient over the least common
        denominator with all removable affine factors cancelled; the pole
        data is read from this shape.  A zero sum has zero numerator and
        empty denominator.
    """

    def __init__(self, nvars, terms):
        self.nvars = int(nvars)
        clean = []
        for coef, dens in terms:
            coef = rational(coef)
            dens = tuple(sorted(dens))
            for f in dens:
                if not isinstance(f, AffineForm) or f.nvars != self.nvars:
                    raise ValueError("denominator factor %r does not match %d variables"
                                     % (f, self.nvars))
            if coef != 0:
                clean.append((coef, dens))
        self.terms = tuple(clean)
        self.numerator, self.denominator = self._normalize()

    def _normalize(self):
        # terms with equal denominators are summed first; the LCD still
        # covers every raw term, also those whose sum is zero.  The merged
        # coefficients are scaled to integers by the lcm of their
        # denominators, each term is expanded against the LCD on a raw
        # integer dict, and the sum is divided by that one scale at the end
        lcd = {}
        merged = {}
        for coef, dens in self.terms:
            for f, k in Counter(dens).items():
                lcd[f] = max(lcd.get(f, 0), k)
            merged[dens] = merged.get(dens, Fraction(0)) + coef
        merged = {dens: coef for dens, coef in merged.items() if coef}
        scale = lcm(*(coef.denominator for coef in merged.values()))
        pairs = {f: [(j, c) for j, c in enumerate(f.coeffs) if c] for f in lcd}
        total = {}
        for dens, coef in merged.items():
            part = {(0,) * self.nvars: coef.numerator * (scale // coef.denominator)}
            counts = Counter(dens)
            for f, k in lcd.items():
                for _ in range(k - counts.get(f, 0)):
                    part = _add_times_affine({}, part, pairs[f], f.const)
            for ex, c in part.items():
                total[ex] = total.get(ex, 0) + c
        num = MultiPoly(self.nvars, {ex: Fraction(c, scale) for ex, c in total.items() if c})
        if num.is_zero():
            return num, {}
        den = dict(lcd)
        for f in sorted(den):
            while den[f] > 0:
                quot, rem = div_linear(num, f)
                if not rem.is_zero():
                    break
                num = quot
                den[f] -= 1
            if den[f] == 0:
                del den[f]
        if num.total_degree() >= sum(den.values()):
            raise ValueError("zeta function is not a proper rational function")
        return num, den

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
        """Exact value summed term by term (raw shape); cross-check route."""
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

def _flag_terms(arr, multi):
    """The flag formula, walked level by level from the minimal flat.

    A flag W_1 < ... < W_k (W_1 the minimal flat) carries the running
    product of interval_euler(W_(j+1), W_j) over the scales of its
    denominator forms, and its term is that times interval_euler(ambient,
    W_k).  A flag whose product is 0 is not extended.  Each level extends
    the flags of the one before, in order, by the proper flats in order,
    so terms come out by length, then by flat keys.
    """
    lattice = arr.lattice
    ambient = lattice.ambient
    proper = lattice.proper_flats()
    forms = {}
    for f in proper:
        d = resolution_datum(arr, f)
        forms[f] = AffineForm.canonical(d.ord if multi else (d.N,), d.nu)

    @cache
    def extensions(x):
        return [(g, e) for g in proper if g.indices < x.indices
                for e in (lattice.interval_euler(g, x),) if e]

    vmin = lattice.minimal_flat()
    form, scale = forms[vmin]
    level = [(vmin, Fraction(1, scale), (form,))]
    terms = []
    while level:
        for x, coef, dens in level:
            top = lattice.interval_euler(ambient, x)
            if top:
                terms.append((coef * top, dens))
        level = [(g, coef * e / forms[g][1], dens + (forms[g][0],))
                 for x, coef, dens in level for g, e in extensions(x)]
    return terms


def _zeta_nvars(arr, multi):
    if not multi:
        return 1
    if arr.factors is None:
        raise ArrangementError("multivariate zeta needs a factorization")
    return len(arr.factors)


def _local(arr, multi, point):
    if point is not None:
        arr = localize_at_point(arr, point)
    if not arr.central:
        raise ArrangementError("zeta needs a central arrangement unless a point "
                               "is given for the local zeta")
    if arr.r == 0:
        raise ArrangementError("the empty arrangement has no zeta function")
    return ZetaFunction(_zeta_nvars(arr, multi), _flag_terms(arr, multi))


def local_zeta(arr, point=None):
    """The local topological zeta function at the origin (or at a point).

    With a point, the arrangement is first localized there; without one the
    arrangement must be central and the origin is used.  Flags start at the
    minimal flat, the intersection of all hyperplanes, which is the origin
    exactly when the arrangement is essential.  The flags are read off the
    arrangement's lattice (Arrangement.lattice); a localized arrangement is
    a new Arrangement with a lattice of its own.
    """
    return _local(arr, False, point)


def global_zeta(arr):
    """The global topological zeta function of a central arrangement.

    It is the local zeta at the origin, terms included.  The global flag
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
    nvars = _zeta_nvars(arr, multi)
    forms = []
    for i in range(arr.r):
        if multi:
            coeffs = tuple(row[i] for row in arr.factors)
        else:
            coeffs = (arr.mults[i],)
        form, scale = AffineForm.canonical(coeffs, 1)
        assert scale == 1
        forms.append(form)
    return ZetaFunction(nvars, [(Fraction(1), forms)])


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
