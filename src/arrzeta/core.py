"""Exact rational linear algebra and polynomial utilities.

Everything in this package computes over Q with arbitrary precision: ranks
and kernels of coefficient matrices, polynomials for zeta numerators, and
integer affine forms for zeta denominators and wall levels.  No floating
point is used anywhere.  Polynomial arithmetic runs on packed integer
dicts (_add_times_form, div_linear); MultiPoly is only the exact result
type a finished numerator or characteristic polynomial is returned in.

Rational numbers are stdlib fractions (already canonical: reduced, positive
denominator); integer data is an int that is not a bool, or a Fraction with
denominator 1, and nothing is truncated to fit.  Matrices are immutable and
row major.  Ranks and kernels are computed over the integers by
fraction-free elimination (integer_kernel), which picks the first nonzero
entry in column order as pivot, so ranks, kernels and everything derived
from them are deterministic.  The intersection lattice is built on these
integer kernels without making a Fraction.
"""

from fractions import Fraction
from math import gcd, lcm


def _trusted(cls, **fields):
    """An instance of cls with the given fields, taken as they are: the
    caller guarantees data that cls's constructor would accept unchanged,
    so nothing is checked or copied."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def rational(x):
    """Coerce an int, a 'p/q' string or a Fraction to a Fraction; anything
    else, a bool or a float included, raises ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError("bad rational literal %r: %s" % (x, e))
    raise ValueError("cannot interpret %r as a rational" % (x,))


def as_int(x, what, error=ValueError):
    """x as an int, if it is an int that is not a bool or a Fraction with
    denominator 1; anything else raises error naming what."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)) or x.denominator != 1:
        raise error("%s must be an integer, got %r" % (what, x))
    return int(x)


def vector(entries):
    return tuple(rational(e) for e in entries)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dot of vectors with lengths %d and %d" % (len(u), len(v)))
    return sum((rational(a) * rational(b) for a, b in zip(u, v)), Fraction(0))


class QMatrix:
    """Immutable dense matrix over Q."""

    def __init__(self, rows, cols, entries):
        entries = tuple(rational(e) for e in entries)
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("expected %d entries, got %d" % (rows * cols, len(entries)))
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, rows, cols=None):
        rows = [vector(r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(len(rows), cols, [e for r in rows for e in r])

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __repr__(self):
        return "QMatrix(%d x %d)" % (self.rows, self.cols)


def integer_kernel(rows, cols):
    """Integer kernel vectors of an integer matrix, and their common scale.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968, in
    the reduced form of Nakos, Turner and Williams, 1997): at each pivot p
    every other row becomes (p * row - a * pivot row) / d, with a its entry
    in the pivot column and d the previous pivot, and the division is
    exact.  Pivots are the first nonzero entries in column order, as in
    row reduction over Q, so the reduced matrix is den times the reduced
    row echelon form, den being the last pivot (1 when there is none).
    Returns (vectors, den): one vector w per free column f, in increasing
    order, with w = den * v for the kernel basis vector v that has v[f] = 1
    and zeros at the other free columns.  rows is a list of integer lists
    of length cols; no rows means the kernel is everything.
    """
    rows = [list(r) for r in rows]
    pivots = []
    den = 1
    for c in range(cols):
        r = len(pivots)
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                a = row[c]
                rows[i] = [(p * x - a * y) // den for x, y in zip(row, top)]
        den = p
        pivots.append(c)
    vectors = []
    for f in range(cols):
        if f not in pivots:
            w = [0] * cols
            w[f] = den
            for row, p in zip(rows, pivots):
                w[p] = -row[f]
            vectors.append(tuple(w))
    return vectors, den


def rank(m):
    """Rank of a QMatrix or of a list of rows, over the integers: scaling
    each row by the lcm of its denominators keeps the kernel."""
    if not isinstance(m, QMatrix):
        m = QMatrix.from_rows(m)
    rows = []
    for i in range(m.rows):
        row = m.row(i)
        den = lcm(*(e.denominator for e in row))
        rows.append([e.numerator * (den // e.denominator) for e in row])
    return m.cols - len(integer_kernel(rows, m.cols)[0])


def primitive_key(v):
    """A nonzero integer vector divided by the gcd of its entries, with the
    sign that makes the first nonzero entry positive: equal exactly for
    proportional vectors.  A vector that is already so comes back as a
    tuple, undivided."""
    g = gcd(*v)
    if next(e for e in v if e) < 0:
        g = -g
    if g == 1:
        return tuple(v)
    return tuple(e // g for e in v)


def primitive_normal(v):
    """The coprime integer vector spanning the same line, first nonzero
    entry positive.  A vector of ints is taken as it is; any other entries
    are coerced (rational) and scaled by the lcm of their denominators.

    Examples: (2, -2, 4) -> (1, -1, 2) and (0, -3/4) -> (0, 1).
    """
    v = tuple(v)
    if not all(type(e) is int for e in v):
        v = vector(v)
        den = lcm(*(e.denominator for e in v))
        v = [e.numerator * (den // e.denominator) for e in v]
    if not any(v):
        raise ValueError("zero vector has no primitive normal")
    return primitive_key(v)


# ---------------------------------------------------------------------------
# sparse polynomials over Q

class MultiPoly:
    """Sparse polynomial over Q in a fixed number of variables, the exact
    result type of zeta numerators and characteristic polynomials.

    terms maps exponent tuples to nonzero rational coefficients; instances
    are treated as immutable.  The one arithmetic kept is the product,
    which the benchmark's tracer (perfbench/tracer.py) wraps.
    """

    def __init__(self, nvars, terms=None):
        if nvars < 0:
            raise ValueError("negative variable count")
        self.nvars = nvars
        clean = {}
        for ex, c in (terms or {}).items():
            c = rational(c)
            if c == 0:
                continue
            if type(ex) is not tuple or not all(type(e) is int for e in ex):
                ex = tuple(as_int(e, "an exponent") for e in ex)
            if len(ex) != nvars or any(e < 0 for e in ex):
                raise ValueError("bad exponent tuple %r for %d variables" % (ex, nvars))
            clean[ex] = c
        self.terms = clean

    def is_zero(self):
        return not self.terms

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            c = rational(other)
            return MultiPoly(self.nvars, {ex: a * c for ex, a in self.terms.items()})
        if not isinstance(other, MultiPoly):
            raise TypeError("cannot combine MultiPoly with %r" % (other,))
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch: %d vs %d" % (self.nvars, other.nvars))
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                ex = tuple(a + b for a, b in zip(e1, e2))
                out[ex] = out.get(ex, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms sorted by total degree descending, then exponents descending."""
        return sorted(self.terms.items(), key=lambda t: (-sum(t[0]), tuple(-e for e in t[0])))

    def __repr__(self):
        return "MultiPoly(%s)" % format_poly(self)


def poly_eval(p, point):
    """Evaluate a MultiPoly at a tuple of rationals."""
    point = vector(point)
    if len(point) != p.nvars:
        raise ValueError("point length %d, polynomial has %d variables" % (len(point), p.nvars))
    total = Fraction(0)
    for ex, c in p.terms.items():
        v = c
        for x, e in zip(point, ex):
            if e:
                v *= x ** e
        total += v
    return total


def format_poly(p, names=None):
    if names is None:
        names = ["s"] if p.nvars == 1 else ["s%d" % (j + 1) for j in range(p.nvars)]
    if not p.terms:
        return "0"
    parts = []
    for ex, c in p.sorted_terms():
        mono = "*".join(("%s" % names[j] if e == 1 else "%s^%d" % (names[j], e))
                        for j, e in enumerate(ex) if e)
        if not mono:
            body = str(c)
        elif c == 1:
            body = mono
        elif c == -1:
            body = "-" + mono
        else:
            body = "%s*%s" % (c, mono)
        parts.append(body)
    out = parts[0]
    for body in parts[1:]:
        out += " - " + body[1:] if body.startswith("-") else " + " + body
    return out


# ---------------------------------------------------------------------------
# integer affine forms  c . s + k

class AffineForm:
    """Canonical integer affine form  c_1 s_1 + ... + c_k s_k + const.

    Canonical means: the gcd of all coefficients and the constant is 1 and
    the first nonzero coefficient is positive.  Use AffineForm.canonical to
    normalize arbitrary integer data; it also reports the scale factor that
    was divided out, which zeta bookkeeping absorbs into term coefficients.
    The coefficient vector is never all zero (a constant is not a form).
    """

    def __init__(self, coeffs, const):
        coeffs = tuple(as_int(c, "an affine form coefficient") for c in coeffs)
        const = as_int(const, "an affine form constant")
        if not coeffs or all(c == 0 for c in coeffs):
            raise ValueError("affine form needs a nonzero coefficient vector")
        g = gcd(*coeffs, const)
        if g != 1:
            raise ValueError("non-canonical affine form (content %d); use AffineForm.canonical" % g)
        if next(c for c in coeffs if c) < 0:
            raise ValueError("non-canonical affine form (sign); use AffineForm.canonical")
        self.coeffs = coeffs
        self.const = const

    @classmethod
    def canonical(cls, coeffs, const):
        """Normalize integer data; return (form, scale) with input = scale * form."""
        coeffs = [as_int(c, "an affine form coefficient") for c in coeffs]
        const = as_int(const, "an affine form constant")
        if not coeffs or all(c == 0 for c in coeffs):
            raise ValueError("affine form needs a nonzero coefficient vector")
        g = gcd(*coeffs, const)
        if next(c for c in coeffs if c) < 0:
            g = -g
        # the quotient is canonical by construction: not checked again
        return _trusted(cls, coeffs=tuple(c // g for c in coeffs), const=const // g), g

    @property
    def nvars(self):
        return len(self.coeffs)

    def evaluate(self, point):
        point = vector(point)
        if len(point) != self.nvars:
            raise ValueError("point length %d, form has %d variables" % (len(point), self.nvars))
        return dot(self.coeffs, point) + self.const

    def root(self):
        """The zero of a univariate form, as a Fraction."""
        if self.nvars != 1:
            raise ValueError("root is only defined for univariate forms")
        return Fraction(-self.const, self.coeffs[0])

    def _key(self):
        return (self.coeffs, self.const)

    def __eq__(self, other):
        return isinstance(other, AffineForm) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __lt__(self, other):
        if not isinstance(other, AffineForm):
            return NotImplemented
        return self._key() < other._key()

    def __repr__(self):
        return "AffineForm(%s)" % self.format_str()

    def format_str(self, names=None):
        if names is None:
            names = ["s"] if self.nvars == 1 else ["s%d" % (j + 1) for j in range(self.nvars)]
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            body = names[j] if abs(c) == 1 else "%d*%s" % (abs(c), names[j])
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        if self.const:
            parts.append(("+ %d" if self.const > 0 else "- %d") % abs(self.const))
        return " ".join(parts)


# ---------------------------------------------------------------------------
# integer polynomials on packed exponents
#
# An integer polynomial that is being expanded or divided is a raw
# {packed exponent: int} dict.  The exponent vector (e_1, ..., e_n) is
# packed into the one int sum of e_j << width * j, where width is
# packed_width of a bound on every exponent; multiplying by s_j adds
# 1 << width * j, and the exponent of s_j is ex >> width * j & mask.

def packed_width(degree):
    """Bits per variable for exponents up to degree: its bit length plus
    one."""
    return degree.bit_length() + 1


def packed_steps(form, width):
    """The (1 << width * j, c_j) pairs of the nonzero coefficients c_j of
    an affine form: multiplying a monomial by c_j s_j adds the step."""
    return [(1 << width * j, c) for j, c in enumerate(form.coeffs) if c]


def unpack(ex, nvars, width):
    """The exponent tuple of a packed exponent."""
    mask = (1 << width) - 1
    return tuple(ex >> width * j & mask for j in range(nvars))


def _add_times_form(out, terms, steps, const):
    """Add terms * (sum of c s_j over the packed (step, c) pairs, plus
    const) into out and return out.  terms and out are raw {packed
    exponent: int} dicts; out may keep zero entries."""
    for ex, a in terms.items():
        if const:
            out[ex] = out.get(ex, 0) + a * const
        for step, c in steps:
            up = ex + step
            out[up] = out.get(up, 0) + a * c
    return out


def div_linear(terms, form, width):
    """The quotient of an integer polynomial, a raw {packed exponent: int}
    dict of the given width, by the affine form c_m s_m + g (m its first
    pivot variable), or None if the form does not divide it.  The quotient
    is a dict of the same width.  No Fraction is made.

    The polynomial is sliced, by the exponent (ex >> width * m) & mask of
    s_m, as the sum of P_k s_m^k with P_k free of s_m.  Horner's scheme
    runs from the top degree d down: Q_{d-1} = P_d / c_m, then
    Q_{k-1} = (P_k - g Q_k) / c_m, and the remainder P_0 - g Q_0 is zero
    exactly when the form divides.  A canonical form is primitive, so by
    Gauss's lemma a quotient over Q has integer coefficients, which the
    steps compute: a step that c_m does not divide exactly proves that the
    form does not divide either.
    """
    m = next(j for j, c in enumerate(form.coeffs) if c)
    cm = form.coeffs[m]
    unit, mask = 1 << width * m, (1 << width) - 1
    minus_g = [(step, -c) for step, c in packed_steps(form, width) if step != unit]
    slices = {}
    for ex, c in terms.items():
        k = ex >> width * m & mask
        slices.setdefault(k, {})[ex - k * unit] = c
    quot, q = {}, {}
    for k in range(max(slices, default=0), 0, -1):
        low = _add_times_form(slices.pop(k, {}), q, minus_g, -form.const)
        q = {}
        for ex, c in low.items():
            if c:
                c, r = divmod(c, cm)
                if r:
                    return None
                q[ex] = c
                quot[ex + (k - 1) * unit] = c
    rem = _add_times_form(slices.pop(0, {}), q, minus_g, -form.const)
    return None if any(rem.values()) else quot
