"""Verification workflows tying the zeta, wall and polytope machinery together.

The checkable content here comes in three layers:

* numerics of the singularity: the log canonical threshold and the log
  canonical polytope cut out by the dense edges;
* adapted vectors: points of the polytope with non-integral partial sums at
  every dense edge except the origin, produced from the leverage scores of
  the normals and certified by an independent validator;
* conjecture checks: whether -n/d is a candidate pole (and whether it is an
  actual pole), and whether every pole of the zeta function lies in a
  supplied set of Bernstein-Sato roots (resp. in a supplied zero locus for
  the multivariate version).

Verdicts carry their evidence: each one records the computed values it
judged, so a report can be audited without rerunning anything.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .core import AffineForm, as_int, integer_kernel, rational
from .arrangement import ArrangementError, dense_edges
from .zeta import (candidate_poles, local_zeta, multivariate_global_zeta,
                   multivariate_local_zeta, poles)


class Verdict:
    """Outcome of a verification: a boolean, witnesses, and raw values."""

    def __init__(self, passed, witnesses, data=None):
        self.passed = bool(passed)
        self.witnesses = tuple(witnesses)
        self.data = dict(data or {})

    def __bool__(self):
        return self.passed

    def __repr__(self):
        head = "PASS" if self.passed else "FAIL"
        return "Verdict(%s: %s)" % (head, "; ".join(self.witnesses))


class BRootSet:
    """A finite set of rational roots of a Bernstein-Sato polynomial."""

    def __init__(self, roots):
        self.roots = frozenset(rational(x) for x in roots)
        if not self.roots:
            raise ValueError("empty root set")

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or not isinstance(obj.get("roots"), list):
            raise ValueError('root data must be an object with a "roots" list')
        if not all(isinstance(x, (int, str)) and not isinstance(x, bool)
                   for x in obj["roots"]):
            raise ValueError('roots must be integers or "p/q" strings')
        return cls(obj["roots"])

    def __contains__(self, x):
        return rational(x) in self.roots

    def sorted_roots(self):
        return sorted(self.roots, reverse=True)

    def __repr__(self):
        return "BRootSet(%s)" % ", ".join(str(x) for x in self.sorted_roots())


class Polytope:
    """Intersection of half spaces  sum_{i in I} beta_i <= bound."""

    def __init__(self, r, inequalities):
        self.r = as_int(r, "the dimension")
        ineqs = []
        for indices, bound in inequalities:
            indices = frozenset(as_int(i, "an inequality index") for i in indices)
            if any(not 0 <= i < self.r for i in indices):
                raise ValueError("inequality index out of range")
            ineqs.append((indices, as_int(bound, "an inequality bound")))
        self.inequalities = tuple(sorted(ineqs, key=lambda q: (len(q[0]), sorted(q[0]))))

    def __repr__(self):
        return "Polytope(%d inequalities in R^%d)" % (len(self.inequalities), self.r)


def lct(arr):
    """Log canonical threshold: the least nu/N over the dense edges, which
    is minus the largest candidate pole."""
    if arr.r == 0:
        raise ArrangementError("lct of the empty arrangement")
    return -candidate_poles(arr)[0]


def log_canonical_polytope(arr):
    """One inequality per dense edge: sum of beta over the index set is at
    most the codimension.  Lives in exponent space, one coordinate per
    hyperplane, unweighted by multiplicities."""
    if arr.r == 0:
        raise ArrangementError("polytope of the empty arrangement")
    return Polytope(arr.r, [(f.indices, f.codim) for f in dense_edges(arr)])


def _require_verdict_input(arr, what, nd=False):
    """Raise unless the arrangement is central, nonempty, essential and
    indecomposable.

    Essential means the minimal flat is the origin; indecomposable means
    it is dense.  nd adds the size condition of the n/d checks.
    """
    if not arr.central:
        raise ArrangementError("%s needs a central arrangement" % what)
    if arr.r == 0:
        raise ArrangementError("%s needs at least one hyperplane" % what)
    vmin = arr.lattice.minimal_flat()
    if vmin.codim != arr.n:
        raise ArrangementError("%s needs an essential arrangement" % what)
    if not arr.lattice.is_dense(vmin):
        raise ArrangementError("%s needs an indecomposable arrangement" % what)
    if nd and arr.n < 2 and arr.r <= arr.n:
        raise ArrangementError("%s needs n >= 2 or more hyperplanes than n" % what)


def _adapted_violations(arr, dense, beta):
    """Witnesses of every way beta fails to be adapted, with the sums judged.

    The sums run on integers: beta is scaled by D, the lcm of its
    denominators, so an edge's sum is one int t, judged against codim * D
    and for divisibility by D, and one Fraction t / D is made per edge."""
    bad = []
    for i, x in enumerate(beta):
        if x <= 0:
            bad.append("component %d is not positive (%s)" % (i + 1, x))
    d = lcm(*(x.denominator for x in beta))
    scaled = [x.numerator * (d // x.denominator) for x in beta]
    get = scaled.__getitem__
    sums = []
    for f in dense:
        t = sum(map(get, f.indices))
        indices = tuple(sorted(f.indices))
        s = Fraction(t, d)
        sums.append((indices, s))
        over = t > f.codim * d
        integral = not t % d and len(indices) < arr.r
        if over or integral:
            label = ("hyperplane %d" % (indices[0] + 1) if len(indices) == 1
                     else "edge {%s}" % ",".join(str(i + 1) for i in indices))
            if over:
                bad.append("polytope violated at dense %s (sum %s > %d)" % (label, s, f.codim))
            if integral:
                bad.append("integral sum at dense %s (sum %s)" % (label, s))
    total = Fraction(sum(scaled), d)
    if total != arr.n:
        bad.append("total sum %s differs from the ambient dimension %d" % (total, arr.n))
    return bad, {"beta": beta, "total": total, "dense_sums": sums}


def validate_adapted(arr, beta):
    """Certify a vector as adapted to the arrangement.

    Conditions: every component positive; the polytope inequality at every
    dense edge; a non-integral partial sum at every dense edge other than
    the origin; total sum exactly the ambient dimension.  The verdict lists
    one witness per violation.
    """
    _require_verdict_input(arr, "validate_adapted")
    beta = tuple(rational(x) for x in beta)
    if len(beta) != arr.r:
        raise ArrangementError("expected %d components, got %d" % (arr.r, len(beta)))
    bad, data = _adapted_violations(arr, dense_edges(arr), beta)
    if bad:
        return Verdict(False, bad, data)
    return Verdict(True, ["vector is adapted"], data)


def _leverage_scores(arr):
    """The leverage scores h_i = a_i G^-1 a_i of the primitive normals,
    G = sum of a_i a_i^T: the marginals of the determinantal measure
    P(B) ~ det(A_B)^2 on the bases (Lyons, Publ. IHES 2003).  G is
    invertible for an essential arrangement, so in the integer kernel of
    [G | the normals as columns] free column n + i gives den (-G^-1 a_i, e_i).
    """
    n, normals = arr.n, arr.normals
    rows = [[sum(a[j] * a[k] for a in normals) for k in range(n)] + [a[j] for a in normals]
            for j in range(n)]
    vectors, den = integer_kernel(rows, n + arr.r)
    return tuple(Fraction(-sum(map(mul, a, w[:n])), den) for a, w in zip(normals, vectors))


def adapted_vector(arr):
    """Produce an adapted vector from the leverage scores of the normals.

    Every basis has positive determinantal weight, so the scores are
    positive, sum to n and satisfy the polytope strictly away from the
    origin edge.  If some partial sums land on integers, the k-th such
    dense edge X_k gives the direction d_k = e_j - e_m, j its smallest
    index and m the smallest index outside it, and the scores move along
    v = sum of 2^-(k+1) d_k by a step eps halved on a deterministic
    schedule.  The sum of d_k over a violating edge is -1, 0 or 1, and 1
    for its own direction, so its first nonzero weight outweighs the rest
    and v has a nonzero sum over every violating edge.  Every candidate is
    certified by the check validate_adapted runs before it is returned.
    """
    _require_verdict_input(arr, "adapted_vector")
    dense = dense_edges(arr)
    beta = _leverage_scores(arr)
    bad, data = _adapted_violations(arr, dense, beta)
    if not bad:
        return beta
    full = frozenset(range(arr.r))
    violating = [f for f, (_, s) in zip(dense, data["dense_sums"])
                 if f.indices != full and s.denominator == 1]
    assert violating, "leverage scores failed for a reason other than integrality"
    v = [Fraction(0)] * arr.r
    for k, f in enumerate(violating):
        w = Fraction(1, 2 << k)
        v[min(f.indices)] += w
        v[min(full - f.indices)] -= w
    eps = Fraction(1, 2)
    for _ in range(200):
        cand = tuple(b + eps * x for b, x in zip(beta, v))
        if not _adapted_violations(arr, dense, cand)[0]:
            return cand
        eps /= 2
    raise AssertionError("no adapted vector found along the perturbation direction")


# ---------------------------------------------------------------------------
# conjecture checks

def nd_check(arr):
    """Check that -n/d is a candidate pole, and report whether it is a pole.

    n is the ambient dimension, d the total degree.  The candidate property
    is the checkable half (the origin is a dense edge here, with pole form
    d s + n); whether the candidate survives as an actual pole of the local
    zeta function is reported but not judged, since it can honestly fail.
    """
    _require_verdict_input(arr, "nd_check", nd=True)
    n, d = arr.n, arr.degree()
    ratio = Fraction(-n, d)
    cands = candidate_poles(arr)
    z = local_zeta(arr)
    report = poles(z)
    is_cand = ratio in cands
    is_pole = ratio in report.pole_set()
    witnesses = ["-n/d = %s with n = %d, d = %d" % (ratio, n, d),
                 "candidate pole: %s" % ("yes" if is_cand else "NO"),
                 "pole of the local zeta function: %s" % ("yes" if is_pole else "no")]
    data = {"n": n, "d": d, "ratio": ratio, "candidates": list(cands),
            "poles": list(report.univariate), "is_candidate": is_cand, "is_pole": is_pole,
            "zeta": z}
    return Verdict(is_cand, witnesses, data)


def smc_verify(arr, roots):
    """Check that every pole of the local zeta lies in the supplied roots.

    One-directional: a PASS is consistency of the supplied Bernstein-Sato
    root data with the strong monodromy conjecture, a FAIL pinpoints the
    offending poles.
    """
    if not isinstance(roots, BRootSet):
        roots = BRootSet(roots)
    z = local_zeta(arr)
    pole_pairs = poles(z).univariate
    offenders = [p for p, _ in pole_pairs if p not in roots]
    witnesses = []
    if offenders:
        for p in offenders:
            witnesses.append("pole %s is not among the supplied roots" % (p,))
    else:
        witnesses.append("all %d poles lie in the supplied root set" % len(pole_pairs))
    data = {"poles": list(pole_pairs), "roots": roots.sorted_roots(),
            "offenders": offenders, "zeta": z}
    return Verdict(not offenders, witnesses, data)


def multi_nd_check(arr):
    """Multivariate version of nd_check for a reduced factored arrangement.

    The distinguished hyperplane sum_j d'_j s_j + n, with d'_j the degree
    of the j-th factor, must appear among the multivariate candidate poles;
    membership in the polar locus of the multivariate local zeta is
    reported alongside.
    """
    _require_verdict_input(arr, "multi_nd_check", nd=True)
    if arr.factors is None:
        raise ArrangementError("multi_nd_check needs a factorization")
    if any(m != 1 for m in arr.mults):
        raise ArrangementError("multi_nd_check expects a reduced arrangement")
    degrees = arr.factor_degrees()
    hyper, _ = AffineForm.canonical(degrees, arr.n)
    cands = candidate_poles(arr, multi=True)
    z = multivariate_local_zeta(arr)
    polar = [f for f, _ in z.denominator_factors()]
    is_cand = hyper in cands
    in_polar = hyper in polar
    witnesses = ["distinguished hyperplane %s" % hyper.format_str(),
                 "candidate pole: %s" % ("yes" if is_cand else "NO"),
                 "component of the polar locus: %s" % ("yes" if in_polar else "no")]
    data = {"hyperplane": hyper, "candidates": list(cands), "polar": polar,
            "is_candidate": is_cand, "in_polar": in_polar, "zeta": z}
    return Verdict(is_cand, witnesses, data)


def multi_smc_verify(arr, zero_locus):
    """Check the polar locus of the multivariate global zeta against a
    supplied zero locus (a list of affine forms, canonicalized on input).

    The zeta is computed first, which checks that the arrangement is
    central, nonempty and factored; then the zero locus rows are read.
    """
    z = multivariate_global_zeta(arr)
    width = len(arr.factors) + 1
    allowed = set()
    for j, item in enumerate(zero_locus):
        if isinstance(item, AffineForm):
            row = item.coeffs + (item.const,)
        else:
            row = [as_int(e, "a zero locus entry", ArrangementError) for e in item]
        if len(row) != width:
            raise ArrangementError("zero locus row %d has %d entries, expected %d "
                                   "(one per factor, then the constant)"
                                   % (j + 1, len(row), width))
        allowed.add(AffineForm.canonical(row[:-1], row[-1])[0])
    polar = [f for f, _ in z.denominator_factors()]
    offenders = [f for f in polar if f not in allowed]
    witnesses = []
    if offenders:
        for f in offenders:
            witnesses.append("polar component %s is not in the zero locus" % f.format_str())
    else:
        witnesses.append("polar locus (%d components) lies in the zero locus" % len(polar))
    data = {"polar": polar, "zero_locus": sorted(allowed), "offenders": offenders,
            "zeta": z}
    return Verdict(not offenders, witnesses, data)
