"""Seeded inputs, exact checks and operation lists of the two workloads.

Every operation is one call (or a short fixed sequence of calls) into the
public API of arrzeta.  It is looked up on the module at call time, so the
tracer's wrappers see it.  Each operation carries a reference taken from
the seed code by make_refs.py and, where one exists, an independent oracle.
Results are compared in a form that does not depend on the order of the
hyperplanes, because the seed permutes them.

zeta-deep      local_zeta and global_zeta of braid A3, the Vandermonde
               planes (1, k, k^2), k = 1..8, ninefold and veys, and
               local_zeta of braid A4 (its global zeta costs as much again,
               which would leave room for only one pass per run).  The seed
               permutes the hyperplanes.
verify-mixed   verdicts, walls, adapted vectors and multivariate zeta on
               small random arrangements drawn from a stored pool, the
               analyze pipeline on 12 seeded lines in C^2 (every value in
               closed form), and a fixed set of command-line calls,
               malformed inputs included.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import arrzeta as A
import arrzeta.cli
from arrzeta.cli import zeta_from_json
from arrzeta.examples import threelines_factored, veys
from arrzeta.harness import validate_adapted as _validate_adapted
from arrzeta.zeta import poles as _poles, rank2_zeta as _rank2_zeta, snc_zeta as _snc_zeta

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
WORKLOADS = ("zeta-deep", "verify-mixed")

# verify-mixed draws this many pool entries of each kind, one from each band
# of the pool sorted by cost (an entry's seconds at reference speed, as
# make_refs.py measures them), and keeps the first draw whose total cost is
# within COST_TOLERANCE of the mean draw, so that every seed does the same work
PICK = {"c3": 4, "lines": 12, "factored": 1}
COST_TOLERANCE = 0.015


def load_data(workload):
    with open(os.path.join(DATA, workload.replace("-", "_") + ".json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# fixtures

def braid(n):
    """x_i - x_j, i < j, in C^n: the braid arrangement A_{n-1}."""
    forms = []
    for i, j in combinations(range(n), 2):
        v = [0] * n
        v[i], v[j] = 1, -1
        forms.append(v)
    return forms


def vandermonde(ks):
    """Planes (1, k, k^2): distinct k make every three normals independent."""
    return [(1, k, k * k) for k in ks]


NINEFOLD = [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1),
            (1, 1, 1), (1, -1, 1), (2, 0, 1)]


def spec(n, forms, mults=None, factors=None, name=None):
    """Plain data for an arrangement, in the order of the reference."""
    r = len(forms)
    return {"n": n, "forms": [list(f) for f in forms],
            "mults": list(mults) if mults is not None else [1] * r,
            "factors": [list(row) for row in factors] if factors is not None else None,
            "name": name}


def zeta_deep_specs():
    v = veys()
    return [spec(v.n, [[int(x) for x in f] for f in v.forms], v.mults, name="veys"),
            spec(4, braid(4), name="braid-A3"),
            spec(3, NINEFOLD, name="ninefold"),
            spec(3, vandermonde(range(1, 9)), name="vandermonde-8"),
            spec(5, braid(5), name="braid-A4")]


def factored_specs():
    """The fixed factored arrangements of verify-mixed (three factors or two)."""
    tl = threelines_factored()
    return [spec(2, [[int(x) for x in f] for f in tl.forms], tl.mults, tl.factors,
                 name="threelines-factored"),
            spec(4, braid(4), factors=[(1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0),
                                       (0, 0, 0, 0, 1, 1)], name="braid-A3-3f"),
            spec(3, NINEFOLD, factors=[(1, 1, 1, 0, 0, 0, 0, 0, 0),
                                       (0, 0, 0, 1, 1, 1, 0, 0, 0),
                                       (0, 0, 0, 0, 0, 0, 1, 1, 1)], name="ninefold-3f")]


# ---------------------------------------------------------------------------
# permutations: the library sees hyperplane j of the input as hyperplane
# p[j] of the reference

class Perm:
    def __init__(self, p):
        self.p = list(p)

    @classmethod
    def draw(cls, rng, r):
        p = list(range(r))
        rng.shuffle(p)
        return cls(p)

    def arrangement(self, s):
        """Build the library's Arrangement with hyperplanes in permuted order."""
        p = self.p
        factors = s["factors"]
        if factors is not None:
            factors = [[row[i] for i in p] for row in factors]
        return A.Arrangement(s["n"], [s["forms"][i] for i in p],
                             mults=[s["mults"][i] for i in p], factors=factors,
                             name=s["name"])

    def indices(self, indices):
        """An index set of the input, in reference numbering, sorted."""
        return sorted(self.p[i] for i in indices)

    def vector(self, v):
        """A vector indexed by input hyperplanes, in reference order."""
        out = [None] * len(v)
        for j, x in enumerate(v):
            out[self.p[j]] = x
        return out

    def from_reference(self, v):
        """A vector indexed by reference hyperplanes, in input order."""
        return [v[i] for i in self.p]


# ---------------------------------------------------------------------------
# order-free representations, compared with the stored references

def fstr(x):
    return str(Fraction(x))


def form_repr(f):
    return [list(f.coeffs), f.const]


def poly_repr(p):
    return [[list(ex), fstr(c)] for ex, c in sorted(p.terms.items())]


def pole_repr(report):
    if report.univariate is not None:
        return [[fstr(x), k] for x, k in report.univariate]
    return [[form_repr(f), k] for f, k in report.multivariate]


def zeta_repr(z):
    return {"nvars": z.nvars, "numerator": poly_repr(z.numerator),
            "denominator": [[form_repr(f), k] for f, k in z.denominator_factors()],
            "poles": pole_repr(_poles(z))}


def verdict_repr(v, keys=()):
    out = {"passed": v.passed, "witnesses": list(v.witnesses)}
    for key in keys:
        val = v.data[key]
        out[key] = [fstr(x) if isinstance(x, Fraction) else
                    [fstr(x[0]), x[1]] if isinstance(x, tuple) else
                    form_repr(x) for x in val]
    return out


def candidates_repr(cands):
    return [fstr(x) if isinstance(x, Fraction) else form_repr(x) for x in cands]


def walls_repr(perm, walls):
    return sorted([perm.vector(list(w.normal)), fstr(w.gamma)] for w in walls)


def wallset_repr(perm, ws):
    return sorted([perm.vector(list(f.normal)), [fstr(o) for o in f.offsets]] for f in ws)


def canon(obj):
    """Tuples to lists and so on: the shape json gives the stored reference."""
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------------------
# independent oracles

# a point off every polar locus: poles are negative, denominators have
# nonnegative coefficients and a positive constant
EVAL_POINT = (Fraction(7, 3), Fraction(5, 11), Fraction(13, 17), Fraction(3, 19))


def routes_agree(z):
    """The normalised quotient and the raw term sum take one exact value."""
    point = EVAL_POINT[:z.nvars]
    if z.evaluate(point) != z.evaluate_terms(point):
        return "normalised value differs from the term sum at %s" % (point,)
    return None


def equals_oracle(z, oracle, what):
    if zeta_repr(z) != zeta_repr(oracle):
        return "differs from the %s closed form" % what
    return None


def independent_normals(arr):
    return A.rank(A.QMatrix.from_rows(arr.forms)) == arr.r


def generic_char_poly(r, n):
    """chi(t) of r generic central hyperplanes in C^n, r >= n."""
    terms = {(n - k,): (-1) ** k * comb(r, k) for k in range(n)}
    terms[(0,)] = -sum(terms.values())
    return [[list(ex), fstr(c)] for ex, c in sorted(terms.items())]


# ---------------------------------------------------------------------------
# operations

class Op:
    """One timed call: call(state) -> result, checked against ref.

    ref is the stored reference: an order-free representation, or
    {"error": name} when the call must raise that exception.  describe maps
    a result to the representation; oracle returns a message on a wrong
    result.  known_defect names the open defect an operation still shows.
    """

    __slots__ = ("label", "call", "describe", "ref", "oracle", "known_defect")

    def __init__(self, label, call, describe, ref=None, oracle=None, known_defect=None):
        self.label = label
        self.call = call
        self.describe = describe
        self.ref = ref
        self.oracle = oracle
        self.known_defect = known_defect

    def check(self, result, exc):
        """None when the outcome is correct, else a one-line reason."""
        want_error = isinstance(self.ref, dict) and "error" in self.ref
        if exc is not None:
            if want_error and type(exc).__name__ == self.ref["error"]:
                return None
            return "raised %s: %s" % (type(exc).__name__, exc)
        if want_error:
            return "returned where %s was expected" % self.ref["error"]
        got = canon(self.describe(result))
        if got != self.ref:
            if isinstance(got, dict) and "exit" in self.ref and got["exit"] != self.ref["exit"]:
                return "exit %s where %s was expected" % (got.get("exit"), self.ref["exit"])
            return "differs from the stored reference"
        return self.oracle(result) if self.oracle else None


def zeta_op(label, call, ref, oracle=None):
    def check(z):
        return routes_agree(z) or (oracle(z) if oracle else None)
    return Op(label, call, zeta_repr, ref, check)


def build_zeta_deep(seed, data):
    rng = random.Random(seed)
    ops = []
    for s in zeta_deep_specs():
        perm = Perm.draw(rng, len(s["forms"]))
        arr = perm.arrangement(s)
        refs = data[s["name"]]
        ops.append(zeta_op("local_zeta:" + s["name"], lambda st, a=arr: A.local_zeta(a),
                           refs["local_zeta"]))
        if s["name"] != "braid-A4":
            ops.append(zeta_op("global_zeta:" + s["name"], lambda st, a=arr: A.global_zeta(a),
                               refs["global_zeta"]))
    return ops


def wide_lines(rng):
    """12 distinct lines in C^2 with multiplicities 1..4: one wide lattice
    whose dense-edge test runs over 2^11 bipartitions."""
    forms, seen = [], set()
    while len(forms) < 12:
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0) or A.primitive_normal(v) in seen:
            continue
        seen.add(A.primitive_normal(v))
        forms.append(v)
    return spec(2, forms, [rng.randint(1, 4) for _ in forms], name="lines-12")


def closed_forms(s):
    """Every analyze value of a generic arrangement with r > n, in closed form.

    Generic: any n normals are independent (Vandermonde planes, distinct
    lines).  Then the flats are the subsets of size < n plus the origin, the
    dense edges are the hyperplanes and the origin, and the rest follows.
    """
    n, r, d = s["n"], len(s["forms"]), s["mults"]
    dense = [[i] for i in range(r)] + [list(range(r))]
    data = [(1, di) for di in d] + [(n, sum(d))]
    return {
        "flats": sum(comb(r, k) for k in range(n)) + 1,
        "char_poly": generic_char_poly(r, n),
        "dense": sorted(dense),
        "lct": fstr(min(Fraction(nu, N) for nu, N in data)),
        "candidates": [fstr(x) for x in sorted({Fraction(-nu, N) for nu, N in data},
                                               reverse=True)],
        "polytope": sorted([idx, nu] for idx, (nu, _) in zip(dense, data)),
        "walls": sorted([[1 if i in idx else 0 for i in range(r)], ["0"]] for idx in dense),
    }


def analyze_ops(s, perm, ref):
    """The analyze pipeline as public calls, sharing one lattice where the
    API takes it; ref holds the seed code's lattice, dense edges and
    characteristic polynomial, the rest is checked against closed forms."""
    arr = perm.arrangement(s)
    want = closed_forms(s)
    name = s["name"]
    key = "lattice:" + name

    def lattice_repr(L):
        return {"flats": len(L), "mobius": sorted([perm.indices(f.indices), int(L.mu(f))]
                                                  for f in L.flats)}

    def lattice_oracle(L):
        return None if len(L) == want["flats"] else "flat count is not the closed form"

    def dense_repr(edges):
        return sorted(perm.indices(f.indices) for f in edges)

    def polytope_repr(poly):
        return sorted([perm.indices(idx), b] for idx, b in poly.inequalities)

    def match(field, describe):
        return lambda res: (None if canon(describe(res)) == want[field]
                            else "%s is not the closed form" % field)

    return [
        Op("intersection_lattice:" + name,
           lambda st: st.setdefault(key, A.intersection_lattice(arr)),
           lattice_repr, ref["lattice"], lattice_oracle),
        Op("dense_edges:" + name, lambda st: A.dense_edges(arr, st[key]),
           dense_repr, ref["dense"], match("dense", dense_repr)),
        Op("char_poly:" + name, lambda st: A.char_poly(arr, st[key]),
           poly_repr, ref["char_poly"], match("char_poly", poly_repr)),
        Op("complement_euler:" + name,
           lambda st: A.complement_euler(arr, st[key]), fstr, "0"),
        Op("is_essential:" + name, lambda st: A.is_essential(arr), bool, True),
        Op("is_indecomposable:" + name, lambda st: A.is_indecomposable(arr), bool, True),
        Op("lct:" + name, lambda st: A.lct(arr), fstr, want["lct"]),
        Op("candidate_poles:" + name,
           lambda st: A.candidate_poles(arr, lattice=st[key]),
           candidates_repr, want["candidates"]),
        Op("log_canonical_polytope:" + name, lambda st: A.log_canonical_polytope(arr),
           polytope_repr, want["polytope"]),
        Op("nd_wall_set:" + name, lambda st: A.nd_wall_set(arr),
           lambda ws: wallset_repr(perm, ws), want["walls"]),
    ]


# ---------------------------------------------------------------------------
# verify-mixed

def cost_bands(entries, count):
    ranked = sorted(entries, key=lambda e: (e["cost"], e["spec"]["name"]))
    size = len(ranked) // count
    return [ranked[b * size:(b + 1) * size] for b in range(count)]


def pick_pool(rng, pool):
    """Pool entries of each kind, one per cost band, at the mean total cost."""
    bands = {kind: cost_bands(pool[kind], count) for kind, count in PICK.items()}
    target = sum(sum(e["cost"] for e in band) / len(band)
                 for kind_bands in bands.values() for band in kind_bands)
    for _ in range(10000):
        picks = {kind: [rng.choice(band) for band in kind_bands]
                 for kind, kind_bands in bands.items()}
        total = sum(e["cost"] for kind_picks in picks.values() for e in kind_picks)
        if abs(total - target) <= COST_TOLERANCE * target:
            return picks
    raise RuntimeError("no draw of the pool came within the cost tolerance")


def verdict_ops(e, perm, arr, tag):
    """smc, n/d, lct, adapted vectors, candidate poles, poles and walls."""
    s, ref = e["spec"], e["ref"]
    roots = [Fraction(x) for x in e["roots"]]
    a = [Fraction(x) for x in perm.from_reference(e["points"][0])]
    b = [Fraction(x) for x in perm.from_reference(e["points"][1])]
    r = len(s["forms"])
    uniform = tuple(Fraction(s["n"], r) for _ in range(r))

    def smc_oracle(v, arr=arr):
        z = v.data["zeta"]
        msg = routes_agree(z)
        if msg is None and arr.n == 2:
            msg = equals_oracle(z, _rank2_zeta(arr), "rank-2")
        if msg is None and independent_normals(arr):
            msg = equals_oracle(z, _snc_zeta(arr), "snc")
        return msg

    def adapted_repr(beta, arr=arr):
        return {"valid": _validate_adapted(arr, beta).passed, "components": len(beta),
                "total": fstr(sum(beta))}

    k = tag + ":"
    return [
        Op(k + "smc_verify", lambda st: st.setdefault(k + "smc", A.smc_verify(arr, roots)),
           lambda v: verdict_repr(v, ("poles", "offenders")), ref["smc_verify"], smc_oracle),
        Op(k + "nd_check", lambda st: A.nd_check(arr),
           lambda v: verdict_repr(v, ("candidates", "poles")), ref["nd_check"]),
        Op(k + "lct", lambda st: A.lct(arr), fstr, ref["lct"]),
        Op(k + "adapted_vector", lambda st: st.setdefault(k + "beta", A.adapted_vector(arr)),
           adapted_repr, ref["adapted_vector"]),
        Op(k + "validate_adapted",
           lambda st: A.validate_adapted(arr, st.get(k + "beta", uniform)),
           verdict_repr, ref["validate_adapted"]),
        Op(k + "candidate_poles", lambda st: A.candidate_poles(arr), candidates_repr,
           ref["candidate_poles"]),
        Op(k + "poles", lambda st: A.poles(st[k + "smc"].data["zeta"]), pole_repr,
           ref["poles"]),
        Op(k + "nd_wall_set", lambda st: st.setdefault(k + "walls", A.nd_wall_set(arr)),
           lambda ws: wallset_repr(perm, ws), ref["nd_wall_set"]),
        Op(k + "separating_walls", lambda st: A.separating_walls(st[k + "walls"], a, b),
           lambda ws: walls_repr(perm, ws), ref["separating_walls"]),
        # a chamber path crosses exactly the separating walls, in some order
        Op(k + "chamber_path", lambda st: A.chamber_path(st[k + "walls"], a, b),
           lambda ws: walls_repr(perm, ws), ref["separating_walls"]),
    ]


def factored_ops(e, perm, arr, tag):
    ref = e["ref"]
    locus = [list(f) for f in e["zero_locus"]]

    def snc_multi(z, arr=arr):
        if independent_normals(arr):
            return equals_oracle(z, _snc_zeta(arr, multi=True), "snc")
        return None

    k = tag + ":"
    return [
        zeta_op(k + "multivariate_local_zeta", lambda st: A.multivariate_local_zeta(arr),
                ref["multivariate_local_zeta"], snc_multi),
        zeta_op(k + "multivariate_global_zeta", lambda st: A.multivariate_global_zeta(arr),
                ref["multivariate_global_zeta"]),
        Op(k + "multi_nd_check", lambda st: A.multi_nd_check(arr),
           lambda v: verdict_repr(v, ("candidates", "polar")), ref["multi_nd_check"],
           lambda v: routes_agree(v.data["zeta"])),
        Op(k + "multi_smc_verify", lambda st: A.multi_smc_verify(arr, locus),
           lambda v: verdict_repr(v, ("polar", "offenders")), ref["multi_smc_verify"],
           lambda v: routes_agree(v.data["zeta"])),
    ]


# command-line inputs, written to a directory of the checkout at set-up
CLI_FILES = {
    "tlf.json": {"n": 2, "forms": [[1, 0], [0, 1], [1, -1]], "mults": [1, 1, 1],
                 "factors": [[1, 0, 0], [0, 1, 1]], "name": "tl-factored"},
    "roots.json": {"roots": ["-2/3", "-1/2"]},
    "locus.json": {"zero_locus": [[1, 0, 1], [0, 1, 1], [1, 2, 2]]},
    "forms_int.json": {"n": 2, "forms": 5},
    "factors_int.json": {"n": 2, "forms": [[1, 0], [0, 1], [1, 1]], "factors": 7},
    "float_entry.json": {"n": 2, "forms": [[1.5, 0], [0, 1], [1, 1]]},
    "roots_abc.json": {"roots": "abc"},
    "roots_digits.json": {"roots": "123"},
    "no_forms.json": {"n": 2},
    "proportional.json": {"n": 2, "forms": [[1, 0], [2, 0]]},
}
CLI_TEXT_FILES = {"not_json.json": "{not json"}

# every subcommand once, compared with its stored --json output
CLI_CALLS = [
    ("analyze", ["analyze", "--example", "veys"]),
    ("zeta", ["zeta", "--example", "veys"]),
    ("zeta-global", ["zeta", "--example", "veys", "--global"]),
    ("zeta-at", ["zeta", "--example", "veys", "--at", "0,0,1"]),
    ("zeta-multi", ["zeta", "{dir}/tlf.json", "--multi"]),
    ("zeta-multi-global", ["zeta", "{dir}/tlf.json", "--multi", "--global"]),
    ("walls", ["walls", "--example", "threelines", "--localize", "1/2,1,0",
               "--separate", "0,0,0", "1/2,5/4,0"]),
    ("adapted", ["adapted", "--example", "veys"]),
    ("nd", ["nd", "--example", "veys"]),
    ("smc", ["smc", "--example", "veys"]),
    ("smc-file", ["smc", "--example", "threelines", "--broots", "{dir}/roots.json"]),
    ("multi-nd", ["multi-nd", "{dir}/tlf.json"]),
    ("multi-smc", ["multi-smc", "{dir}/tlf.json", "--zero-locus", "{dir}/locus.json"]),
    ("vmono-demo", ["vmono-demo"]),
]

# malformed inputs: each must exit 2; the last four still do not
ITEM5 = "ROADMAP item 5: malformed input must exit 2"
CLI_MALFORMED = [
    ("bad-json", ["analyze", "{dir}/not_json.json"], None),
    ("no-forms", ["analyze", "{dir}/no_forms.json"], None),
    ("proportional", ["analyze", "{dir}/proportional.json"], None),
    ("roots-abc", ["smc", "--example", "threelines", "--broots", "{dir}/roots_abc.json"], None),
    ("forms-int", ["analyze", "{dir}/forms_int.json"], ITEM5),
    ("factors-int", ["analyze", "{dir}/factors_int.json"], ITEM5),
    ("float-entry", ["analyze", "{dir}/float_entry.json"], ITEM5),
    ("roots-digits", ["smc", "--example", "threelines", "--broots",
                      "{dir}/roots_digits.json"], ITEM5),
]


def write_cli_files(directory):
    os.makedirs(directory, exist_ok=True)
    for name, obj in CLI_FILES.items():
        with open(os.path.join(directory, name), "w") as fh:
            json.dump(obj, fh)
    for name, text in CLI_TEXT_FILES.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)


def run_cli(argv):
    """cli.run in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = arrzeta.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_repr(res):
    """Exit code and --json fields; raw terms are compared by their value only,
    and so is the text line that counts them."""
    code, out, _ = res
    if code == 2:
        return {"exit": 2}
    obj = json.loads(out)
    if "terms" in obj:
        obj["terms"] = zeta_repr(zeta_from_json(obj))
    obj["lines"] = [ln for ln in obj.get("lines", [])
                    if not ln.startswith("terms in the flag sum")]
    return {"exit": code, "json": obj}


def cli_ops(directory, refs):
    calls = [(label, argv, refs[label], None) for label, argv in CLI_CALLS]
    calls += [(label, argv, {"exit": 2}, defect) for label, argv, defect in CLI_MALFORMED]
    ops = []
    for label, argv, ref, defect in calls:
        argv = [a.replace("{dir}", directory) for a in argv] + ["--json"]
        ops.append(Op("cli:" + label, lambda st, argv=argv: run_cli(argv), cli_repr, ref,
                      known_defect=defect))
    return ops


def build_verify_mixed(seed, data, directory):
    rng = random.Random(seed)
    ops = []
    for kind, picks in pick_pool(rng, data["pool"]).items():
        for j, e in enumerate(picks):
            perm = Perm.draw(rng, len(e["spec"]["forms"]))
            arr = perm.arrangement(e["spec"])
            tag = "%s-%d:%s" % (kind, j, e["spec"]["name"])
            if kind == "factored":
                ops += factored_ops(e, perm, arr, tag)
            else:
                ops += verdict_ops(e, perm, arr, tag)
    for e in data["fixed"]:
        perm = Perm.draw(rng, len(e["spec"]["forms"]))
        ops += factored_ops(e, perm, perm.arrangement(e["spec"]), e["spec"]["name"])
    lines = wide_lines(rng)
    ops += analyze_ops(lines, Perm.draw(rng, len(lines["forms"])), data["lines-12"])
    write_cli_files(directory)
    ops += cli_ops(directory, data["cli"])
    return ops


def build(workload, seed, directory):
    """The seed's operation list for one workload; directory takes input files."""
    data = load_data(workload)
    if workload == "zeta-deep":
        return build_zeta_deep(seed, data)
    if workload == "verify-mixed":
        return build_verify_mixed(seed, data, directory)
    raise ValueError("unknown workload %r; choose from %s" % (workload, ", ".join(WORKLOADS)))
