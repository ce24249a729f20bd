"""Command line front end.

Subcommands: analyze, zeta, walls, adapted, nd, smc, multi-nd, multi-smc,
vmono-demo.  Arrangements come from a JSON file or from a built-in example
(--example veys | threelines | boolean2).  All rationals are printed as
p/q strings, hyperplane indices are 1-based, and --json output is
byte-stable across runs.

The --json bytes are those of json.dumps(data, indent=2, sort_keys=True,
default=json_form), written by one writer (_json_text) in place of the
stdlib's pure-Python indenting encoder;
tests/test_cli.py::test_json_text_matches_json_dumps holds the two to the
same bytes, and tests/test_cli_golden.py pins every command's output.

Exit codes: 0 for success (and verification PASS), 1 for a verification
FAIL, 2 for bad input.
"""

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .arrangement import (Arrangement, ArrangementError, char_poly,
                          complement_euler, dense_edges, is_essential,
                          is_indecomposable, proj_complement_euler)
from .core import AffineForm, format_poly, rational
from .examples import EXAMPLES, veys_broots
from .harness import (BRootSet, adapted_vector, lct, multi_nd_check,
                      multi_smc_verify, nd_check, smc_verify, validate_adapted)
from .vmono import (DiagClass, MonomialConnectionSpec, diag_annihilator,
                    diag_s_eigenvalue, diag_vres_member, diag_walls,
                    ncv_generator, ncv_walls)
from .walls import (WallFamily, WallInstance, extend_restricted_walls,
                    localized_walls, nd_wall_set, separating_walls)
from .zeta import (ZetaFunction, candidate_poles, global_zeta, local_zeta,
                   multivariate_global_zeta, multivariate_local_zeta, poles)


def parse_point(text):
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError("empty coordinate in point %r" % text)
    return tuple(rational(p) for p in parts)


# JSON shape of each arrangement field: list depth, entry types, description
_ARRANGEMENT_FIELDS = (
    ("n", 0, (int,), "an integer"),
    ("forms", 2, (int, str), 'a list of lists of integers or "p/q" strings'),
    ("mults", 1, (int,), "a list of integers"),
    ("factors", 2, (int,), "a list of lists of integers"),
    ("name", 0, (str,), "a string"),
)


def _json_shaped(value, depth, types):
    if depth == 0:
        return isinstance(value, types) and not isinstance(value, bool)
    return isinstance(value, list) and all(_json_shaped(v, depth - 1, types) for v in value)


def load_arrangement(args):
    if getattr(args, "example", None):
        if args.example not in EXAMPLES:
            raise ValueError("unknown example %r; choose from %s"
                             % (args.example, ", ".join(sorted(EXAMPLES))))
        return EXAMPLES[args.example]()
    if not getattr(args, "file", None):
        raise ValueError("provide an arrangement file or --example")
    with open(args.file) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError("bad JSON in %s: %s" % (args.file, e))
    if not isinstance(obj, dict) or obj.get("n") is None or obj.get("forms") is None:
        raise ValueError('arrangement file needs at least "n" and "forms"')
    for key, depth, types, what in _ARRANGEMENT_FIELDS:
        if obj.get(key) is not None and not _json_shaped(obj[key], depth, types):
            raise ValueError('"%s" must be %s' % (key, what))
    return Arrangement(obj["n"], obj["forms"], mults=obj.get("mults"),
                       factors=obj.get("factors"), name=obj.get("name"))


def json_form(value):
    """The JSON form of a library value, for the values json cannot encode
    itself (tuples already encode as arrays): a Fraction is a "p/q" string,
    an affine form its coefficients and constant, a wall its normal and
    level, a wall family its normal and offsets."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, AffineForm):
        return {"coeffs": value.coeffs, "const": value.const}
    if isinstance(value, WallInstance):
        return {"normal": value.normal, "level": value.gamma}
    if isinstance(value, WallFamily):
        return {"normal": value.normal, "offsets": value.offsets}
    raise TypeError("no JSON form for %r" % (value,))


_escape = json.encoder.encode_basestring_ascii


def _json_text(obj):
    """json.dumps(obj, indent=2, sort_keys=True, default=json_form), byte
    for byte, built in one recursion into one list of pieces.  A str, int,
    bool, None, list, tuple or dict is taken by its exact type, anything
    else goes to json_form; a dict key that is not a str, or a float,
    raises TypeError."""
    out = []
    _json_pieces(obj, "\n", out)
    return "".join(out)


def _json_pieces(value, indent, out):
    """Append the JSON text of value to out; indent is a newline followed
    by the indentation of the line value starts on."""
    t = type(value)
    if t is str:
        out.append(_escape(value))
    elif t is int:
        out.append(str(value))
    elif t is list or t is tuple:
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if all(type(x) is int for x in value):
            out.append("[" + inner + ("," + inner).join(map(str, value)) + indent + "]")
            return
        sep = "[" + inner
        for x in value:
            out.append(sep)
            _json_pieces(x, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif t is dict:
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, x in sorted(value.items()):
            if type(key) is not str:
                raise TypeError("JSON object keys must be str, not %r" % (key,))
            out.append(sep + _escape(key) + ": ")
            _json_pieces(x, inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    else:
        _json_pieces(json_form(value), indent, out)


def emit(obj, as_json):
    """Print obj as JSON, the bytes of json.dumps(obj, indent=2,
    sort_keys=True, default=json_form) (test_json_text_matches_json_dumps),
    or else its text lines."""
    if as_json:
        print(_json_text(obj))
    else:
        for line in obj["lines"]:
            print(line)


def zeta_json(z, rep=None):
    """The --json fields of a zeta function; rep is its PoleReport, if the
    caller has it already."""
    if rep is None:
        rep = poles(z)
    return {
        "variables": z.nvars,
        "terms": [{"coef": c, "denominator": dens} for c, dens in z.terms],
        "numerator": sorted(z.numerator.terms.items()),
        "denominator": z.denominator_factors(),
        "poles": rep.univariate if z.nvars == 1 else rep.multivariate,
    }


def zeta_from_json(obj):
    """Rebuild a ZetaFunction from its serialized terms.  Each distinct
    denominator entry is checked as an AffineForm once and reaches
    ZetaFunction as that one object.  Entries are told apart by their
    values, which are all ints in a checked entry; 1.0 and True equal 1
    as dict keys, so an entry with any other value is checked on its own
    (and fails)."""
    forms = {}

    def form(f):
        key = (*f["coeffs"], f["const"])
        if not all(type(c) is int for c in key):
            return AffineForm(f["coeffs"], f["const"])
        if key not in forms:
            forms[key] = AffineForm(f["coeffs"], f["const"])
        return forms[key]

    terms = [(rational(t["coef"]), [form(f) for f in t["denominator"]])
             for t in obj["terms"]]
    return ZetaFunction(obj["variables"], terms)


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze(args):
    arr = load_arrangement(args)
    dense = dense_edges(arr)
    data = {
        "name": arr.name,
        "n": arr.n,
        "r": arr.r,
        "mults": arr.mults,
        "degree": arr.degree(),
        "central": arr.central,
        "essential": is_essential(arr),
        "indecomposable": is_indecomposable(arr),
        "char_poly": format_poly(char_poly(arr), names=["t"]),
        "complement_euler": complement_euler(arr),
        "proj_complement_euler": proj_complement_euler(arr),
        "flats": len(arr.lattice),
        "dense_edges": [],
        "lct": lct(arr),
        "candidate_poles": candidate_poles(arr),
    }
    for f in dense:
        entry = {"indices": sorted(i + 1 for i in f.indices), "codim": f.codim,
                 "N": sum(arr.mults[i] for i in f.indices), "nu": f.codim}
        if arr.factors is not None:
            entry["ord"] = tuple(sum(row[i] for i in f.indices) for row in arr.factors)
        data["dense_edges"].append(entry)
    lines = [
        "arrangement %s: %d hyperplanes in C^%d, degree %d"
        % (arr.name or "(unnamed)", arr.r, arr.n, arr.degree()),
        "central: %s  essential: %s  indecomposable: %s"
        % (data["central"], data["essential"], data["indecomposable"]),
        "characteristic polynomial: %s" % data["char_poly"],
        "complement Euler characteristic: %s (projectivized: %s)"
        % (data["complement_euler"], data["proj_complement_euler"]),
        "flats: %d" % data["flats"],
        "dense edges:",
    ]
    for entry in data["dense_edges"]:
        extra = "  ord=%s" % (entry["ord"],) if "ord" in entry else ""
        lines.append("  %s  codim %d  N=%d nu=%d%s"
                     % ("{%s}" % ",".join(str(i) for i in entry["indices"]),
                        entry["codim"], entry["N"], entry["nu"], extra))
    lines.append("log canonical threshold: %s" % data["lct"])
    lines.append("candidate poles: %s" % ", ".join(map(str, data["candidate_poles"])))
    data["lines"] = lines
    emit(data, args.json)
    return 0


def cmd_zeta(args):
    arr = load_arrangement(args)
    if args.at is not None and args.use_global:
        raise ValueError("--at localizes the local zeta; it cannot be combined with --global")
    point = parse_point(args.at) if args.at is not None else None
    if args.multi:
        if args.use_global:
            z = multivariate_global_zeta(arr)
        else:
            z = multivariate_local_zeta(arr, point)
    elif args.use_global:
        z = global_zeta(arr)
    else:
        z = local_zeta(arr, point)
    which = "%s %s zeta" % ("multivariate" if args.multi else "univariate",
                            "global" if args.use_global else "local")
    lines = ["%s of %s:" % (which, arr.name or "arrangement"),
             "  %s" % z.format_str(),
             "terms in the flag sum: %d" % len(z.terms)]
    rep = poles(z)
    if z.nvars == 1:
        lines.append("poles: %s" % (", ".join("%s (order %d)" % pk for pk in rep.univariate)
                                    or "none"))
    else:
        lines.append("polar locus: %s" % ("; ".join("%s (order %d)" % (f.format_str(), k)
                                                    for f, k in rep.multivariate) or "empty"))
    # the text route prints the lines alone, so only --json builds the data
    emit(dict(zeta_json(z, rep), lines=lines) if args.json else {"lines": lines}, args.json)
    return 0


def cmd_walls(args):
    arr = load_arrangement(args)
    ws = nd_wall_set(arr)
    data = {"families": ws.families}
    lines = ["dense edge wall set of %s: %d families"
             % (arr.name or "arrangement", len(ws))]
    for fam in ws:
        lines.append("  normal %s  offsets %s"
                     % (list(fam.normal), ", ".join(map(str, fam.offsets))))
    queries = []
    if args.localize is not None:
        queries.append(("localized", "walls through %s" % args.localize,
                        localized_walls(ws, parse_point(args.localize))))
    if args.separate:
        a, b = args.separate
        queries.append(("separating", "walls separating %s from %s" % (a, b),
                        separating_walls(ws, parse_point(a), parse_point(b))))
    for key, head, hits in queries:
        data[key] = hits
        lines.append("%s: %d" % (head, len(hits)))
        lines.extend("  %s = %s" % (list(w.normal), w.gamma) for w in hits)
    data["lines"] = lines
    emit(data, args.json)
    return 0


def cmd_adapted(args):
    arr = load_arrangement(args)
    beta = adapted_vector(arr)
    verdict = validate_adapted(arr, beta)
    data = {"beta": beta, "valid": verdict.passed, "witnesses": verdict.witnesses}
    data["lines"] = ["adapted vector: %s" % ",".join(map(str, beta)),
                     "validation: %s" % ("PASS" if verdict.passed else "FAIL")]
    emit(data, args.json)
    return 0 if verdict.passed else 1


def _verdict_exit(verdict, args, head, fields):
    """Print a verdict with the named fields of its data; exit 0 on PASS."""
    data = {key: verdict.data[key] for key in fields}
    lines = [head] + ["  %s" % w for w in verdict.witnesses]
    lines.append("PASS" if verdict.passed else "FAIL")
    data["lines"] = lines
    data["passed"] = verdict.passed
    data["witnesses"] = verdict.witnesses
    emit(data, args.json)
    return 0 if verdict.passed else 1


def cmd_nd(args):
    arr = load_arrangement(args)
    return _verdict_exit(nd_check(arr), args,
                         "n/d check for %s:" % (arr.name or "arrangement"),
                         ("n", "d", "ratio", "candidates", "poles", "is_candidate",
                          "is_pole"))


def cmd_smc(args):
    arr = load_arrangement(args)
    if args.broots:
        with open(args.broots) as fh:
            roots = BRootSet.from_json(json.load(fh))
    elif getattr(args, "example", None) == "veys":
        roots = veys_broots()
    else:
        raise ValueError("supply --broots FILE (built-in roots exist only for "
                         "--example veys)")
    return _verdict_exit(smc_verify(arr, roots), args,
                         "strong monodromy check for %s:" % (arr.name or "arrangement"),
                         ("poles", "roots", "offenders"))


def cmd_multi_nd(args):
    arr = load_arrangement(args)
    return _verdict_exit(multi_nd_check(arr), args,
                         "multivariate n/d check for %s:" % (arr.name or "arrangement"),
                         ("hyperplane", "candidates", "polar", "is_candidate", "in_polar"))


def cmd_multi_smc(args):
    arr = load_arrangement(args)
    if not args.zero_locus:
        raise ValueError("supply --zero-locus FILE")
    with open(args.zero_locus) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or not _json_shaped(obj.get("zero_locus"), 2, (int,)):
        raise ValueError('zero locus file needs a "zero_locus" list of lists of integers')
    return _verdict_exit(multi_smc_verify(arr, obj["zero_locus"]), args,
                         "multivariate strong monodromy check for %s:"
                         % (arr.name or "arrangement"),
                         ("polar", "zero_locus", "offenders"))


def cmd_vmono_demo(args):
    lines = []
    spec = MonomialConnectionSpec([Fraction(0), Fraction(-3, 4)])
    lines.append("monomial connection on the 2-torus, residues (0, -3/4)")
    for alpha in [(0, 0), (Fraction(1, 2), Fraction(1, 2)), (1, 1),
                  (Fraction(7, 4), Fraction(1, 4))]:
        g = ncv_generator(spec, alpha)
        lines.append("  generator exponents at (%s, %s): (%d, %d)"
                     % (alpha[0], alpha[1], g[0], g[1]))
    for fam in ncv_walls(spec):
        lines.append("  wall family: normal %s offsets %s"
                     % (list(fam.normal), [str(o) for o in fam.offsets]))
    lines.append("diagonal direct image of the line in the plane")
    lines.append("  classes t1^m t2^n / (t1 - t2)^k, filtration level m + n - k")
    samples = [((0, 0, 1), (Fraction(1, 2), Fraction(1, 2))),
               ((0, 0, 1), (1, 1)),
               ((0, 0, 2), (0, 0)),
               ((1, 0, 1), (1, 1)),
               ((1, 0, 1), (Fraction(3, 2), Fraction(3, 2)))]
    for (m, n, k), alpha in samples:
        cls = DiagClass(m, n, k)
        member = diag_vres_member(cls, alpha)
        lines.append("  (m,n,k)=(%d,%d,%d) at alpha=(%s, %s): %s, s-eigenvalue %d"
                     % (m, n, k, alpha[0], alpha[1],
                        "member" if member else "not a member",
                        diag_s_eigenvalue(cls)))
    ann = diag_annihilator((Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(3, 2)))
    lines.append("  annihilator levels for V(1/2,1/2) over V(3/2,3/2): %s" % (ann,))
    base = diag_walls()
    ext = extend_restricted_walls(base)
    lines.append("  restricted wall normals: %s" % [list(f.normal) for f in base])
    lines.append("  extended wall normals: %s" % [list(f.normal) for f in ext])
    data = {"lines": lines}
    emit(data, args.json)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_input(sub, needs_file=True):
    if needs_file:
        sub.add_argument("file", nargs="?", help="arrangement JSON file")
        sub.add_argument("--example", choices=sorted(EXAMPLES),
                         help="use a built-in arrangement instead of a file")
    sub.add_argument("--json", action="store_true", help="machine readable output")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arrzeta",
        description="Exact topological zeta functions, wall geometry and "
                    "monodromy checks for hyperplane arrangements.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="lattice, dense edges, lct, candidates")
    _add_input(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("zeta", help="local or global (multivariate) zeta function")
    _add_input(p)
    p.add_argument("--global", dest="use_global", action="store_true",
                   help="global instead of local")
    p.add_argument("--multi", action="store_true",
                   help="one variable per factor (needs factorization data)")
    p.add_argument("--at", metavar="POINT", help="localize at a point (local zeta only)")
    p.set_defaults(func=cmd_zeta)

    p = subs.add_parser("walls", help="dense edge wall families")
    _add_input(p)
    p.add_argument("--localize", metavar="POINT", help="walls through a point")
    p.add_argument("--separate", nargs=2, metavar=("A", "B"),
                   help="walls separating two points")
    p.set_defaults(func=cmd_walls)

    p = subs.add_parser("adapted", help="produce and certify an adapted vector")
    _add_input(p)
    p.set_defaults(func=cmd_adapted)

    p = subs.add_parser("nd", help="check that -n/d is a candidate pole")
    _add_input(p)
    p.set_defaults(func=cmd_nd)

    p = subs.add_parser("smc", help="poles against supplied Bernstein-Sato roots")
    _add_input(p)
    p.add_argument("--broots", metavar="FILE", help='JSON {"roots": [...]} file')
    p.set_defaults(func=cmd_smc)

    p = subs.add_parser("multi-nd", help="multivariate candidate check")
    _add_input(p)
    p.set_defaults(func=cmd_multi_nd)

    p = subs.add_parser("multi-smc", help="multivariate polar locus against a zero locus")
    _add_input(p)
    p.add_argument("--zero-locus", metavar="FILE",
                   help='JSON {"zero_locus": [[c1...ck, const], ...]} file')
    p.set_defaults(func=cmd_multi_smc)

    p = subs.add_parser("vmono-demo", help="filtration wall-crossing demonstrations")
    _add_input(p, needs_file=False)
    p.set_defaults(func=cmd_vmono_demo)

    # a point with a leading minus, such as -1,0, is an argument and not an
    # option, as in the argparse of Python 3.13; before it only a plain
    # negative number such as -1 was
    for p in subs.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


@functools.cache
def _parser():
    """The parser run() uses, built once per process: parsing leaves it
    unchanged, and every call parses into a fresh namespace."""
    return build_parser()


def run(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ArrangementError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
