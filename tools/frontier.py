"""Frontier digest: the flag sum's larger cases, each in a fresh process.

    python3 tools/frontier.py                      # every case, library from src/
    python3 tools/frontier.py --case A8 --case B7
    python3 tools/frontier.py --src OTHER/src      # another checkout's library
    python3 tools/frontier.py --against OTHER --rounds 3   # both checkouts, paired

For each case a child process imports the library, builds the
arrangement, then its lattice (Arrangement.lattice), then the flag sum
(zeta._flag_sum) and the pole decision (zeta.ZetaFunction._merged), and
prints one JSON line: the seconds of those three steps, the peak resident
set size, the numbers of flats, dense edges and merged terms, the sha256
of the pickled (rows, ranked, q) that the flag sum returns, the sha256 of
the pickled sorted (row, order) pairs of the decided denominator
("poles_sha256", each form as its integer row: coefficients, then
constant), and the number of forms that the pole decision settles by
dividing the numerator of their carriers ("divided", the calls of
zeta._lcd_numerator, counted by a wrapper set in the child; the child
reads no numerator of the whole sum).  Two checkouts give the same digests exactly
when their flag sums and decided poles agree byte for byte.

A CLI case, "zeta --multi --json" and an arrangement case's name, writes
that arrangement to a JSON file and runs `arrzeta zeta FILE --multi --json`
through cli.run in a child process.  Its line holds the exit code, the
seconds of the call, the child's peak resident set size, and the number
of bytes and the sha256 of what the call printed, which is all that is
kept of it.

Every time comes twice: plain wall-clock seconds ("lattice_s",
"seconds") and seconds at the benchmark's reference speed ("lattice_ref_s",
"ref_seconds").  Around its timed steps the child runs the SpeedSampler of
perfbench/speed.py, imported from this script's checkout and not changed:
every 25 ms it times a fixed calibration loop.  Those loops are left out of
both figures, and their speed during a step scales the step to the time it
would take on a core that runs the loop in speed.REF_S seconds.  The cores
of a shared host change speed, which the reference seconds take out; still
compare runs made side by side, the two sides alternating.

With --against OTHER, a checkout's root, every case runs on both sides
in each of --rounds rounds, the side that goes first alternating from one
case and round to the next.  Each side's child is that checkout's own
tools/frontier.py, importing that checkout's src/, since the private
functions a child calls may differ between them.  Instead of the children's
lines it prints one JSON line per case: both sides' medians of each time
and of the peak RSS ("this", "other"), the rounds, counted from 1, in which
this side's time is lower ("lower"), and whether the digests and the
number of divided forms agree over every run of both sides ("same").

Case names: A_k is the braid arrangement x_i - x_j in C^(k+1) and B_n the
root-system arrangement of type B in C^n.  "i mod k" puts hyperplane i,
its whole multiplicity, into factor i mod k and takes the multivariate
zeta; "/r" is one factor per hyperplane.
"""

import argparse
import hashlib
import json
import os
import pickle
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from itertools import combinations
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def braid(k):
    n = k + 1
    return n, [[(m == i) - (m == j) for m in range(n)] for i, j in combinations(range(n), 2)], None


def type_b(n):
    forms = [[int(m == i) for m in range(n)] for i in range(n)]
    forms += [[(m == i) + sign * (m == j) for m in range(n)]
              for i, j in combinations(range(n), 2) for sign in (1, -1)]
    return n, forms, None


# (ambient dimension, forms, multiplicities or None)
VEYS = (3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, -1)], [1, 1, 1, 2, 4])
NINEFOLD = (3, [(1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1),
                (1, 1, 1), (1, -1, 1), (2, 0, 1)], None)
THIRTEEN = (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, -1, 0), (1, 0, 1),
                (1, 0, -1), (0, 1, 1), (0, 1, -1), (1, 1, 1), (1, 1, -1), (1, -1, 1),
                (1, -1, -1)], None)
VANDERMONDE_8 = (3, [(1, k, k * k) for k in range(1, 9)], None)

# name: (arrangement as above, number of factors or None for the univariate zeta)
CASES = {"veys": (VEYS, None), "veys i mod 2": (VEYS, 2)}
CASES.update(("A%d" % k, (braid(k), None)) for k in range(3, 9))
CASES.update(("B%d" % n, (type_b(n), None)) for n in range(3, 8))
CASES.update({
    "ninefold": (NINEFOLD, None),
    "thirteen": (THIRTEEN, None),
    "vandermonde-8": (VANDERMONDE_8, None),
    "A5 i mod 3": (braid(5), 3),
    "A6 i mod 2": (braid(6), 2),
    "A7 i mod 2": (braid(7), 2),
    "B5 i mod 2": (type_b(5), 2),
    "B6 i mod 3": (type_b(6), 3),
    "B3 /9": (type_b(3), 9),
    "ninefold /9": (NINEFOLD, 9),
    "ninefold i mod 5": (NINEFOLD, 5),
    "thirteen i mod 3": (THIRTEEN, 3),
})


# name: the case whose arrangement `zeta FILE --multi --json` reads
CLI_CASES = {"zeta --multi --json " + case: case for case in ("B3 /9", "ninefold /9")}


def arrangement_json(name):
    """The case's arrangement in the CLI's file format."""
    (n, forms, mults), k = CASES[name]
    mults = mults or [1] * len(forms)
    factors = None if k is None else [[m * (i % k == j) for i, m in enumerate(mults)]
                                      for j in range(k)]
    return {"n": n, "forms": [list(f) for f in forms], "mults": mults, "factors": factors}


def arrangement(name):
    """(the case's Arrangement, whether its zeta is multivariate)."""
    from arrzeta.arrangement import Arrangement
    spec = arrangement_json(name)
    return (Arrangement(spec["n"], spec["forms"], spec["mults"], factors=spec["factors"]),
            spec["factors"] is not None)


class Digest:
    """A text stream that keeps only the byte count and sha256 of what is
    written to it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()
        self.bytes = 0

    def write(self, text):
        data = text.encode()
        self.sha256.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self):
        pass


def start_sampler():
    """A started SpeedSampler of perfbench/speed.py, imported from this
    script's checkout as perfbench/run.py imports it."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from speed import SpeedSampler
    sampler = SpeedSampler()
    sampler.start()
    return sampler


def scaled(sampler, start, end):
    """(plain seconds, seconds at reference speed) of the span [start, end),
    both without the calibration loops run inside it, to 1 microsecond."""
    return tuple(round(x, 6) for x in sampler.scale(start, end))


def cli_child(name):
    """Run one CLI case in this process and print its JSON line."""
    from arrzeta.cli import run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arrangement.json")
        with open(path, "w") as fh:
            json.dump(arrangement_json(CLI_CASES[name]), fh)
        out = Digest()
        sampler = start_sampler()
        t0 = perf_counter()
        with redirect_stdout(out):
            code = run(["zeta", path, "--multi", "--json"])
        t1 = perf_counter()
        sampler.stop()
    plain, ref = scaled(sampler, t0, t1)
    print(json.dumps({
        "case": name,
        "exit": code,
        "seconds": plain,
        "ref_seconds": ref,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "stdout_bytes": out.bytes,
        "sha256": out.sha256.hexdigest(),
    }))


def child(name):
    """Run one case in this process and print its JSON line."""
    from arrzeta import zeta
    lcd_numerator, built = zeta._lcd_numerator, [0]

    def counted(*args):
        built[0] += 1
        return lcd_numerator(*args)

    zeta._lcd_numerator = counted
    arr, multi = arrangement(name)
    sampler = start_sampler()
    t0 = perf_counter()
    lattice = arr.lattice
    t1 = perf_counter()
    rows, ranked, q = zeta._flag_sum(arr, multi)
    t2 = perf_counter()
    z = zeta.ZetaFunction._merged(len(zeta._factor_rows(arr, multi)),
                                  zeta._pole_table(arr, lattice, multi), ranked, q)
    t3 = perf_counter()
    sampler.stop()
    poles = sorted((f.coeffs + (f.const,), k) for f, k in z.denominator.items())
    times = {}
    for step, start, end in (("lattice", t0, t1), ("sum", t1, t2), ("poles", t2, t3)):
        times[step + "_s"], times[step + "_ref_s"] = scaled(sampler, start, end)
    print(json.dumps({
        "case": name,
        **times,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "flats": len(lattice),
        "dense": len(lattice.dense),
        "terms": len(ranked),
        "sha256": hashlib.sha256(pickle.dumps((rows, ranked, q), protocol=4)).hexdigest(),
        "poles_sha256": hashlib.sha256(pickle.dumps(poles, protocol=4)).hexdigest(),
        "divided": built[0],
    }))


# what --against compares for equality, where a case's line has it
DIGESTS = ("exit", "sha256", "poles_sha256", "divided")


def paired(names, rounds, other):
    """Run every case on this checkout and on other, rounds times each, the
    first side alternating, and print one summary line per case; the number
    of cases a child failed in."""
    # imported here, not in the children: it adds about 0.6 MB to their peak RSS
    import statistics
    sides = ((os.path.abspath(__file__), os.path.join(ROOT, "src")),
             (os.path.join(other, "tools", "frontier.py"), os.path.join(other, "src")))
    failed = 0
    for c, name in enumerate(names):
        lines = ([], [])
        for r in range(rounds):
            for side in ((0, 1) if (c + r) % 2 == 0 else (1, 0)):
                script, src = sides[side]
                done = subprocess.run([sys.executable, script, "--child", name, "--src", src],
                                      stdout=subprocess.PIPE, text=True)
                if done.returncode:
                    break
                lines[side].append(json.loads(done.stdout))
        if len(lines[0]) + len(lines[1]) < 2 * rounds:
            failed += 1
            continue
        times = [k for k in lines[0][0] if k.endswith(("_s", "seconds"))]
        print(json.dumps({
            "case": name,
            **{key: {k: round(statistics.median(line[k] for line in side), 6)
                     for k in times + ["peak_rss_mb"]}
               for key, side in zip(("this", "other"), lines)},
            "lower": {k: [r + 1 for r, (a, b) in enumerate(zip(*lines)) if a[k] < b[k]]
                      for k in times},
            "same": {k: len({line[k] for side in lines for line in side}) == 1
                     for k in DIGESTS if k in lines[0][0]},
        }))
    return failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--case", action="append", choices=sorted(CASES) + sorted(CLI_CASES),
                   help="a case to run (repeatable; default: every case)")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="the directory the arrzeta package is imported from")
    p.add_argument("--against", metavar="CHECKOUT",
                   help="another checkout's root: run both, paired, and print per case "
                        "their medians, the rounds this side is lower in and whether the "
                        "digests agree")
    p.add_argument("--rounds", type=int, default=1, help="rounds of each side with --against")
    p.add_argument("--child", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.child:
        sys.path.insert(0, args.src)
        (cli_child if args.child in CLI_CASES else child)(args.child)
        return 0
    names = args.case or [*CASES, *CLI_CASES]
    if args.against:
        return 1 if paired(names, args.rounds, os.path.abspath(args.against)) else 0
    failed = 0
    for name in names:
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", name,
                               "--src", os.path.abspath(args.src)])
        failed += done.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
