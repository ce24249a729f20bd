"""Regenerate perfbench/data/: the verify-mixed input pool and the stored
reference result of every operation, computed by the library in src/.

    python3 perfbench/make_refs.py [zeta-deep] [verify-mixed]

The stored files were made from the seed code.  Rerun this only on code
whose results are trusted and only to add inputs, never to make a failing
check pass.  While recording, the closed forms and oracles already attached
to an operation must hold, or nothing is written.
"""

import json
import os
import random
import shutil
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import arrzeta as A  # noqa: E402
import workloads as W  # noqa: E402
from run import run_pass  # noqa: E402
from speed import SpeedSampler  # noqa: E402

POOL_SEED = 20261017
POOL_SIZES = {"c3": 64, "lines": 48, "factored": 12}


class Slot:
    """Stands in for a reference while recording; store() fills it in."""

    def __init__(self, target, key):
        self.target, self.key = target, key

    def __getitem__(self, key):
        return Slot(self.target.setdefault(self.key, {}), key)

    def store(self, value):
        if self.key in self.target and self.target[self.key] != value:
            raise AssertionError("two operations disagree on reference %r" % (self.key,))
        self.target[self.key] = value


class Recorder:
    def __init__(self):
        self.values = {}

    def __getitem__(self, key):
        return Slot(self.values, key)


def record(ops):
    """Run ops once, fill their slots and check everything else."""
    state = {}
    for op in ops:
        try:
            result, exc = op.call(state), None
        except Exception as e:  # an expected error becomes the reference
            result, exc = None, e
        if isinstance(op.ref, Slot):
            value = ({"error": type(exc).__name__} if exc is not None
                     else W.canon(op.describe(result)))
            op.ref.store(value)
            op.ref = value
        if op.known_defect:
            continue
        msg = op.check(result, exc)
        if msg is not None:
            raise AssertionError("%s: %s" % (op.label, msg))


# ---------------------------------------------------------------------------
# the verify-mixed pool: the distributions of random_central_c3 and
# random_lines in tests/conftest.py, and reduced factored arrangements

def distinct_normals(rng, n, r, lo=-3, hi=3):
    forms, seen = [], set()
    while len(forms) < r:
        v = tuple(rng.randint(lo, hi) for _ in range(n))
        if all(e == 0 for e in v) or A.primitive_normal(v) in seen:
            continue
        seen.add(A.primitive_normal(v))
        forms.append(v)
    return forms


def new_entry(rng, kind, i):
    r = rng.randint(3, 6)
    name = "%s-%02d" % (kind, i)
    if kind == "c3":
        s = W.spec(3, distinct_normals(rng, 3, r), [rng.randint(1, 3) for _ in range(r)],
                   name=name)
    elif kind == "lines":
        s = W.spec(2, distinct_normals(rng, 2, r), [rng.randint(1, 4) for _ in range(r)],
                   name=name)
    else:
        k = rng.randint(2, 3)
        owner = list(range(k)) + [rng.randrange(k) for _ in range(r - k)]
        rng.shuffle(owner)
        factors = [[1 if owner[i] == j else 0 for i in range(r)] for j in range(k)]
        s = W.spec(3, distinct_normals(rng, 3, r), factors=factors, name=name)
    return complete_entry(rng, {"spec": s}, i)


def complete_entry(rng, e, i):
    """Add the supplied roots or zero locus and the two points for the walls.

    Odd entries drop one candidate from the supplied data, so that some
    verdicts fail and their witnesses are checked too.
    """
    s = e["spec"]
    arr = W.Perm(range(len(s["forms"]))).arrangement(s)
    if s["factors"] is None:
        roots = [W.fstr(x) for x in A.candidate_poles(arr)]
        e["roots"] = roots[1:] if i % 2 and len(roots) > 1 else roots
        e["points"] = [[W.fstr(Fraction(rng.randint(-36, 36), 12)) for _ in s["forms"]]
                       for _ in range(2)]
    else:
        locus = [list(f.coeffs) + [f.const] for f in A.candidate_poles(arr, multi=True)]
        e["zero_locus"] = locus[1:] if i % 2 and len(locus) > 1 else locus
    return e


def record_entry(e):
    e["ref"] = Recorder()
    perm = W.Perm(range(len(e["spec"]["forms"])))
    arr = perm.arrangement(e["spec"])
    build = W.factored_ops if e["spec"]["factors"] is not None else W.verdict_ops
    ops = build(e, perm, arr, e["spec"]["name"])
    record(ops)
    e["cost"] = cost(ops)
    e["ref"] = e["ref"].values
    return e


def cost(ops, repeats=3):
    """Seconds the ops take at reference speed (speed.py): the median of
    repeats, after the recording run has warmed them up."""
    sampler = SpeedSampler()
    sampler.start()
    try:
        return statistics.median(run_pass(ops, sampler)[0][0] for _ in range(repeats))
    finally:
        sampler.stop()


# ---------------------------------------------------------------------------

def make_zeta_deep():
    refs = Recorder()
    record(W.build_zeta_deep(0, refs))
    return refs.values


def make_verify_mixed():
    rng = random.Random(POOL_SEED)
    pool = {}
    for kind, size in POOL_SIZES.items():
        pool[kind] = [record_entry(new_entry(rng, kind, i)) for i in range(size)]
        print("  pool %s: %d entries" % (kind, size), flush=True)
    fixed = [record_entry(complete_entry(rng, {"spec": s}, 0)) for s in W.factored_specs()]
    # any 12 distinct lines have the same lattice, so one instance serves every seed
    analyze = Recorder()
    lines = W.wide_lines(random.Random(0))
    record(W.analyze_ops(lines, W.Perm(range(len(lines["forms"]))), analyze["lines-12"]))
    directory = os.path.join(os.path.dirname(HERE), ".perfbench_tmp", "refs")
    W.write_cli_files(directory)
    cli = Recorder()
    try:
        record(W.cli_ops(directory, cli))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {"pool": pool, "fixed": fixed, "cli": cli.values,
            "lines-12": analyze.values["lines-12"]}


MAKERS = {"zeta-deep": make_zeta_deep, "verify-mixed": make_verify_mixed}


def main(argv):
    os.makedirs(W.DATA, exist_ok=True)
    for name in argv or W.WORKLOADS:
        start = perf_counter()
        data = MAKERS[name]()
        path = os.path.join(W.DATA, name.replace("-", "_") + ".json")
        with open(path, "w") as fh:
            json.dump(data, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print("%s: wrote %s in %.1f s" % (name, path, perf_counter() - start), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
