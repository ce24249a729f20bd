"""Benchmark of arrzeta: exact zeta functions, lattices and verdicts.

    python3 perfbench/run.py --workload zeta-deep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from src/.  One
process per workload ("all" starts one child process for each).  A single
client runs the workload's operation list as a closed loop: the next
operation starts when the previous one returns, with no think time.  A
first pass over the list warms the process up and is not timed; timed
passes follow while another one is expected to end nearer to --seconds
than stopping would, and there is always at least one.  Every output is
checked after its pass, exactly, against stored references and independent
oracles.

Set-up, operation and pass times are given at reference speed: a
calibration loop sampled every 25 ms measures how fast the core is going,
and each time is scaled to a fixed speed (speed.py).  measured_setup_s and
measured_wall_s are the same times unscaled.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
untraced and traced passes in pairs and prints the per-layer metrics, taken
from spans recorded around calls into the public functions (tracer.py).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with the machine, goes to
.perfbench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

from speed import REF_S, SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
TMP = os.path.join(ROOT, ".perfbench_tmp")
SETUP_PROBES = 11


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="zeta-deep, verify-mixed or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and build the inputs, print 'ready' and exit "
                        "(the benchmark times this for setup_s)")
    return p.parse_args(argv)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# machine and code identity

def source_hash():
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "arrzeta"), HERE, os.path.join(HERE, "data")):
        for name in sorted(os.listdir(base)):
            if name.endswith((".py", ".json")):
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def machine():
    """Python, cores, platform, git commit (when the checkout is a git work
    tree) and a hash of the library and benchmark sources."""
    commit = "unavailable"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit, "source_sha256": source_hash()}


# ---------------------------------------------------------------------------
# set-up time: fresh processes that import arrzeta and build the inputs

def setup_probe(args):
    import workloads
    tmp = os.path.join(TMP, "probe-%d" % os.getpid())
    try:
        workloads.build(args.workload, args.seed, tmp)
        print("ready", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def measure_setup(args):
    """(measured seconds, seconds at reference speed) from process start to the
    first operation being ready, per probe.  The probes run pinned to one core
    with this process, which samples that core's speed while it waits."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    sampler = SpeedSampler()
    sampler.start()
    try:
        return [setup_probe_time(argv, sampler) for _ in range(SETUP_PROBES)]
    finally:
        sampler.stop()
        os.sched_setaffinity(0, cpus)


def setup_probe_time(argv, sampler):
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        end = perf_counter()
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("setup probe failed: %s" % err.strip())
    return sampler.scale(start, end)


# ---------------------------------------------------------------------------
# passes

def run_pass(ops, sampler, tracer=None):
    """One closed-loop pass: (times, [(result, exception, seconds)]).

    times holds the pass's seconds at reference speed, the measured seconds,
    and each operation's seconds at reference speed (speed.py), which is also
    the last field of a record.
    """
    state = {}
    spans = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t = perf_counter()
        try:
            result, exc = op.call(state), None
        except Exception as e:  # a failing operation is recorded and the loop goes on
            result, exc = None, e
        spans.append((result, exc, t, perf_counter()))
    scaled = [sampler.scale(t, end) for _, _, t, end in spans]
    ref = [r for _, r in scaled]
    records = [(result, exc, r) for (result, exc, _, _), r in zip(spans, ref)]
    return (sum(ref), sum(m for m, _ in scaled), ref), records


def check_pass(ops, records, failures):
    for op, (result, exc, _) in zip(ops, records):
        try:
            msg = op.check(result, exc)
        except Exception as e:  # a result the check cannot read is a wrong result
            msg = "check raised %s: %s" % (type(e).__name__, e)
        if msg is not None:
            failures.append((op.label, msg, op.known_defect))


def layer_metrics(tracer, ops, records):
    """Per-layer metrics of one traced pass: counts and self times."""
    from arrzeta.zeta import ZetaFunction
    from tracer import HARNESS_VERDICTS, LAYERS

    spans = tracer.spans
    selfs = tracer.self_times()
    roots = tracer.roots()
    calls, self_s = Counter(), defaultdict(float)
    for (name, _, _, _, _), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
    sizes = defaultdict(int)
    for idx, n in tracer.sizes.items():
        sizes[spans[idx][0]] += n
    top = Counter(span[0] for span in spans if span[3] < 0)
    harness = {"harness." + f for f in HARNESS_VERDICTS}
    verdicts = sum(top[name] for name in harness)
    verdict_lattices = sum(1 for i, span in enumerate(spans)
                           if span[0] == "arrangement.intersection_lattice"
                           and spans[roots[i]][0] in harness)

    normalize_s, cancelled = 0.0, 0
    for z in tracer.zetas:
        t = perf_counter()
        ZetaFunction(z.nvars, z.terms)
        normalize_s += perf_counter() - t
        lcd = {}
        for _, dens in z.terms:
            for f, k in Counter(dens).items():
                lcd[f] = max(lcd.get(f, 0), k)
        cancelled += sum(lcd.values()) - sum(z.denominator.values())

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer, names in LAYERS.items():
        for fname in names:
            key = "%s.%s" % (layer, fname)
            m[key + ".calls"] = calls[key]
            m[key + ".self_s"] = self_s[key]
        m[layer + ".self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    m["core.MultiPoly.mul.calls"] = calls["core.MultiPoly.mul"]
    m["core.MultiPoly.mul.self_s"] = self_s["core.MultiPoly.mul"]
    lattices = calls["arrangement.intersection_lattice"]
    m["arrangement.lattices_per_call"] = ratio(lattices, sum(top.values()))
    m["arrangement.flats"] = sizes["arrangement.intersection_lattice"]
    m["arrangement.flats_per_closure"] = ratio(sizes["arrangement.intersection_lattice"],
                                               calls["arrangement.closure"])
    m["zeta.chains"] = sizes["zeta.enumerate_chains"]
    m["zeta.terms"] = sum(sizes["zeta." + f] for f in
                          ("local_zeta", "global_zeta", "multivariate_local_zeta",
                           "multivariate_global_zeta"))
    m["zeta.useful_terms_ratio"] = ratio(m["zeta.terms"], m["zeta.chains"])
    m["zeta.normalize_s"] = normalize_s
    m["zeta.cancelled_factors"] = cancelled
    m["harness.verdicts"] = verdicts
    m["harness.lattices_per_verdict"] = ratio(verdict_lattices, verdicts)
    m["walls.families"] = sizes["walls.nd_wall_set"]
    m["cli.json_bytes"] = sum(len(res[1].encode()) for op, (res, exc, _) in zip(ops, records)
                              if op.label.startswith("cli:") and exc is None)
    per_op = Counter(span[4] for span in spans if span[0] == "arrangement.intersection_lattice")
    lattices_per_op = {ops[i].label: per_op[i] for i in range(len(ops))}
    return m, lattices_per_op


def is_count(name):
    return not name.endswith("_s")


def check_counters(args, counters):
    """Counters of this run against an earlier run of the same code and seed."""
    path = os.path.join(OUT, "counters-%s-seed%d-%s.json"
                        % (args.workload, args.seed, source_hash()))
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        return [k for k in sorted(set(earlier) | set(counters))
                if earlier.get(k) != counters.get(k)]
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counters, fh, indent=1, sort_keys=True)
    return []


# ---------------------------------------------------------------------------
# one workload

def run_workload(args):
    import workloads
    tmp = os.path.join(TMP, str(os.getpid()))
    try:
        ops = workloads.build(args.workload, args.seed, tmp)
        setup_times = measure_setup(args)
        result = measure(args, ops)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["setup_times"] = setup_times
    return report(args, result)


def measure(args, ops):
    sampler = SpeedSampler()
    sampler.start()
    try:
        return measure_passes(args, ops, sampler)
    finally:
        sampler.stop()


def measure_passes(args, ops, sampler):
    from tracer import Tracer
    failures, attempted = [], 0
    untraced, traced, layer_runs, lattice_ops = [], [], [], []
    start = perf_counter()
    # the first pass of a process runs about 9% slower than the next ones at
    # the same speed; it is checked but not timed
    _, records = run_pass(ops, sampler)
    check_pass(ops, records, failures)
    attempted += len(ops)
    del records
    while True:
        times, records = run_pass(ops, sampler)
        untraced.append(times)
        check_pass(ops, records, failures)
        attempted += len(ops)
        del records
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                times, records = run_pass(ops, sampler, tracer)
            finally:
                tracer.uninstall()
            traced.append(times[0])
            check_pass(ops, records, failures)
            attempted += len(ops)
            m, per_op = layer_metrics(tracer, ops, records)
            layer_runs.append(m)
            lattice_ops.append(per_op)
            absent = tracer.absent
            del records, tracer
        # another round only if it ends nearer to --seconds than stopping now
        elapsed = perf_counter() - start
        if elapsed + elapsed / (len(untraced) + 1) / 2 >= args.seconds:
            break
    out = {"ops": [op.label for op in ops], "untraced": untraced, "failures": failures,
           "attempted": attempted, "peak_rss_mb": peak_rss_mb(),
           "calibration_s": statistics.quantiles(sampler.costs, n=10)}
    if args.trace:
        out.update(traced=traced, layer_runs=layer_runs, lattice_ops=lattice_ops, absent=absent)
    return out


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result):
    walls = [s for s, _, _ in result["untraced"]]
    durations = [d for _, _, ds in result["untraced"] for d in ds]
    m = {"setup_s": statistics.median(s for _, s in result["setup_times"]),
         "measured_setup_s": statistics.median(s for s, _ in result["setup_times"]),
         "wall_s": statistics.median(walls),
         "measured_wall_s": statistics.median(s for _, s, _ in result["untraced"]),
         "slowest_op_s": statistics.median(max(ds) for _, _, ds in result["untraced"]),
         "peak_rss_mb": result["peak_rss_mb"],
         "error_rate": len(result["failures"]) / result["attempted"],
         "ops": len(durations)}
    # a percentile is reported only with at least ten samples beyond it
    if len(durations) >= 200:
        q = statistics.quantiles(durations, n=100)
        m["op_p50_s"], m["op_p95_s"] = q[49], q[94]
    return m


def per_layer(args, result):
    runs = result["layer_runs"]
    m = {}
    for key in runs[0]:
        vals = [r[key] for r in runs]
        m[key] = vals[0] if is_count(key) else statistics.median(vals)
    walls = [s for s, _, _ in result["untraced"]]
    m["trace.wall_s"] = statistics.median(result["traced"])
    m["trace.overhead_s"] = m["trace.wall_s"] - statistics.median(walls)
    counters = [counters_of(r, lo) for r, lo in zip(runs, result["lattice_ops"])]
    first = counters[0]
    unstable = sorted({k for c in counters[1:] for k in first if c.get(k) != first[k]})
    unstable += check_counters(args, first)
    return m, first, unstable


def counters_of(layer, lattice_ops):
    """Everything a traced pass counts; it must repeat exactly."""
    out = {k: v for k, v in layer.items() if is_count(k)}
    out.update({"lattices:" + k: v for k, v in lattice_ops.items()})
    return out


def report(args, result):
    bench = spec()
    info = machine()
    e2e = end_to_end(result)
    failures = result["failures"]
    unexpected = [f for f in failures if f[2] is None]
    lines = ["perfbench %s seed=%d seconds=%g trace=%d"
             % (args.workload, args.seed, args.seconds, args.trace),
             "machine: python %(python)s, nproc %(nproc)s, %(platform)s, commit %(commit)s, "
             "source %(source_sha256)s" % info,
             "passes: %d timed untraced, after one warm-up, of %d operations"
             % (len(result["untraced"]), len(result["ops"])),
             "calibration loop deciles: %s s (reference %g s)"
             % (" ".join("%.3g" % c for c in result["calibration_s"]), REF_S)]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "end_to_end": e2e,
              "setup_times": result["setup_times"], "failures": failures,
              "calibration_deciles_s": result["calibration_s"],
              "op_seconds": dict(zip(result["ops"], (statistics.median(col) for col in
                                                     zip(*(d for *_, d in result["untraced"])))))}
    unstable = []
    if args.trace:
        layer, counters, unstable = per_layer(args, result)
        record.update(per_layer=layer, counters=counters, absent=result["absent"])
        metrics_src, listed = layer, bench["per_layer"]
        lines.append("per-layer (traced passes: %d; wall %.4f s traced against %.4f s "
                     "untraced, overhead %.4f s):"
                     % (len(result["traced"]), layer["trace.wall_s"],
                        layer["trace.wall_s"] - layer["trace.overhead_s"],
                        layer["trace.overhead_s"]))
        for k in sorted(layer):
            name = k.rsplit(".", 1)[0]
            note = "  (absent)" if name in result["absent"] else ""
            lines.append("  %-44s %s%s" % (k, layer[k] if is_count(k) else
                                           "%.6f s" % layer[k], note))
        for label, n in result["lattice_ops"][0].items():
            if n:
                lines.append("  lattices built by %-38s %d" % (label, n))
        for k in unstable:
            lines.append("  COUNTER DID NOT REPEAT: %s" % k)
    else:
        metrics_src, listed = e2e, bench["end_to_end"]
        units = {"setup_s": "s", "measured_setup_s": "s", "wall_s": "s",
                 "measured_wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB",
                 "op_p50_s": "s", "op_p95_s": "s"}
        for k in ("setup_s", "measured_setup_s", "wall_s", "measured_wall_s", "slowest_op_s",
                  "op_p50_s", "op_p95_s", "peak_rss_mb"):
            if k in e2e:
                extra = "  (n=%d operations)" % e2e["ops"] if k.startswith("op_p") else ""
                lines.append("%-16s %.6f %s%s" % (k, e2e[k], units[k], extra))
    lines.append("error_rate       %.6f  (%d of %d operations failed; %d unexpected)"
                 % (e2e["error_rate"], len(failures), result["attempted"], len(unexpected)))
    for label, msg, defect in sorted(set(failures)):
        lines.append("  FAIL %s: %s%s" % (label, msg, "  [known: %s]" % defect if defect else ""))
    for line in lines:
        print(line)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    metrics = {m["name"]: {"value": metrics_src.get(m["name"], 0), "unit": m["unit"]}
               for m in listed}
    print(json.dumps({"correct": not unexpected and not unstable,
                      "attempted": result["attempted"], "failed": len(failures),
                      "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# all workloads, each in its own process

def run_all(args):
    import workloads
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        res = json.loads(out[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(total))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arrzeta", "__init__.py")):
        print("error: no arrzeta sources at %s; run from the root of a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import arrzeta
    if not os.path.abspath(arrzeta.__file__).startswith(SRC + os.sep):
        print("error: arrzeta was imported from %s, not from %s" % (arrzeta.__file__, SRC),
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
