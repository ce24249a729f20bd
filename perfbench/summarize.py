"""Summarise the run records in .perfbench_out/ into one baseline file.

    python3 perfbench/summarize.py [--out perfbench/baseline.json]

For each workload and end-to-end metric: the values of every untraced run,
their median, quartiles and spread (quartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles).  For each per-layer
metric of the traced runs: the median, and whether every count repeated.
"""

import argparse
import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", help="write the summary here as well as printing it")
    args = p.parse_args(argv)
    records = []
    for path in sorted(glob.glob(os.path.join(ROOT, ".perfbench_out", "*-trace[01].json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    out = {"machine": records[0]["machine"] if records else None, "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload and r["trace"] == 0]
        traced = [r for r in records if r["workload"] == workload and r["trace"] == 1]
        w = {"seeds": sorted(r["seed"] for r in runs),
             "failures": sorted({"%s: %s" % (f[0], f[1]) for r in runs for f in r["failures"]}),
             "end_to_end": {}, "per_layer": {}}
        for key in sorted({k for r in runs for k in r["end_to_end"]}):
            vals = [r["end_to_end"][key] for r in runs if key in r["end_to_end"]]
            w["end_to_end"][key] = summary(vals)
        for key in sorted({k for r in traced for k in r["per_layer"]}):
            vals = [r["per_layer"][key] for r in traced]
            w["per_layer"][key] = statistics.median(vals)
        if traced:
            w["traced_seeds"] = sorted(r["seed"] for r in traced)
            w["lattices_per_op"] = {k[len("lattices:"):]: v for k, v in
                                    traced[0]["counters"].items() if k.startswith("lattices:")}
        out["workloads"][workload] = w
        for key, s in w["end_to_end"].items():
            print("%-13s %-13s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (n=%d)"
                  % (workload, key, s["median"], s["q1"], s["q3"], s["spread"],
                     len(s["values"])))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
