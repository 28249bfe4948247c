#!/usr/bin/env python3
"""Report-only comparison of two sets of benchmark runs.

    python3 perfbench/compare.py --base BASE... --new NEW...

Each argument is a file or a directory of files holding the standard
output of untraced runs (any number of runs per file; each run prints a
detail line naming its workload, then its result line). For every workload
and end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles and a verdict:
  worse       the new median is worse than the base by more than the bound
  unresolved  either side's quartile spread exceeds the bound (unless every
              new run reads better than every base run)
  ok          otherwise
It never fails a build: the exit code is 0 whenever both sets parse.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def files_of(paths):
    for p in paths:
        if os.path.isdir(p):
            for name in sorted(os.listdir(p)):
                full = os.path.join(p, name)
                if os.path.isfile(full):
                    yield full
        else:
            yield p


def load_runs(paths):
    """{workload: [metrics dict]} from untraced runs."""
    runs = {}
    for path in files_of(paths):
        workload = None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                obj = json.loads(line)
                if "workload" in obj:
                    workload = obj["workload"]
                    traced = obj["provenance"]["trace"]
                elif "metrics" in obj and workload is not None:
                    if not traced:
                        runs.setdefault(workload, []).append(obj["metrics"])
                    workload = None
    return runs


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def verdict(base, new, metric):
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    b_med, b_q1, b_q3 = summary(base)
    n_med, n_q1, n_q3 = summary(new)
    change = (n_med - b_med) / b_med if b_med else 0.0
    worse = change > bound if lower else -change > bound
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    spread = max((b_q3 - b_q1) / b_med if b_med else 0.0,
                 (n_q3 - n_q1) / n_med if n_med else 0.0)
    if worse:
        return change, "worse"
    if spread > bound and not all_better:
        return change, "unresolved"
    return change, "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = load_runs(args.base)
    new = load_runs(args.new)
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print("%s: no runs on %s side" %
                  (name, "base" if name not in base else "new"))
            continue
        print("%s (base %d runs, new %d runs)" %
              (name, len(base[name]), len(new[name])))
        for m in spec["end_to_end"]:
            b = [r[m["name"]]["value"] for r in base[name] if m["name"] in r]
            n = [r[m["name"]]["value"] for r in new[name] if m["name"] in r]
            if not b or not n:
                print("  %-14s missing" % m["name"])
                continue
            change, v = verdict(b, n, m)
            bm, bq1, bq3 = summary(b)
            nm, nq1, nq3 = summary(n)
            print("  %-14s base %11.4f [%11.4f %11.4f]  new %11.4f "
                  "[%11.4f %11.4f]  %+7.2f%%  bound %4.0f%%  %s" %
                  (m["name"], bm, bq1, bq3, nm, nq1, nq3, 100 * change,
                   100 * m["bound"], v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
