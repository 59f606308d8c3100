#!/usr/bin/env python3
"""Compare two sets of perfbench results, refusing mismatched run contexts.

Each side is a result file written by perfbench/run.py under
.bench_out/results/, or a directory of them (several seeds). Results are
grouped by workload and by traced/untraced; per metric the medians of the
two sides are compared, and an end_to_end metric worse than the baseline
by more than its BENCHMARK.json bound is a regression.

Results are only comparable when their run contexts agree: same nproc, SIMD
route, compiler, build type, thread/worker settings, model and context
shapes and run length. A mismatch, or any result from a Debug build, is
refused rather than compared.

Usage:
  python3 perfbench/compare.py BASELINE FRESH [--benchmark BENCHMARK.json]

Exit code 0 = no regression, 1 = regression(s), 2 = refused or bad input.
"""

import argparse
import glob
import json
import os
import statistics
import sys

# Context keys that legitimately differ between comparable runs.
PER_RUN_KEYS = {"trace_file"}


def refuse(msg):
    print(f"compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    if not files:
        refuse(f"no result files in {path}")
    groups = {}
    for f in files:
        try:
            with open(f, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            refuse(f"cannot read {f}: {e}")
        ctx = doc.get("context", {})
        if ctx.get("build_type") == "Debug":
            refuse(f"{f} comes from a Debug build; rerun from a Release build")
        key = (ctx.get("workload"), ctx.get("trace"))
        groups.setdefault(key, []).append((f, doc))
    return groups


def context_of(doc):
    return {k: v for k, v in doc.get("context", {}).items() if k not in PER_RUN_KEYS}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    bounds = {}
    if os.path.isfile(args.benchmark):
        with open(args.benchmark, encoding="utf-8") as f:
            for m in json.load(f).get("end_to_end", []):
                bounds[m["name"]] = (m["better"], m["bound"])

    base, fresh = load(args.baseline), load(args.fresh)
    regressions = 0
    for key in sorted(set(base) & set(fresh), key=str):
        docs = base[key] + fresh[key]
        ref_file, ref = docs[0][0], context_of(docs[0][1])
        for f, doc in docs[1:]:
            ctx = context_of(doc)
            if ctx != ref:
                diff = sorted(k for k in set(ctx) | set(ref) if ctx.get(k) != ref.get(k))
                refuse(f"run contexts differ between {ref_file} and {f} on: {', '.join(diff)}")
        workload, trace = key
        print(f"== {workload} (trace={trace}): {len(base[key])} baseline vs "
              f"{len(fresh[key])} fresh runs")
        names = sorted(set().union(*(d["metrics"] for _, d in docs)))
        for name in names:
            b = [d["metrics"][name]["value"] for _, d in base[key] if name in d["metrics"]]
            n = [d["metrics"][name]["value"] for _, d in fresh[key] if name in d["metrics"]]
            if not b or not n or None in b or None in n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else 0.0
            verdict = ""
            if name in bounds and mb:
                better, bound = bounds[name]
                worse = -change if better == "higher" else change
                if worse > bound:
                    verdict = f"REGRESSION (bound {bound:.0%})"
                    regressions += 1
            print(f"   {name:<36} {mb:>14.6g} -> {mn:<14.6g} {change:+8.2%} {verdict}")
    for key in sorted(set(base) ^ set(fresh), key=str):
        print(f"   only on one side: workload={key[0]} trace={key[1]}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
