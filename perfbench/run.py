#!/usr/bin/env python3
"""Run one GenDT benchmark workload and print its metrics.

Usage (from the repository root):
  python3 perfbench/run.py --workload campaign|covermap|mixed_serve \
      --seed N --seconds S --trace 0|1

Builds perfbench/ (the gendt libraries plus the gendt_perfbench program) in
Release mode into .bench_build/ (or $CARGO_TARGET_DIR when set), runs the
workload in one process and prints a human-readable report followed, as the
last line of standard output, by one JSON object:

  {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}

--trace 0 reports BENCHMARK.json's end_to_end metrics from an untraced run.
Their timings are scaled by a host-speed probe measured around each timed
unit (see METRICS.md); the report prints each raw value as <name>.raw.
--trace 1 runs the workload untraced and then traced, and reports the
per_layer metrics from the traced run plus the tracing overhead (the gap in
gen.cpu_ms_per_window between the two); the Chrome trace lands in
.bench_out/. Every full result is also saved under .bench_out/results/ for
perfbench/compare.py.

Exit codes: 0 = result printed (check "correct"), 1 = build or run failure,
2 = usage error.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

# Per program run; a --trace 1 call makes two runs and must end within 180 s.
RUN_TIMEOUT_S = 80
# Per-layer metrics a workload never reaches (no bulk engine in campaign, no
# CSV writer in covermap, ...). They are reported as 0; any other missing
# metric fails the run.
NOT_APPLICABLE = {
    "campaign": {"serve.", "stream.", "net."},
    "covermap": {"serve.", "stream.", "net.", "io.", "metrics.", "core.train.",
                 "runtime.cpu_per_wall.train"},
    "mixed_serve": {"io.", "metrics.", "core.train.", "runtime.cpu_per_wall.train"},
}
WORKLOADS = tuple(NOT_APPLICABLE)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group (the
    compilers under make included) and wait for it. Returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def build(root, build_dir):
    """Configure (once) and build gendt_perfbench; return the binary path."""
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the root of a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"], 120)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    code, _ = run(["cmake", "--build", build_dir, "--target", "gendt_perfbench", "-j", jobs], 700)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "gendt_perfbench")


def run_once(binary, workload, seed, seconds, trace, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", out_dir]
    code, out = run(cmd, RUN_TIMEOUT_S, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail(f"{workload} run exited with {code}")
    return json.loads(lines[-1])


def select(result, specs, workload):
    """Pick the named metrics; returns (metrics, missing names)."""
    na = NOT_APPLICABLE[workload]
    got = result["metrics"]
    out, missing = {}, []
    for spec in specs:
        name = spec["name"]
        if name in got and got[name]["value"] is not None and math.isfinite(got[name]["value"]):
            out[name] = {"value": got[name]["value"], "unit": spec["unit"]}
        elif any(name.startswith(p) for p in na) or name.endswith(".self_s"):
            # Not reached by this workload, or a layer with no spans in it.
            out[name] = {"value": 0.0, "unit": spec["unit"]}
        else:
            missing.append(name)
    return out, missing


def report(result, label):
    ctx = result.get("context", {})
    print(f"== {label}: workload={ctx.get('workload')} route={ctx.get('simd_route')} "
          f"nproc={ctx.get('nproc')} build={ctx.get('build_type')}")
    print("   context: " + ", ".join(f"{k}={v}" for k, v in ctx.items()))
    for name, m in result["metrics"].items():
        print(f"   {name:<36} {m['value']:>16.6g} {m['unit']}")
    for note in result.get("notes", []):
        print(f"   note: {note}")
    for err in result.get("errors", []):
        print(f"   ERROR: {err}")
    print(f"   correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} digest={result.get('digest', '')}")


def save(root, result, workload, seed, trace):
    d = os.path.join(root, ".bench_out", "results")
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, f"{workload}_seed{seed}_trace{int(trace)}.json"), "w",
              encoding="utf-8") as f:
        json.dump(result, f, indent=1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 2)

    root = os.getcwd()
    bench_json = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(bench_json):
        fail("BENCHMARK.json not found: run from the repository root")
    with open(bench_json, encoding="utf-8") as f:
        spec = json.load(f)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(root, build_dir)

    try:
        binary = build(root, build_dir)
        out_dir = os.path.join(".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
        untraced = run_once(binary, args.workload, args.seed, args.seconds, False, out_dir)
        report(untraced, "untraced run")
        save(root, untraced, args.workload, args.seed, False)
        results = [untraced]
        if args.trace:
            traced = run_once(binary, args.workload, args.seed, args.seconds, True, out_dir)
            # CPU per window, not throughput: mixed_serve's offered load is
            # fixed, so its throughput cannot show what the spans cost.
            base = untraced["metrics"]["gen.cpu_ms_per_window"]["value"]
            traced_cpu = traced["metrics"]["gen.cpu_ms_per_window"]["value"]
            traced["metrics"]["trace.overhead_share"] = {
                "value": traced_cpu / base - 1.0, "unit": "ratio"}
            report(traced, "traced run")
            save(root, traced, args.workload, args.seed, True)
            results.append(traced)
    except (OSError, ValueError, KeyError) as e:
        fail(f"bad run output: {e}")

    final = results[-1]
    metrics, missing = select(final, spec["per_layer" if args.trace else "end_to_end"],
                              args.workload)
    correct = all(r["correct"] for r in results) and not missing
    for name in missing:
        print(f"   ERROR: metric {name} was not reported", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": int(final["attempted"]),
                      "failed": int(final["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
