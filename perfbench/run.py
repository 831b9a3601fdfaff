#!/usr/bin/env python3
"""The repository benchmark: build lpbench, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run builds perfbench/ (and the runtime sources in src/) into
$CARGO_TARGET_DIR, default .bench_build, runs one timed lpbench
process, prints a report with every metric, its unit and sample count
(or why it is omitted), the provenance block and the correctness
checks, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1). A failed check or a missing metric
exits 1. --smoke runs every workload briefly in both modes and checks
that the metric names and units match BENCHMARK.json.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
BUILD_JOBS = 3
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 3
# End-to-end metrics every run prints but BENCHMARK.json does not gate
# (perfbench/README.md gives the measured spreads that keep them out).
REPORTED_ONLY = {"req_p50_us", "req_p99_us", "pause_p50_ms", "pause_p99_ms",
                 "fail_frac", "peak_rss_mb"}
# Workloads that run and are checked like the others but that
# BENCHMARK.json does not gate (perfbench/README.md says why).
UNGATED_WORKLOADS = ["alloc_churn"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "vm", "runtime.h")):
        fail(f"runtime sources not found under {ROOT}/src", 2)
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(bdir):
        bdir = os.path.join(ROOT, bdir)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", bdir, "-j", str(BUILD_JOBS)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            fail(f"build step failed: {' '.join(cmd)}", 2)
    return os.path.join(bdir, "lpbench")


def source_digest():
    """sha256 over the runtime and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def run_lpbench(exe, workload, seed, seconds, trace):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"lpbench exceeded {RUN_TIMEOUT_S}s: {' '.join(cmd)}")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        fail(f"lpbench exited {p.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def fmt(v):
    return "-" if v is None else f"{v:.6g}"


def evaluate(result, spec, trace):
    """Check the run against BENCHMARK.json; returns (summary, problems)."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = {m["name"]: m for m in result["metrics"]}
    problems = []
    metrics = {}
    for w in wanted:
        m = got.get(w["name"])
        if m is None or m["value"] is None:
            why = m.get("omitted", "") if m else "not reported"
            problems.append(f"metric {w['name']} missing ({why})")
        elif m["unit"] != w["unit"]:
            problems.append(f"metric {w['name']} has unit {m['unit']}, "
                            f"BENCHMARK.json says {w['unit']}")
        else:
            metrics[w["name"]] = {"value": m["value"], "unit": m["unit"]}
    extra = set(got) - {w["name"] for w in wanted}
    for name in sorted(extra - (set() if trace else REPORTED_ONLY)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for c in result["checks"]:
        if not c["ok"]:
            problems.append(f"check failed ({c['phase']}): {c['name']}: "
                            f"{c['detail']}")
    summary = {"correct": not problems, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    if summary["attempted"] < 1:
        problems.append("no request was attempted")
        summary["correct"] = False
    return summary, problems


def report(result, provenance_extra):
    prov = dict(result["provenance"], **provenance_extra)
    print(f"lpbench {prov['workload']}  seed={prov['seed']}  "
          f"seconds={prov['seconds']}  trace={prov['trace']}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"{'metric':34} {'value':>14} {'unit':6} {'n':>10}")
    for m in result["metrics"]:
        note = f"  omitted: {m['omitted']}" if "omitted" in m else ""
        print(f"{m['name']:34} {fmt(m['value']):>14} {m['unit']:6} "
              f"{m['n']:>10}{note}")
    spans = result.get("spans")
    if spans:
        print(f"spans: {spans['kept']} kept in memory, {spans['dropped']} over "
              f"the cap; clock read {spans['clock_overhead_ns']} ns; request "
              f"self time {spans['request_self_frac']:.4f} of request time")
        for k in spans["kinds"]:
            if k["calls"]:
                print(f"  {k['kind']:24} calls {k['calls']:>11}  timed "
                      f"{k['timed']:>9} (1/{k['sample_period']})  "
                      f"{k['timed_ms']:.3f} ms timed")
    print("checks:")
    for c in result["checks"]:
        print(f"  {'ok  ' if c['ok'] else 'FAIL'} [{c['phase']}] {c['name']}"
              f"{': ' + c['detail'] if c['detail'] else ''}")


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS


def smoke(spec):
    exe = build()
    ok = True
    for name in workload_names(spec):
        for trace in (0, 1):
            result = run_lpbench(exe, name, 1, SMOKE_SECONDS, trace)
            _, problems = evaluate(result, spec, trace)
            status = "ok" if not problems else "FAIL"
            print(f"smoke {name:12} trace={trace}: {status}")
            for p in problems:
                print(f"  {p}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.smoke:
        return smoke(spec)
    names = workload_names(spec)
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}", 2)
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]", 2)

    exe = build()
    result = run_lpbench(exe, args.workload, args.seed, args.seconds, args.trace)
    report(result, {"git_commit": git_commit(), "source_sha256": source_digest()})
    summary, problems = evaluate(result, spec, args.trace)
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
