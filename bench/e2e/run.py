#!/usr/bin/env python3
"""The one command that builds and runs eebench (stdlib only).

Result sets, for people:

    python3 bench/e2e/run.py [--seed=42] [--runs=3] [--seconds=10]
                             [--workloads=ingest,mixed] [--out=SET.json]
        Runs each workload in its own process --runs times untraced, then
        once traced, and prints every metric as
        `workload metric median [q1,q3] unit`, the per-layer self-time
        table and the tracing overhead. Exits non-zero on any verification
        failure or result-hash mismatch between runs.

    python3 bench/e2e/run.py --compare A.json B.json
        Checks set B against set A: each end-to-end metric's median may be
        worse by at most its bound (metrics.json); result hashes and exact
        per-layer counts must be identical.

    python3 bench/e2e/run.py --smoke [--bin=EEBENCH]
        Tiny sizes, every workload's verification, and seeds 42 and 7 each
        reproducing their own result hash across two processes (the ctest).

One run, for the benchmark contract in BENCHMARK.json:

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        Prints as its last stdout line {"correct", "attempted", "failed",
        "metrics"}: BENCHMARK.json's end_to_end metrics untraced, its
        per_layer metrics traced.

eebench is built from source into .bench_build at the checkout root (a
no-op when up to date); build output goes to stderr. Data directories
live under .bench_build/tmp and are removed by eebench itself.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["ingest", "serve_hot", "serve_cold", "mixed"]
RUN_TIMEOUT_S = 170

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
import trace_report  # noqa: E402


def log(msg):
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds eebench; returns the binary's path."""
    def step(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "--target", "eebench", "-j", "4"])
    return os.path.join(BUILD, "eebench")


def run_once(binary, workload, seed, seconds, tmp_root, trace_out=None,
             smoke=False):
    """Runs eebench once; returns (header, result), result None on failure."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--tmp_root=" + tmp_root]
    if trace_out:
        cmd.append("--trace_out=" + trace_out)
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    header = json.loads(lines[0]) if lines else None
    if done.returncode != 0 or len(lines) < 2:
        log("eebench %s seed %d failed (exit %d)" % (workload, seed,
                                                    done.returncode))
        return header, None
    return header, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ------------------------------------------------------------------ contract

def contract_run(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "metrics.json"))
    try:
        binary = build()
    except RuntimeError as e:
        log(str(e))
        return 2
    tmp = os.path.join(BUILD, "tmp")
    trace_out = None
    if args.trace:
        trace_out = os.path.join(BUILD, "traces",
                                 "%s-%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    _, result = run_once(binary, args.workload, args.seed, args.seconds, tmp,
                         trace_out)
    if result is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    metrics = {}
    if args.trace:
        for m in bench["per_layer"]:
            metrics[m["name"]] = {
                "value": result["per_layer"][m["name"]]["value"],
                "unit": m["unit"]}
    else:
        for m in bench["end_to_end"]:
            source = spec["contract"].get(m["name"], {}).get(args.workload,
                                                            m["name"])
            metrics[m["name"]] = {
                "value": result["end_to_end"][source]["value"],
                "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


# ---------------------------------------------------------------- result sets

def run_set(args):
    binary = args.bin or build()
    tmp = args.tmp_root or os.path.join(BUILD, "tmp")
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    out = {"seed": args.seed, "seconds": args.seconds, "runs": {},
           "traced": {}, "headers": {}}
    ok = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            header, result = run_once(binary, w, args.seed, args.seconds, tmp)
            out["headers"][w] = header
            if result is None:
                ok = False
                continue
            runs.append(result)
            log("%s run %d/%d: hash %s" % (w, i + 1, args.runs,
                                           result["result_hash"]))
        out["runs"][w] = runs
        trace_path = os.path.join(BUILD, "traces", "%s-%d.json" % (w, args.seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        _, traced = run_once(binary, w, args.seed, args.seconds, tmp,
                             trace_path)
        if traced is None:
            ok = False
        else:
            out["traced"][w] = traced
            out.setdefault("trace_files", {})[w] = trace_path
        hashes = {r["result_hash"] for r in runs + ([traced] if traced else [])}
        if len(hashes) > 1:
            log("%s: result hash differs between runs: %s" % (w, sorted(hashes)))
            ok = False
    print_set(out)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    return 0 if ok else 1


def print_set(result_set):
    print("%-11s %-28s %14s %31s %s" % ("workload", "metric", "median",
                                         "[q1,q3]", "unit"))
    for w, runs in result_set["runs"].items():
        if not runs:
            continue
        for name in runs[0]["end_to_end"]:
            values = [r["end_to_end"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            print("%-11s %-28s %14.6g [%14.6g,%14.6g] %s" % (
                w, name, med, q1, q3, runs[0]["end_to_end"][name]["unit"]))
        print("%-11s %-28s %14s %31s" % (w, "result_hash",
                                         runs[0]["result_hash"], ""))
        traced = result_set["traced"].get(w)
        if traced:
            for name, m in traced["per_layer"].items():
                print("%-11s %-28s %14.6g %31s %s" % (w, name, m["value"],
                                                      "(traced)", m["unit"]))
    for w, path in result_set.get("trace_files", {}).items():
        print("\n== %s: per-layer self time (traced run, %s)" % (w, path))
        trace_report.print_table(trace_report.load_spans(path), sys.stdout)
    traced = {}
    for result in result_set["traced"].values():
        traced.update(trace_report.end_to_end(result))
    if traced:
        print("\n== tracing overhead (traced run minus untraced median)")
        trace_report.print_overhead(trace_report.end_to_end(result_set),
                                    traced, sys.stdout)


def compare(path_a, path_b):
    spec = load_json(os.path.join(HERE, "metrics.json"))
    a, b = load_json(path_a), load_json(path_b)
    ok = True
    print("%-11s %-28s %14s %14s %9s %7s  %s" % (
        "workload", "metric", "A median", "B median", "worse", "bound",
        "verdict"))
    for w in sorted(set(a["runs"]) & set(b["runs"])):
        ra, rb = a["runs"][w], b["runs"][w]
        if not ra or not rb:
            continue
        for name, m in spec["end_to_end"].items():
            if name not in ra[0]["end_to_end"]:
                continue
            ma = statistics.median(r["end_to_end"][name]["value"] for r in ra)
            mb = statistics.median(r["end_to_end"][name]["value"] for r in rb)
            if ma == 0:
                worse = 0.0 if mb == ma else float("inf")
                if m["better"] == "higher":
                    worse = -worse
            elif m["better"] == "lower":
                worse = (mb - ma) / abs(ma)
            else:
                worse = (ma - mb) / abs(ma)
            verdict = "ok" if worse <= m["bound"] else "REGRESSION"
            ok = ok and verdict == "ok"
            print("%-11s %-28s %14.6g %14.6g %+8.1f%% %6.0f%%  %s" % (
                w, name, ma, mb, 100 * worse, 100 * m["bound"], verdict))
        everything = ra + rb + [t[w] for t in (a["traced"], b["traced"])
                                if w in t]
        hashes = {r["result_hash"] for r in everything}
        same = len(hashes) == 1
        ok = ok and same
        print("%-11s %-28s %s" % (w, "result_hash",
                                   "identical" if same else
                                   "DIFFERS: %s" % sorted(hashes)))
        for name, m in spec["per_layer"].items():
            if w not in m.get("exact", []):
                continue
            values = sorted({r["per_layer"][name]["value"] for r in everything})
            if len(values) > 1:
                ok = False
                print("%-11s %-28s COUNT DIFFERS: %s" % (w, name, values))
    return 0 if ok else 1


def smoke(args):
    binary = args.bin or build()
    tmp = args.tmp_root or os.path.join(BUILD, "smoke_tmp")
    ok = True
    for w in WORKLOADS:
        for seed in (42, 7):
            hashes = []
            for _ in range(2):
                _, result = run_once(binary, w, seed, 0.1, tmp, smoke=True)
                hashes.append(result["result_hash"] if result else None)
            good = hashes[0] is not None and hashes[0] == hashes[1]
            ok = ok and good
            print("%-11s seed %-3d %s %s" % (w, seed, "ok  " if good else
                                             "FAIL", hashes))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description="Build and run eebench.",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one contract run of this workload")
    ap.add_argument("--trace", type=int, choices=[0, 1],
                    help="contract run: 1 reports the per-layer metrics")
    ap.add_argument("--workloads", help="comma list for a result set")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--out", help="write the result set here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this eebench instead of building one")
    ap.add_argument("--tmp_root", help="data directory root")
    args = ap.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.smoke:
            return smoke(args)
        if args.workload:
            if args.trace is None:
                ap.error("--workload needs --trace 0|1")
            return contract_run(args)
        return run_set(args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
