#!/usr/bin/env python3
"""Per-layer self-time table of an eebench trace (stdlib only).

    python3 bench/e2e/trace_report.py TRACE.json
    python3 bench/e2e/trace_report.py TRACE.json --untraced U.json --traced T.json

TRACE.json is what `eebench --trace_out=PATH` writes: spans recorded around
the benchmark's own calls into each layer, as [name, start_us, end_us,
parent, tag]. A span's self time is its duration minus the part of it
that its children cover. With --untraced (an eebench result line, or a
run.py result set for the median of its untraced runs) and --traced (the
traced run's eebench result line) the report also prints the tracing
overhead: the traced run's end-to-end metrics minus the untraced ones.
"""

import argparse
import json
import sys
from collections import defaultdict


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_spans(path):
    return load_json(path)["spans"]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def quantile(values, q):
    if not values:
        return 0.0
    values = sorted(values)
    rank = q * (len(values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def self_times(spans):
    """{name: (count, total_ms, self_ms, [durations_ms])}"""
    children = defaultdict(list)
    for name, start, end, parent, _tag in spans:
        if parent >= 0:
            children[parent].append((start, end))
    table = defaultdict(lambda: [0, 0.0, 0.0, []])
    for i, (name, start, end, _parent, _tag) in enumerate(spans):
        dur = (end - start) / 1e3
        row = table[name]
        row[0] += 1
        row[1] += dur
        row[2] += dur - covered(children.get(i, [])) / 1e3
        row[3].append(dur)
    return table


def print_table(spans, out=sys.stdout):
    table = self_times(spans)
    roots = sum(
        (end - start) / 1e3 for _n, start, end, parent, _t in spans if parent < 0
    )
    out.write(
        "%-26s %8s %12s %12s %7s %10s %10s\n"
        % ("span", "count", "total_ms", "self_ms", "self%", "p50_ms", "p99_ms")
    )
    for name, (count, total, self_ms, durs) in sorted(
        table.items(), key=lambda kv: -kv[1][2]
    ):
        out.write(
            "%-26s %8d %12.3f %12.3f %6.1f%% %10.4f %10.4f\n"
            % (
                name,
                count,
                total,
                self_ms,
                100.0 * self_ms / roots if roots else 0.0,
                quantile(durs, 0.5),
                quantile(durs, 0.99),
            )
        )


def end_to_end(doc):
    """End-to-end metric values of an eebench result line or run.py set,
    as {(workload, metric): value} (medians for a set)."""
    out = {}
    if "runs" in doc:
        for workload, runs in doc["runs"].items():
            names = set().union(*(r["end_to_end"] for r in runs))
            for name in names:
                out[(workload, name)] = quantile(
                    [r["end_to_end"][name]["value"] for r in runs], 0.5
                )
    else:
        for name, m in doc["end_to_end"].items():
            out[(doc["workload"], name)] = m["value"]
    return out


def print_overhead(untraced, traced, out=sys.stdout):
    out.write(
        "%-12s %-26s %14s %14s %10s\n"
        % ("workload", "metric", "untraced", "traced", "overhead")
    )
    for key in sorted(set(untraced) & set(traced)):
        u, t = untraced[key], traced[key]
        share = "%+9.1f%%" % (100.0 * (t - u) / u) if u else "%10s" % "-"
        out.write("%-12s %-26s %14.6g %14.6g %s\n" % (key[0], key[1], u, t, share))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trace")
    ap.add_argument("--untraced", help="result of an untraced run")
    ap.add_argument("--traced", help="result of the traced run")
    args = ap.parse_args()
    print_table(load_spans(args.trace))
    if args.untraced and args.traced:
        print()
        print_overhead(end_to_end(load_json(args.untraced)),
                       end_to_end(load_json(args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
