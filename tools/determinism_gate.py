#!/usr/bin/env python3
"""Determinism gates over bench metrics snapshots (stdlib only).

    python3 tools/determinism_gate.py GATE
    python3 tools/determinism_gate.py trace TRACE.json...

A snapshot is the JSON a bench writes with --metrics_out. The gate
flattens its config, counters and gauges to "<section>.<name>" keys
("config.page_cache_mb", "counters.serve.requests",
"gauges.bench.e18.result_hash"); histograms carry wall-clock latencies
and are never compared. Each check of a gate in GATES then asserts, on
snapshots named relative to the working directory:

    expect   - key -> (value, message), per snapshot
    present  - keys the first snapshot must carry
    match    - key prefixes ("counters." is a whole section) whose keys
               must be identical in every snapshot
    positive - key -> message, for keys that must be > 0 in the first
    less     - (a, b, message): the first snapshot must have a < b

Messages are format strings over one snapshot: {cfg[...]}, {c[...]} and
{g[...]} for its config, counters and gauges, {path}, and {matched}, the
number of matched keys. The `trace` gate checks each Chrome trace_event
document written with --trace_out instead.

Exits 1 with the message of the first assertion that fails.
"""

import json
import os
import sys
from dataclasses import dataclass, field


@dataclass
class Snap:
    path: str
    # Message when this snapshot's matched keys differ from the first's.
    diverged: str = ""
    expect: dict = field(default_factory=dict)


@dataclass
class Check:
    snaps: list
    match: list
    done: str
    present: list = field(default_factory=list)
    positive: dict = field(default_factory=dict)
    less: list = field(default_factory=list)


ALL = ["config.", "counters.", "gauges."]


def simd_check(snapshot, gauge):
    """A kernel-variant gate: the scalar-only build must have run scalar
    and the avx2 build the AVX2 kernels, or the comparison is vacuous."""
    return Check(
        snaps=[
            Snap(f"snapshots-scalar/{snapshot}", expect={
                "config.simd": ("scalar", "{path}: EXEARTH_SIMD=OFF build "
                                          "ran {cfg[simd]}")}),
            Snap(f"snapshots-avx2/{snapshot}",
                 diverged=f"{snapshot}: {gauge} diverged",
                 expect={"config.simd": ("avx2", "{path}: avx2 build "
                                         "dispatched {cfg[simd]} (runner "
                                         "lacks AVX2?)")}),
        ],
        match=[f"gauges.{gauge}"],
        present=[f"gauges.{gauge}"],
        done=f"{gauge}: {{g[{gauge}]}} identical across variants")


GATES = {
    # Two seeded runs at the default cache and one with a 1 MiB page
    # cache: the hash covers cold/warm frozen-index selects and the
    # recovered KV image, so only latencies may move with cache size.
    "e18": [Check(
        snaps=[
            Snap("build/bench/e18-run1.metrics.json"),
            Snap("build/bench/e18-run2.metrics.json",
                 diverged="seeded storage runs diverged"),
            Snap("build/bench/e18-small-cache.metrics.json",
                 diverged="page-cache size changed results at "
                          "page_cache_mb={cfg[page_cache_mb]}"),
        ],
        match=["gauges.bench.e18.result_hash"],
        present=["gauges.bench.e18.result_hash"],
        done="deterministic: result hash {g[bench.e18.result_hash]} across "
             "two runs and a 1 MiB page cache")],
    # The kill-the-leader drill at one seed: election order, catch-up and
    # the fault schedule must repeat exactly.
    "e19": [Check(
        snaps=[
            Snap("build/bench/e19-run1.metrics.json"),
            Snap("build/bench/e19-run2.metrics.json",
                 diverged="seeded failover runs diverged"),
        ],
        match=["counters.repl.", "gauges.repl.",
               "gauges.bench.e19.result_hash"],
        present=["gauges.bench.e19.result_hash"],
        positive={"counters.repl.leader_crashes":
                  "the drill never killed a leader"},
        done="deterministic: {matched} repl metrics identical, result hash "
             "{g[bench.e19.result_hash]}")],
    # The offered stream is a pure function of the seed and ExecuteWave is
    # deterministic; batching must traverse the R-tree fewer times than
    # requests served, with results identical to unbatched mode.
    "e17": [Check(
        snaps=[
            Snap("build/bench/serving-run1.metrics.json", expect={
                "gauges.bench.e17.batch.identical":
                    (1, "batched results diverged from unbatched")}),
            Snap("build/bench/serving-run2.metrics.json",
                 diverged="seeded serving runs diverged"),
        ],
        match=ALL,
        positive={
            "counters.serve.requests": "E17 served nothing",
            "counters.serve.quota.shed": "E17 quota shed nothing",
            "counters.admission.serve.shed": "E17 admission shed nothing",
            "counters.serve.cache.hits": "E17 result cache idle",
            "counters.serve.batch.batched_requests": "E17 batched nothing",
        },
        less=[("gauges.bench.e17.batch.traversals",
               "gauges.bench.e17.batch.requests",
               "batching saved no traversals")],
        done="deterministic: served={c[serve.requests]} "
             "quota_shed={c[serve.quota.shed]} "
             "cache_hits={c[serve.cache.hits]} "
             "batched={c[serve.batch.batched_requests]} traversals "
             "{g[bench.e17.batch.traversals]}/{g[bench.e17.batch.requests]} "
             "hash={g[bench.e17.result_hash]}")],
    # Two seeded E11 chaos runs.
    "fault": [Check(
        snaps=[
            Snap("build/bench/fault-run1.metrics.json"),
            Snap("build/bench/fault-run2.metrics.json",
                 diverged="seeded chaos runs diverged"),
        ],
        match=ALL,
        positive={"counters.fault.injected": "chaos run injected no faults"},
        done="deterministic: {c[fault.injected]} injected faults, result "
             "hash {g[bench.e11.result_hash]}")],
    # The E16 row's shed and deadline accounting is structural (pre-held
    # admission slots, pre-expired deadlines).
    "overload": [Check(
        snaps=[
            Snap("build/bench/overload-run1.metrics.json"),
            Snap("build/bench/overload-run2.metrics.json",
                 diverged="seeded overload runs diverged"),
        ],
        match=ALL,
        positive={
            "counters.admission.fed.shed": "E16 row shed nothing",
            "counters.fed.query_deadline_exceeded":
                "E16 row saw no deadline-exceeded queries",
        },
        done="deterministic: shed={c[admission.fed.shed]} "
             "deadline_exceeded={c[fed.query_deadline_exceeded]} result "
             "hash {g[bench.e16.result_hash]}")],
    # Fixed seeded query sets whose sorted results are hashed inside the
    # bench, from the EXEARTH_SIMD=OFF and avx2 builds.
    "simd": [
        simd_check("bench_e1_spatial_selection.metrics.json",
                   "bench.e1.result_hash"),
        simd_check("bench_e2_multipolygon.metrics.json",
                   "bench.e2.result_hash"),
        simd_check("bench_e10_spatial_links.metrics.json",
                   "bench.e10.result_hash"),
    ],
}

# The trace gate: every event carries these keys, and benches whose
# snapshot name starts with one of the prefixes must have recorded spans.
TRACE_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")
TRACE_INSTRUMENTED = ("bench_e1_", "bench_e11_", "bench_e2_")


class Values(dict):
    def __missing__(self, key):
        return None


def load(path):
    with open(path) as f:
        doc = json.load(f)
    flat = {"config." + k: v for k, v in doc["config"].items()}
    for section in ("counters", "gauges"):
        for k, v in doc["metrics"].get(section, {}).items():
            flat[f"{section}.{k}"] = v
    return flat


def render(message, path, flat, matched=0):
    parts = {"config": Values(), "counters": Values(), "gauges": Values()}
    for key, value in flat.items():
        section, name = key.split(".", 1)
        parts[section][name] = value
    return message.format(cfg=parts["config"], c=parts["counters"],
                          g=parts["gauges"], path=path, matched=matched)


def run_check(check):
    snaps = [(snap, load(snap.path)) for snap in check.snaps]
    for snap, flat in snaps:
        for key, (value, message) in snap.expect.items():
            if flat.get(key) != value:
                sys.exit(render(message, snap.path, flat))
    first_snap, first = snaps[0]
    for key in check.present:
        if key not in first:
            sys.exit(f"{first_snap.path}: {key.split('.', 1)[1]} missing")

    def picked(flat):
        return {k: v for k, v in flat.items()
                if any(k.startswith(p) for p in check.match)}

    want = picked(first)
    for snap, flat in snaps[1:]:
        got = picked(flat)
        diffs = {k: (want.get(k), got.get(k)) for k in sorted(set(want) |
                 set(got)) if want.get(k) != got.get(k)}
        if diffs:
            sys.exit(render(snap.diverged, snap.path, flat) + f": {diffs}")
    for key, message in check.positive.items():
        if not first.get(key, 0) > 0:
            sys.exit(message)
    for a, b, message in check.less:
        if not first[a] < first[b]:
            sys.exit(f"{message}: {first[a]} >= {first[b]}")
    print(render(check.done, first_snap.path, first, matched=len(want)))


def run_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    for ev in events:
        for key in TRACE_EVENT_KEYS:
            if key not in ev:
                sys.exit(f"{path}: event missing {key}: {ev}")
    if os.path.basename(path).startswith(TRACE_INSTRUMENTED) and not events:
        sys.exit(f"{path}: instrumented bench recorded no spans")
    print(f"{path}: {len(events)} events OK")


def main(argv):
    if len(argv) >= 2 and argv[0] == "trace":
        for path in argv[1:]:
            run_trace(path)
    elif len(argv) == 1 and argv[0] in GATES:
        for check in GATES[argv[0]]:
            run_check(check)
    else:
        sys.exit("usage: determinism_gate.py {%s} | trace TRACE.json..."
                 % ",".join(GATES))


if __name__ == "__main__":
    main(sys.argv[1:])
