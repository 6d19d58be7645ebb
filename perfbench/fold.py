#!/usr/bin/env python3
"""Folds a perfbench trace into per-layer self times.

A trace is the JSON file the traced benchmark run writes at exit:
{"workload": ..., "spans": [{"id", "parent", "name", "start_ns", "end_ns",
"tid", "req"}, ...]}, where parent 0 marks a root span. A span's self time
is its duration minus the part of its interval that its child spans cover
(overlapping children are counted once).

    python3 perfbench/fold.py TRACE.json [--reps N] [--setups M]
    python3 perfbench/fold.py --self-test

Totals under a "setup" root are divided by the number of set-ups, all
others by the number of measured repetitions, so every row reads "per
set-up" or "per repetition". Python standard library only.
"""

import argparse
import json
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["spans"]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def fold(spans, reps=1, setups=1):
    """Returns {name: row} with per-occurrence-normalised times in seconds.

    row = {"count", "total_s", "self_s", "durations_s", "root"}; "count",
    "total_s" and "self_s" are divided by the root's repetition count.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def root_name(s):
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
        return s["name"]

    rows = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        kids = [(c["start_ns"], c["end_ns"]) for c in children.get(s["id"], [])]
        self_ns = dur - _covered(kids, s["start_ns"], s["end_ns"])
        row = rows.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations_s": [],
                                          "root": root_name(s)})
        row["count"] += 1
        row["total_s"] += dur / 1e9
        row["self_s"] += self_ns / 1e9
        row["durations_s"].append(dur / 1e9)
    for row in rows.values():
        div = max(1, setups if row["root"] == "setup" else reps)
        row["count"] /= div
        row["total_s"] /= div
        row["self_s"] /= div
    return rows


def percentile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def table(rows):
    lines = ["%-22s %10s %12s %12s %12s" % ("span", "count", "total_s",
                                             "self_s", "p99_us")]
    for name in sorted(rows, key=lambda n: -rows[n]["self_s"]):
        r = rows[name]
        lines.append("%-22s %10.1f %12.6f %12.6f %12.1f" % (
            name, r["count"], r["total_s"], r["self_s"],
            1e6 * percentile(r["durations_s"], 0.99)))
    return "\n".join(lines)


def self_test():
    # One set-up and two repetitions. In each repetition, "a" and "b"
    # overlap, so the repetition's self time counts their union once; "c"
    # nests inside "a". The root-less "w" stands for a span recorded on
    # another thread.
    spans = [
        {"id": 1, "parent": 0, "name": "setup", "start_ns": 0, "end_ns": 10},
        {"id": 2, "parent": 1, "name": "g", "start_ns": 0, "end_ns": 4},
    ]
    next_id = 3
    for base in (100, 200):
        rep = next_id
        spans += [
            {"id": rep, "parent": 0, "name": "rep", "start_ns": base,
             "end_ns": base + 100},
            {"id": rep + 1, "parent": rep, "name": "a", "start_ns": base + 10,
             "end_ns": base + 40},
            {"id": rep + 2, "parent": rep, "name": "b", "start_ns": base + 30,
             "end_ns": base + 60},
            {"id": rep + 3, "parent": rep + 1, "name": "c",
             "start_ns": base + 20, "end_ns": base + 25},
            {"id": rep + 4, "parent": 0, "name": "w", "start_ns": base + 50,
             "end_ns": base + 58},
        ]
        next_id += 5
    rows = fold(spans, reps=2, setups=1)
    expect = {"setup": 6, "g": 4, "rep": 50, "a": 25, "b": 30, "c": 5, "w": 8}
    ok = True
    for name, self_ns in expect.items():
        got = rows[name]["self_s"] * 1e9
        if abs(got - self_ns) > 1e-6:
            print("self-test: %s self %.3f ns, expected %d" % (name, got,
                                                               self_ns))
            ok = False
    if rows["a"]["count"] != 1 or rows["setup"]["count"] != 1:
        print("self-test: counts not normalised per repetition")
        ok = False
    if abs(_covered([(0, 5), (3, 8), (10, 12)], 0, 11) - 9) > 0:
        print("self-test: interval union wrong")
        ok = False
    print("fold self-test: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="?")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.trace:
        parser.error("a trace file is required")
    print(table(fold(load(args.trace), args.reps, args.setups)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
