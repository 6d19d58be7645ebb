#!/usr/bin/env python3
"""The repository benchmark: builds `sgnn_perfbench` from this source tree
and runs one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (a
relative path is taken from the repository root), default `.bench_build`;
the first run configures and builds, later runs rebuild incrementally.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric of
BENCHMARK.json with `--trace 0`, every per-layer metric with `--trace 1`.
Before it comes a human-readable report: the host, the workload's own
figures, and for a traced run the folded per-layer table. The exit code is
0 only when every correctness check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # Keep the source tree free of __pycache__.
import fold  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "sampling": "sampling.self_s",
    "tensor.gather": "tensor.gather_s",
    "models.step": "models.step_s",
    "nn.adam": "nn.adam_s",
    "graph.eval": "graph.eval_s",
    "graph.spmm": "graph.spmm_s",
    "storage.spmm": "storage.spmm_s",
    "storage.push": "storage.push_s",
    "storage.sample": "storage.sample_s",
    "ppr.push": "ppr.push_s",
    "dist.run": "dist.run_s",
    "graph.generate": "graph.generate_s",
    "storage.convert": "storage.convert_s",
    "partition.ldg": "partition.ldg_s",
    "core.train": "core.train_s",
    "net.start": "net.start_s",
    "subgraph.embed": "subgraph.embed_s",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log, timeout):
    """Runs `cmd` in its own process group with output appended to `log`;
    kills the whole group on timeout. Returns the exit code."""
    with open(log, "a", encoding="utf-8") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -1


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    cmake_dir = os.path.join(build_dir, "cmake")
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    started = time.monotonic()
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                       "-DCMAKE_BUILD_TYPE=Release"], log,
                      BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed, see " + log)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    if run_logged(["cmake", "--build", cmake_dir, "-j", jobs, "--target",
                   "sgnn_perfbench"], log, remaining) != 0:
        fail("build failed, see " + log)
    return os.path.join(cmake_dir, "sgnn_perfbench")


def run_binary(binary, args, work_dir):
    """Runs the benchmark binary; returns (human lines, raw result dict)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    raw = [l for l in lines if l.startswith("PERFBENCH_RAW ")]
    if not raw:
        fail("benchmark binary exited with %d and no result" % proc.returncode)
    human = [l for l in lines if not l.startswith("PERFBENCH_RAW ")]
    return human, json.loads(raw[-1][len("PERFBENCH_RAW "):])


def layer_metrics(raw, spec):
    """Per-layer metrics of a traced run: span self times folded from the
    trace plus the counters the binary read. Layers a workload does not
    exercise read 0."""
    rows = fold.fold(fold.load(raw["trace_file"]), raw["reps"], raw["setups"])
    print("\nper-layer trace fold (per repetition; set-up spans per set-up):")
    print(fold.table(rows))
    values = {name: m["value"] for name, m in raw["layers"].items()}
    for span, metric in SPAN_METRICS.items():
        if span in rows:
            values[metric] = rows[span]["self_s"]
    if "subgraph.embed" in rows:
        embed = rows["subgraph.embed"]
        values["subgraph.embed_calls"] = embed["count"]
        values["subgraph.embed_p99_us"] = 1e6 * fold.percentile(
            embed["durations_s"], 0.99)
    values["failed_share"] = raw["failed"] / max(1, raw["attempted"])
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]}


def main():
    parser = argparse.ArgumentParser(description="sgnn repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found next to " + HERE)
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no sgnn source tree at " + ROOT)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    human, raw = run_binary(binary, args, os.path.join(build_dir, "work"))
    print("\n".join(human))

    failed_share = raw["failed"] / max(1, raw["attempted"])
    if args.trace:
        metrics = layer_metrics(raw, spec)
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            if m["name"] not in raw["end_to_end"]:
                fail("binary did not report " + m["name"])
            metrics[m["name"]] = {"value": raw["end_to_end"][m["name"]]["value"],
                                  "unit": m["unit"]}
        print("\nend-to-end metrics (%s, seed %d):" % (args.workload,
                                                      args.seed))
        shown = dict(raw["end_to_end"])
        shown.update(raw["layers"])
        shown["failed_share"] = {"value": failed_share, "unit": "ratio"}
        for name in sorted(shown):
            print("  %-22s %16.6f %s" % (name, shown[name]["value"],
                                         shown[name]["unit"]))
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
