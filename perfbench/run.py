#!/usr/bin/env python3
"""End-to-end benchmark of the soft-timer network stack.

    python3 perfbench/run.py --workload web_mixed --seed 1 --seconds 10 --trace 0

Builds perfbench_e2e from the checkout's sources (CMake, into
.bench_build/perfbench), runs one workload from perfbench/workloads.json and
prints every metric by name and unit. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. A
result file with the host fingerprint, the commit and the seed is written to
.bench_build/perfbench/results/.

    python3 perfbench/run.py --kernel-arm --seed 1 --seconds 10

runs the wan_rto schedule through the soft-timer stack and then through the
timerfd/epoll reference arm, and prints the two side by side (never gated).

Exit codes: 0 run correct, 1 a correctness verdict failed, 2 bad usage or
sources missing, 3 build failed, 4 the run crashed or timed out.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# workloads.json keys -> perfbench_e2e flags.
FLAG_NAMES = {
    "model": "model", "shards": "shards", "queues": "queues", "conns": "conns",
    "flows": "flows", "rate": "rate", "segments": "segments", "acks": "acks",
    "paced": "paced", "pace_min_us": "pace-min-us", "pace_max_us": "pace-max-us",
    "rtt_us": "rtt-us", "loss": "loss", "interval_min_us": "interval-min-us",
    "interval_max_us": "interval-max-us",
}


def die(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds perfbench_e2e; returns its path."""
    for needed in ("src/CMakeLists.txt", "bench/alloc_probe.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            die(2, "library sources not found (%s is missing)" % needed)
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_e2e",
                  "-j", "3"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die(3, "build failed (full log: %s)" % log_path)
    return os.path.join(bdir, "perfbench_e2e")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def workload_flags(shape):
    """perfbench_e2e flags for one workloads.json shape."""
    flags = []
    for key, flag in FLAG_NAMES.items():
        if key in shape:
            flags += ["--" + flag, str(shape[key])]
    return flags


def run_binary(cmd):
    """Runs the benchmark binary, echoes its human-readable lines, and
    returns (exit code, parsed last JSON line or None)."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(4, "run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    report = None
    if lines and lines[-1].startswith("{"):
        report = json.loads(lines.pop())
    for line in lines:
        print(line)
    sys.stderr.write(proc.stderr)
    return proc.returncode, report


def fingerprint(report):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    build = (report or {}).get("build", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "kernel": platform.release(),
        "compiler": build.get("compiler", "unknown"),
        "build_type": build.get("build_type", "unknown"),
    }


def source_revision():
    """The git commit when the checkout is a repository, and a digest of
    the library and benchmark sources either way."""
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True, timeout=10).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = []
    for pattern in ("src/**/*", "perfbench/**/*", "bench/alloc_probe.*"):
        files += glob.glob(os.path.join(ROOT, pattern), recursive=True)
    for path in sorted(p for p in files if os.path.isfile(p)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def write_result(name, payload):
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
    print("result_file %s" % os.path.relpath(path, ROOT))


def run_workload(args, spec, bench, binary):
    if args.workload not in spec["workloads"]:
        die(2, "unknown workload %r (have: %s)"
            % (args.workload, ", ".join(spec["workloads"])))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += workload_flags(spec["workloads"][args.workload])
    if args.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, tag + ".spans.tsv")]
    code, report = run_binary(cmd)
    if report is None:
        die(4, "the run ended (exit %d) without a report" % code)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    source = report["per_layer"] if args.trace else report["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            die(4, "the run did not report %s" % m["name"])
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    write_result(tag + ".json", {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "parameters": spec["workloads"][args.workload], "run": spec["run"],
        "host": fingerprint(report), "source": source_revision(),
        "report": report,
    })
    print(json.dumps({"correct": bool(report["correct"]) and code == 0,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if code == 0 and report["correct"] else 1


def run_kernel_arm(args, spec, binary):
    base = [binary, "--workload", "wan_rto", "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    base += workload_flags(spec["workloads"]["wan_rto"])
    print("== soft timers (wan_rto on the sharded stack) ==")
    soft_code, soft = run_binary(base)
    print("== kernel timers (one timerfd per connection RTO, epoll) ==")
    kern_code, kern = run_binary(base + ["--kernel-arm", "1"])
    if soft is None or kern is None:
        die(4, "an arm ended without a report")
    rows = ("cpu_ns_per_pkt", "timer_lateness_p50_us", "timer_lateness_p99_us",
            "rx_latency_p50_us", "rx_latency_p99_us")
    print("%-24s %16s %16s" % ("metric", "soft_timer", "kernel_timerfd"))
    for row in rows:
        print("%-24s %16.3f %16.3f" % (row, soft["metrics"][row], kern["metrics"][row]))
    write_result("kernel-arm-seed%d.json" % args.seed, {
        "seed": args.seed, "seconds": args.seconds,
        "parameters": spec["workloads"]["wan_rto"], "host": fingerprint(soft),
        "source": source_revision(), "soft_timer": soft, "kernel_timer": kern,
    })
    print(json.dumps({"soft_timer": {r: soft["metrics"][r] for r in rows},
                      "kernel_timer": {r: kern["metrics"][r] for r in rows}}))
    return 0 if soft_code == 0 and kern_code == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernel-arm", action="store_true",
                        help="soft-timer vs timerfd/epoll reference on wan_rto")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die(2, "--seed must be >= 0 and --seconds > 0")
    if not args.kernel_arm and not args.workload:
        die(2, "--workload is required")
    spec = load_json(os.path.join(HERE, "workloads.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    binary = build()
    if args.kernel_arm:
        return run_kernel_arm(args, spec, binary)
    return run_workload(args, spec, bench, binary)


if __name__ == "__main__":
    sys.exit(main())
