#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from the checkout's sources and
runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
                             --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under that root. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}; with --trace 0
it carries the end_to_end metrics of BENCHMARK.json, with --trace 1 the
per_layer ones. The line before it ("# context ...") records nproc, build
type, git commit (or a digest of src/ when the checkout is not a git
repository), workload and seed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build
RUN_LIMIT_S = 170  # one run of the binary, build excluded
WORKLOADS = ("ring_wide", "ckpt_recover", "pingpong_sweep")

# Self-check: per-layer rows that must be nonzero on each workload.
NONZERO = {
    "ring_wide": ["sim.events", "net.wire_msgs.peer", "net.wire_msgs.el",
                  "v2.waitlogged_stall_us.p50", "trace.events"],
    "ckpt_recover": ["recover_ms", "v2.ckpt_mb_sent", "v2.replayed_mb",
                     "v2.restart_replay_ms", "services.checkpoints_stored",
                     "net.wire_msgs.ckpt", "apps.factory_ms", "trace.events"],
    "pingpong_sweep": ["oneway_p50_us", "oneway_p99_us", "bandwidth_mbps",
                       "p4.oneway_p50_us", "p4.bandwidth_mbps",
                       "v2.latency_overhead_x", "trace.events"],
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "job.hpp")):
        raise RuntimeError(f"no repository sources under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir, *generator,
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def source_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run_binary(binary, workload, seed, seconds, trace, tiny, timeout):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: perfbench exited {proc.returncode}")
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError(f"{workload}: no result line")
    return json.loads(lines[-1])


def validate(result, expected):
    """Checks the result line against the metric list of BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise RuntimeError("attempted must be a whole number >= 1")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        raise RuntimeError(
            f"metrics differ: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m["unit"] != want[name]:
            raise RuntimeError(f"{name}: unit {m['unit']} != {want[name]}")
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"{name}: value {value!r} is not finite")


def self_check():
    """Runs every workload at a tiny size in both modes and checks that each
    metric is emitted, finite and carries its unit."""
    s = spec()
    binary = build()
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            res = run_binary(binary, workload, 1, 1, trace, True, RUN_LIMIT_S)
            validate(res, s["per_layer" if trace else "end_to_end"])
            if not res["correct"] or res["failed"] != 0:
                raise RuntimeError(f"{workload}: {res['failed']} of "
                                   f"{res['attempted']} jobs failed")
            metrics = res["metrics"]
            if trace:
                for name in NONZERO[workload]:
                    if metrics[name]["value"] <= 0:
                        raise RuntimeError(f"{workload}: {name} is zero")
                if metrics["trace.dropped"]["value"] != 0:
                    raise RuntimeError(f"{workload}: trace dropped events")
            else:
                for name, m in metrics.items():
                    if m["value"] <= 0:
                        raise RuntimeError(
                            f"{workload}: {name} is not positive")
            log(f"self-check {workload} trace={trace}: ok "
                f"({time.monotonic() - t0:.1f} s)")
    log("self-check passed")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    if "MPIV_SIM_THREADS" in os.environ:
        log("refusing to run with MPIV_SIM_THREADS set")
        return 2
    try:
        if args.self_check:
            self_check()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        binary = build()
        context = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "build_type": BUILD_TYPE,
            "commit": source_id(), "sim_workers": 1,
        }
        res = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace, False, RUN_LIMIT_S)
        validate(res, spec()["per_layer" if args.trace else "end_to_end"])
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(str(e))
        return 1
    print("# context " + json.dumps(context))
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
