#!/usr/bin/env python3
"""calcdb benchmark: one measured run of one workload.

    python3 calcbench/run.py --workload micro_ckpt --seed 1 --seconds 10 --trace 0

Run from the repository root. The script builds the harness (engine
sources from src/, build files in calcbench/) into .bench_build/, runs the
workload in fresh processes, checks correctness and prints every metric by
name with its unit. The last line of standard output is one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {name: {"value": v, "unit": u}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up is
repeated in separate processes (config.json "setup_repeats") and every
metric measured during set-up, setup_s among them, is their median.
--trace 1 reports the per-layer metrics: an untraced and a traced process
run back to back, the per-layer figures come from the traced one and
trace.overhead.* compares the two.

Workload sizes, rates and the pinned engine knobs are in
calcbench/config.json. It also holds tpcc_open, which runs like the
workloads of BENCHMARK.json but is not one of them (see README.md).
CALCDB_* environment variables are removed before the harness starts so
none can change what is measured. Exit code 0 on a
correct run; 1 if a correctness check failed; 2 if the benchmark could not
run (no engine sources, build failure, harness crash, timeout).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_BUDGET_S = 170  # every run after the build must finish within 180 s


class BenchError(Exception):
    pass


def log(msg):
    print(f"calcbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "calcbench")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("engine sources not found: run from a calcdb checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-8000:])
                raise BenchError("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "calcbench_harness")
    if not os.access(binary, os.X_OK):
        raise BenchError("harness binary missing after build")
    return binary


def load_config(profile):
    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if profile == "tiny":
        tiny = config["tiny"]
        config["setup_repeats"] = tiny["setup_repeats"]
        for name, overrides in tiny.items():
            if name in config["workloads"]:
                config["workloads"][name].update(overrides)
    return config, spec


def params_for(config, workload):
    if workload not in config["workloads"]:
        raise BenchError(f"unknown workload {workload!r}")
    params = dict(config["common"])
    params.update(config["workloads"][workload])
    return params


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("CALCDB_")}


def source_stamp():
    stamp = {"git_sha": "none"}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, env=env, timeout=10)
        if proc.returncode == 0:
            stamp["git_sha"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    stamp["src_sha256"] = digest.hexdigest()[:16]
    return stamp


class Harness:
    def __init__(self, binary, workload, params, seed, seconds, deadline):
        self.binary = binary
        self.workload = workload
        self.params = params
        self.seed = seed
        self.seconds = seconds
        self.deadline = deadline
        self.work_root = os.path.join(ROOT, ".bench_work")
        os.makedirs(self.work_root, exist_ok=True)

    def run(self, tag, trace=False, setup_only=False, tamper=False):
        """One harness process; returns its result dict."""
        stem = f"{self.workload}-{os.getpid()}-{tag}"
        work_dir = os.path.join(self.work_root, stem)
        out = os.path.join(self.work_root, stem + ".json")
        cmd = [self.binary, f"--workload={self.workload}", f"--seed={self.seed}",
               f"--seconds={self.seconds}", f"--trace={int(trace)}",
               f"--work_dir={work_dir}", f"--out={out}",
               f"--setup_only={int(setup_only)}", f"--tamper={int(tamper)}"]
        if trace:
            traces = os.path.join(self.work_root, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd.append(f"--trace_out={os.path.join(traces, self.workload + '.json')}")
        cmd += [f"--{k}={v}" for k, v in self.params.items()]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted before " + tag)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  env=clean_env(), timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{tag} run timed out")
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not os.path.isfile(out):
            raise BenchError(f"{tag} run exited with code {proc.returncode}")
        with open(out) as f:
            result = json.load(f)
        os.remove(out)
        return result


def pick(result, entries, tag, strict):
    """The named metrics of `entries` from a harness result, units checked.
    A run that failed its correctness check may lack some (not strict)."""
    metrics = {}
    for entry in entries:
        name, unit = entry["name"], entry["unit"]
        got = result["metrics"].get(name)
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            if not strict:
                continue
            raise BenchError(f"{tag}: metric {name} missing or not finite")
        if got["unit"] != unit:
            raise BenchError(f"{tag}: metric {name} unit {got['unit']} != {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def relative(a, b):
    return (a - b) / b if b else 0.0


def measure(args, config, spec, binary):
    params = params_for(config, args.workload)
    deadline = time.monotonic() + RUN_BUDGET_S
    harness = Harness(binary, args.workload, params, args.seed, args.seconds,
                      deadline)
    results = []
    if args.trace:
        plain = harness.run("plain", tamper=args.tamper)
        traced = harness.run("traced", trace=True, tamper=args.tamper)
        results = [plain, traced]
        main = traced
        for metric in ("throughput_tps", "txn_p50_us", "recovery_s"):
            if metric in traced["metrics"] and metric in plain["metrics"]:
                main["metrics"][f"trace.overhead.{metric}"] = {
                    "value": relative(traced["metrics"][metric]["value"],
                                      plain["metrics"][metric]["value"]),
                    "unit": "fraction"}
        entries = spec["per_layer"]
    else:
        for i in range(config["setup_repeats"] - 1):
            results.append(harness.run(f"setup{i}", setup_only=True))
        main = harness.run("main", tamper=args.tamper)
        results.append(main)
        # A metric measured during set-up (setup_s everywhere; the log
        # generation and its checkpoints on recover_replay) is the median
        # over every process that set up.
        for entry in spec["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in results
                      if entry["name"] in r["metrics"]]
            if len(values) > 1 and None not in values:
                main["metrics"][entry["name"]]["value"] = statistics.median(values)
        entries = spec["end_to_end"]
    errors = [e for r in results for e in r["errors"]]
    metrics = pick(main, entries, "run", strict=not errors)
    return main, metrics, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--profile", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small sizes")
    parser.add_argument("--tamper", action="store_true",
                        help="alter one recovered record (self-test)")
    args = parser.parse_args()
    try:
        config, spec = load_config(args.profile)
        params_for(config, args.workload)  # rejects an unknown workload
        binary = build()
        main_result, metrics, errors = measure(args, config, spec, binary)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    stamp = dict(main_result["stamp"])
    stamp.update(source_stamp())
    stamp["profile"] = args.profile
    print("calcbench stamp: " + json.dumps(stamp, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:16.6g} {m['unit']}")
    for e in errors:
        print(f"  correctness FAILED: {e}")
    correct = not errors
    print(json.dumps({"correct": correct,
                      "attempted": int(main_result["attempted"]),
                      "failed": int(main_result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
