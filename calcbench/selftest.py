#!/usr/bin/env python3
"""Tiny-scale self-test of the calcdb benchmark.

    python3 calcbench/selftest.py

Run from the repository root. For every workload of calcbench/config.json
(those of BENCHMARK.json and tpcc_open) it runs calcbench/run.py with the
small "tiny" sizes for about a second, untraced and traced, and checks that:

  * the run is correct and its last output line is the result object;
  * every end-to-end (untraced) and per-layer (traced) metric is present,
    finite and carries the unit BENCHMARK.json gives it;
  * the traced run wrote a span for every layer, each span with a parent
    link and the run's id;
  * a run that alters one recovered record fails its correctness check.

Exit code 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS = ("db.open", "storage.load", "db.start", "workload.next",
         "txn.execute", "ckpt.cycle", "recovery.recover", "db.shutdown")


def run(workload, trace, tamper=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--profile", "tiny"]
    if tamper:
        cmd.append("--tamper")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, entries):
    problems = []
    for entry in entries:
        got = result["metrics"].get(entry["name"])
        if got is None:
            problems.append(f"{entry['name']} missing")
        elif not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            problems.append(f"{entry['name']} not finite: {got['value']}")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{entry['name']} unit {got['unit']} != {entry['unit']}")
    extra = set(result["metrics"]) - {e["name"] for e in entries}
    problems += [f"{name} not in BENCHMARK.json" for name in sorted(extra)]
    return problems


def check_trace(workload):
    path = os.path.join(ROOT, ".bench_work", "traces", workload + ".json")
    with open(path) as f:
        trace = json.load(f)
    run_id = trace["otherData"]["run_id"]
    events = trace["traceEvents"]
    ids = {e["args"]["span_id"] for e in events}
    problems = []
    for name in SPANS:
        if not any(e["name"] == name for e in events):
            problems.append(f"trace has no {name} span")
    for e in events:
        if e["args"]["run_id"] != run_id:
            problems.append(f"span {e['name']} has another run id")
            break
        parent = e["args"]["parent_id"]
        if e["name"] != "bench.run" and parent not in ids:
            problems.append(f"span {e['name']} has no parent in the trace")
            break
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "config.json")) as f:
        workloads = list(json.load(f)["workloads"])
    failures = 0
    for workload in workloads:
        checks = []
        for trace, entries in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, err = run(workload, trace)
            if code != 0 or result is None or not result["correct"]:
                checks.append(f"trace={trace} run failed (exit {code}): {err[-2000:]}")
                continue
            if result["attempted"] < 1:
                checks.append(f"trace={trace} attempted {result['attempted']}")
            checks += [f"trace={trace} {p}" for p in check_metrics(result, entries)]
            if trace:
                checks += check_trace(workload)
        code, result, _ = run(workload, 0, tamper=True)
        if code == 0 or result is None or result["correct"]:
            checks.append(f"altered record not caught (exit {code})")
        status = "ok" if not checks else "FAILED"
        print(f"selftest {workload}: {status}")
        for c in checks:
            print(f"  {c}")
        failures += bool(checks)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
