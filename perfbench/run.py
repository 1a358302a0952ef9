#!/usr/bin/env python3
"""Repository benchmark: builds tsvdbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --audit K [--workload NAME] [--seconds S] [--trace 0|1]

A run prints the machine it ran on, then, as the last line of standard output,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones; the traced run also writes its spans to
.bench_out/trace-<workload>-<seed>.json. The run exits 1 when any operation
failed (a false positive, a crashed, timed-out or quarantined run, an invalid
campaign.json/.sarif or trap store) and 2 when it cannot build or run at all.

--audit K runs the workload (every workload when --workload is omitted) with K
consecutive seeds and prints min, quartiles, median, max and the quartile
spread of each metric, the figures the bounds in BENCHMARK.json rest on.

Must be started from the root of a checkout that holds the tsvd sources.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table2_corpus", "calls_dense")
# Default seed of every workload, and a seed held out for later gain claims
# (both are stated in BENCHMARK.json's "why" lines too).
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
# One run must finish within 180 s; leave room for set-up and teardown.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def machine():
    info = {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "governor": "unknown",
        "hypervisor": False,
        "kernel": platform.release(),
    }
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and info["cpu_model"] == "unknown":
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and " hypervisor" in line:
                    info["hypervisor"] = True
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            info["governor"] = f.read().strip() or "unknown"
    except OSError:
        pass
    return info


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build():
    """Configures and builds tsvdbench; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no tsvd sources under {ROOT}/src: nothing to build")
        return None
    out = build_dir()
    started = time.monotonic()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "--target", "tsvdbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = out / "tsvdbench"
    if not binary.is_file():
        log("build produced no tsvdbench binary")
        return None
    log(f"build ready in {time.monotonic() - started:.1f}s")
    return binary


def run_binary(binary, workload, seed, seconds, trace, smoke):
    """Runs tsvdbench in a scratch directory; returns (report dict, trace path)."""
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    trace_path = None
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload}-{seed}.json"
        cmd += ["--trace-out", str(trace_path)]
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        log(f"{workload}: timed out after {RUN_TIMEOUT_S}s")
        return None, None
    report = None
    if proc.returncode == 0:
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            report = None
    if report is None:
        log(f"{workload}: tsvdbench exited {proc.returncode} without a result")
    else:
        # Re-validate the campaign artifacts with an independent parser.
        for rel in report.get("artifacts", []):
            try:
                with open(work / rel) as f:
                    json.load(f)
            except (OSError, ValueError) as e:
                report["failed"] += 1
                report["correct"] = False
                report.setdefault("errors", []).append(f"artifact {rel}: {e}")
    shutil.rmtree(work, ignore_errors=True)
    return report, trace_path


def run_once(workload, seed, seconds, trace, smoke=False, binary=None):
    """One benchmark run; returns (exit code, result dict or None)."""
    spec = load_spec()
    binary = binary or build()
    if binary is None:
        return 2, None
    report, trace_path = run_binary(binary, workload, seed, seconds, trace, smoke)
    if report is None:
        return 2, None
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            log(f"{workload}: metric {m['name']} missing or malformed: {got}")
            return 2, None
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for err in report.get("errors", []):
        log(f"{workload}: FAILED: {err}")
    names = {m["name"] for m in wanted}
    extra = {k: v for k, v in report["metrics"].items() if k not in names}
    if extra:
        print("ungated: " + json.dumps(extra))
    result = {
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }
    if trace_path is not None and trace_path.is_file():
        with open(trace_path) as f:
            doc = json.load(f)
        doc["machine"] = machine()
        doc["seed"] = seed
        with open(trace_path, "w") as f:
            json.dump(doc, f)
    return (0 if result["correct"] else 1), result


def audit(workloads, repeats, first_seed, seconds, trace, smoke):
    binary = build()
    if binary is None:
        return 2
    info = machine()
    print("machine: " + json.dumps(info))
    summary = {"machine": info, "seconds": seconds, "trace": trace, "workloads": {}}
    status = 0
    for workload in workloads:
        values = {}
        units = {}
        for i in range(repeats):
            seed = first_seed + i
            code, result = run_once(workload, seed, seconds, trace, smoke, binary)
            status = max(status, code)
            if result is None:
                continue
            print(f"{workload} seed {seed}: " + json.dumps(result), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        print(f"\n{workload}: {repeats} runs of {seconds}s")
        print(f"{'metric':34} {'unit':>8} {'min':>11} {'q1':>11} {'median':>11} "
              f"{'q3':>11} {'max':>11} {'spread':>8}")
        for name, vals in values.items():
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else (vals[0],) * 3)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            rows[name] = {"unit": units[name], "values": vals, "min": min(vals),
                          "q1": q1, "median": med, "q3": q3, "max": max(vals),
                          "spread": spread}
            print(f"{name:34} {units[name]:>8} {min(vals):11.4g} {q1:11.4g} "
                  f"{med:11.4g} {q3:11.4g} {max(vals):11.4g} {spread:8.3f}")
        summary["workloads"][workload] = rows
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"audit-{'trace' if trace else 'e2e'}.json", "w") as f:
        json.dump(summary, f, indent=1)
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, for the benchmark's own tests")
    parser.add_argument("--audit", type=int, metavar="K",
                        help="run K consecutive seeds and print the spread")
    args = parser.parse_args()
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.audit:
        chosen = [args.workload] if args.workload else list(WORKLOADS)
        return audit(chosen, args.audit, args.seed, seconds, bool(args.trace), args.smoke)
    if args.workload is None:
        parser.error("--workload is required")
    code, result = run_once(args.workload, args.seed, seconds, bool(args.trace),
                            args.smoke)
    if result is None:
        return code
    print("machine: " + json.dumps(machine()))
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
