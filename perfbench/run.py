#!/usr/bin/env python3
"""Repository benchmark: build, self-test, measure, check, report.

    python3 perfbench/run.py --workload balanced|skewed --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
runtime and the measuring program from source into .bench_build/perfbench
(Release); later runs rebuild only what changed. Every run then executes
the benchmark's self-tests and one measured run of the perfbench program on
the chosen input mix: with --trace 0 it reports the end-to-end metrics, with
--trace 1 the per-layer metrics. BENCHMARK.json lists both; metrics.json
beside this script says which end-to-end metric each layer row should move.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The full record (host fingerprint, seed, resolved configuration, every
check) is written to .bench_build/perfbench/records/. Exit status is 0 when
every output check passed, 1 when one failed, and 2 or more when the run
could not be made (bad arguments, GRAN_* set, no sources, build failure).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def read_text(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return None


def source_digest():
    """sha256 over the runtime and benchmark sources: the build's identity
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_fingerprint():
    status = read_text("/proc/self/status") or ""
    cpuset = next((line.split(":", 1)[1].strip() for line in status.splitlines()
                   if line.startswith("Cpus_allowed_list")), None)
    cpuinfo = read_text("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    governor = read_text("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpuset": cpuset,
        "cpu_model": model,
        "governor": governor.strip() if governor else None,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                tail = (read_text(log_path) or "").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(3, f"build failed (full log: {log_path})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["balanced", "skewed"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail(2, "--seconds must be >= 1 and --seed >= 0")

    knobs = sorted(k for k in os.environ if k.startswith("GRAN_"))
    if knobs:
        fail(2, f"refusing to run with {', '.join(knobs)} set: the benchmark sets "
                "every runtime knob itself")
    if not os.path.isfile(os.path.join(ROOT, "src", "threads", "thread_manager.cpp")):
        fail(3, f"runtime sources not found under {os.path.join(ROOT, 'src')}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    spec = json.loads(read_text(spec_path) or "null")
    if not spec:
        fail(3, f"cannot read {spec_path}")
    mapping = json.loads(read_text(os.path.join(HERE, "metrics.json")) or "null")
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not mapping or set(mapping["end_to_end"]) | set(mapping["per_layer"]) != listed:
        fail(3, "perfbench/metrics.json and BENCHMARK.json name different metrics")

    build()
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              capture_output=True, text=True)
    if selftest.returncode != 0:
        print(selftest.stdout + selftest.stderr, file=sys.stderr)
        fail(4, "benchmark self-tests failed")

    records = os.path.join(BUILD, "records")
    os.makedirs(records, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = os.path.join(records, stem + ".json")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--record", record_path]
    if args.trace:
        cmd += ["--spans", os.path.join(records, args.workload + "-spans.tsv")]
    if os.path.exists(record_path):
        os.remove(record_path)
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(5, f"measurement exceeded {RUN_TIMEOUT_S} s")
    record = json.loads(read_text(record_path) or "null")
    if record is None:
        fail(5, f"perfbench exited with {proc.returncode} and wrote no record")

    record["host"] = host_fingerprint()
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = list(record["mismatches"])
    metrics = {}
    for m in want:
        got = record["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            problems.append(f"metric {m['name']} was not measured")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} has unit {got['unit']}, not {m['unit']}")
        else:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = set(record["metrics"]) - {m["name"] for m in want}
    problems += [f"metric {name} is not listed in BENCHMARK.json" for name in sorted(extra)]

    section_of = mapping["per_layer" if args.trace else "end_to_end"]
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"workers={record['workers']} record={os.path.relpath(record_path, ROOT)}")
    for name, m in metrics.items():
        note = section_of[name]
        where = note.get("moves") or note.get("section", "")
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']:8s} {where}")
    if args.trace:
        print("# spans by name: count, mean ns, mean self ns")
        for row in record["spans"]["by_name"]:
            n = max(1, row["count"])
            print(f"#   {row['name']:24s} {row['count']:>9d} {row['total_ns'] / n:>12.1f} "
                  f"{row['self_ns'] / n:>12.1f}")
    for name, c in record["config"]["sections"].items():
        print(f"# {name:16s} attempted {c['attempted']:>9d}  failed {c['failed']:>6d}")
    for p in problems:
        print(f"# CHECK FAILED: {p}")

    correct = not problems and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
