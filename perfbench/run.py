#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The script builds perfbench/ (which
builds the library from ../src with the root CMakeLists.txt) into
.bench_build/perfbench, runs one workload, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). A per-layer metric the workload does not
exercise is reported as 0. The full record (provenance, sample counts,
derivations) is printed on the line before and kept under
.bench_build/perfbench/results/. Exit code 0 when every output was correct.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "core", "salo.hpp"))):
        fail("no SALO sources next to perfbench/ (expected ../CMakeLists.txt and ../src)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 3)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may not be
    a git repository, so this identifies the code that was measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable (not a git checkout)"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the checkout root")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    build()
    if args.self_test:
        tests = os.path.join(BUILD, "perfbench_tests")
        if not os.path.isfile(tests):
            fail("perfbench_tests was not built (GoogleTest not found)", 3)
        sys.exit(subprocess.run([tests]).returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))

    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload exceeded %d s" % RUN_TIMEOUT_S, 4)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed no record (exit %d)" % done.returncode, 5)
    record = json.loads(lines[-1])
    record["provenance"]["git_commit"] = git_commit()
    record["provenance"]["source_sha256"] = source_digest()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("workload did not report end-to-end metric " + m["name"], 6)
            got = {"value": 0, "unit": m["unit"], "samples": 0,
                   "note": "layer not exercised by this workload"}
            record["metrics"][m["name"]] = got
        if got["unit"] != m["unit"]:
            fail("unit of %s is %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]),
                 6)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = sorted(set(record["metrics"]) -
                   {m["name"] for m in spec["end_to_end"] + spec["per_layer"]})
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra), 6)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    for name, m in record["metrics"].items():
        note = ("  [" + m["note"] + "]") if m.get("note") else ""
        print("%-36s %16.6g %-10s n=%d%s" % (name, m["value"], m["unit"], m["samples"], note))
    for problem in record["problems"]:
        print("PROBLEM: " + problem)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": bool(record["correct"]) and done.returncode == 0,
                      "attempted": record["attempted"], "failed": record["failed"],
                      "metrics": metrics}))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
