#!/usr/bin/env python3
"""Validate the machine-readable benchmark snapshots at the repo root.

Every BENCH_*.json must (a) parse as JSON and (b) carry an integer
schema_version, so downstream tooling (and CI trend jobs) can rely on the
files without per-bench special cases. BENCH_decode.json,
BENCH_throughput.json and BENCH_serving.json must also name the host they
were measured on (kernel ISA, hardware threads, CPU model), and
BENCH_decode.json must report tokens/s at all of 1/64/4096 concurrent
streams with every level bit-identical (the decode-tier contract). Run
from anywhere:

    python3 tools/check_bench_json.py [repo_root]

Exit code 0 when every snapshot is valid, 1 otherwise. Stdlib only.
"""

import glob
import json
import os
import sys


def check(path: str) -> list:
    problems = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"does not parse: {e}"]
    if not isinstance(doc, dict):
        return ["top-level value is not an object"]
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        problems.append(f"schema_version missing or not an integer: {version!r}")
    if not doc.get("bench"):
        problems.append("missing 'bench' name")
    if doc.get("bench") in ("decode", "throughput", "serving"):
        problems.extend(check_host(doc))
    if doc.get("bench") == "decode":
        problems.extend(check_decode(doc))
    return problems


def check_host(doc: dict) -> list:
    """The host identity a snapshot's numbers are only comparable within."""
    problems = []
    for key in ("kernel_isa", "cpu_model"):
        value = doc.get(key)
        if not isinstance(value, str) or not value:
            problems.append(f"'{key}' missing or not a non-empty string: {value!r}")
    threads = doc.get("hardware_threads")
    if not isinstance(threads, int) or isinstance(threads, bool) or threads < 1:
        problems.append(f"'hardware_threads' missing or not a positive integer: {threads!r}")
    return problems


def check_decode(doc: dict) -> list:
    """The decode snapshot's contract: the full 1/64/4096-stream sweep,
    positive tokens/s at every level, and bit-identity everywhere."""
    problems = []
    levels = doc.get("levels")
    if not isinstance(levels, list):
        return ["'levels' missing or not a list"]
    by_streams = {}
    for entry in levels:
        if isinstance(entry, dict):
            by_streams[entry.get("streams")] = entry
    for want in (1, 64, 4096):
        entry = by_streams.get(want)
        if entry is None:
            problems.append(f"missing level for {want} streams")
            continue
        tps = entry.get("tokens_per_s")
        if not isinstance(tps, (int, float)) or isinstance(tps, bool) or tps <= 0:
            problems.append(f"{want} streams: tokens_per_s not positive: {tps!r}")
        if entry.get("bit_identical") is not True:
            problems.append(f"{want} streams: bit_identical is not true")
    if doc.get("bit_identical") is not True:
        problems.append("top-level bit_identical is not true")
    return problems


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    if not paths:
        print(f"check_bench_json: no BENCH_*.json found under {root}", file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        problems = check(path)
        name = os.path.basename(path)
        if problems:
            failed = True
            for p in problems:
                print(f"FAIL {name}: {p}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
