#!/usr/bin/env python3
"""Checks the result lines of a loadbench run.

loadbench prints a `context: {...}` line naming each workload before
running it, and ends each workload with a JSON result line. A run exits 0
even when a result reads `"correct": false`; this check fails instead
when any workload is missing its result, reports `"correct": false` or
`"failed"` > 0, or spends more wire bytes per session than its ceiling.

Each workload's `check:` lines (generator lag, Little's law, byte
ledgers) are echoed, and an invalid result's `INVALID:` lines are copied
into the failure messages, so a log says which validity check tripped.

Usage:
    cargo run --release --offline --manifest-path loadbench/Cargo.toml -- \\
        --workload all --seed 1 --seconds 3 | tee loadbench.out
    scripts/check-loadbench.py loadbench.out
"""

import json
import sys

# Ceiling on `wire_bytes_per_session`, per workload. steady measures
# about 1 340 with the v2 frame codec; the v1 envelope spent about 2 015.
WIRE_BYTES_CEILING = {"steady": 1450}

EXPECTED = ("steady", "burst", "sharded")


def parse(lines):
    """Each workload's result line (or None), `check:` and `INVALID:`
    lines, by name."""
    workloads = {}
    current = None
    for line in lines:
        if line.startswith("context: "):
            name = json.loads(line[len("context: "):])["workload"]
            current = workloads.setdefault(name, {"result": None, "checks": [], "invalid": []})
        elif current is None:
            continue
        elif line.startswith("check: "):
            current["checks"].append(line[len("check: "):])
        elif line.startswith("INVALID: "):
            current["invalid"].append(line[len("INVALID: "):])
        elif line.startswith('{"correct"'):
            current["result"] = json.loads(line)
    return workloads


def check(lines):
    problems = []
    workloads = parse(lines)
    for name in EXPECTED:
        if workloads.get(name, {}).get("result") is None:
            problems.append(f"{name}: no result line")
    for name, w in workloads.items():
        for c in w["checks"]:
            print(f"{name}: check: {c}")
        r = w["result"]
        if r is None:
            continue
        if r["correct"] is not True:
            problems.append(f"{name}: correct is {r['correct']}")
            problems.extend(f"{name}: INVALID: {i}" for i in w["invalid"])
        if r["failed"] > 0:
            problems.append(f"{name}: {r['failed']} failed sessions")
        wire = r["metrics"]["wire_bytes_per_session"]["value"]
        ceiling = WIRE_BYTES_CEILING.get(name)
        print(f"{name}: correct={r['correct']} failed={r['failed']} wire_bytes={wire:.1f}")
        if ceiling is not None and wire > ceiling:
            problems.append(f"{name}: wire_bytes_per_session {wire:.1f} > {ceiling}")
    return problems


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1], encoding="utf-8") as f:
        problems = check(f.read().splitlines())
    for p in problems:
        print(f"loadbench check: {p}", file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
