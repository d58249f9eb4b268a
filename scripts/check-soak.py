#!/usr/bin/env python3
"""Checks a full `bench-soak` run against the committed BENCH_soak.json.

Every field of every cell must match the committed artifact exactly,
except the timing-class fields (`wall_ms`, `frames_sent`,
`bits_transmitted`, `faults_injected`): the same split
`crates/scenario/tests/soak_determinism.rs` pins. A change that moves a
deterministic field (which sessions agree, which abort and why, the
secret sizes) fails here, naming the cell and the field; re-record the
artifact and explain the move instead.

Usage:
    cargo run --release --bin thinaird -- bench-soak --out soak-full.json
    scripts/check-soak.py soak-full.json [BENCH_soak.json]
"""

import json
import sys

TIMING_FIELDS = {"wall_ms", "frames_sent", "bits_transmitted", "faults_injected"}


def cells(doc):
    return {cell["name"]: cell for cell in doc["results"]}


def check(run, committed):
    problems = []
    if run.get("schema") != committed.get("schema"):
        problems.append(f"schema {run.get('schema')!r}, committed {committed.get('schema')!r}")
    got, want = cells(run), cells(committed)
    for name in want.keys() - got.keys():
        problems.append(f"{name}: cell missing from the run")
    for name in got.keys() - want.keys():
        problems.append(f"{name}: cell not in the committed artifact")
    for name in sorted(want.keys() & got.keys()):
        for field in sorted((want[name].keys() | got[name].keys()) - TIMING_FIELDS):
            ran, kept = got[name].get(field), want[name].get(field)
            if ran != kept:
                problems.append(f"{name}: {field} is {json.dumps(ran)}, committed {json.dumps(kept)}")
    return problems


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    reference = sys.argv[2] if len(sys.argv) == 3 else "BENCH_soak.json"
    with open(sys.argv[1], encoding="utf-8") as f:
        run = json.load(f)
    with open(reference, encoding="utf-8") as f:
        committed = json.load(f)
    problems = check(run, committed)
    for p in problems:
        print(f"soak check: {p}", file=sys.stderr)
    if not problems:
        print(f"soak check: {len(cells(run))} cells match {reference} on every deterministic field")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
