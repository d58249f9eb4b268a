#!/usr/bin/env python3
"""Checks a full `explore` run against the committed BENCH_explore.json.

Every field of every result must match the committed artifact exactly,
except `wall_ms`. The explorer enumerates schedules over the real role
state machines under the virtual clock, so its counts (executions,
distinct schedules, states visited, pruned branches, violations) are a
deterministic function of the protocol code: a change that moves one
changed what the state machines do on some schedule. This fails naming
the result and the field; re-record the artifact and explain the move
instead.

Usage:
    cargo run --release --bin thinaird -- explore --out explore-full.json
    scripts/check-explore.py explore-full.json [BENCH_explore.json]
"""

import json
import sys

TIMING_FIELDS = {"wall_ms"}


def results(doc):
    return {result["name"]: result for result in doc["results"]}


def check(run, committed):
    problems = []
    if run.get("schema") != committed.get("schema"):
        problems.append(f"schema {run.get('schema')!r}, committed {committed.get('schema')!r}")
    got, want = results(run), results(committed)
    for name in want.keys() - got.keys():
        problems.append(f"{name}: result missing from the run")
    for name in got.keys() - want.keys():
        problems.append(f"{name}: result not in the committed artifact")
    for name in sorted(want.keys() & got.keys()):
        for field in sorted((want[name].keys() | got[name].keys()) - TIMING_FIELDS):
            ran, kept = got[name].get(field), want[name].get(field)
            if ran != kept:
                problems.append(f"{name}: {field} is {json.dumps(ran)}, committed {json.dumps(kept)}")
    return problems


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    reference = sys.argv[2] if len(sys.argv) == 3 else "BENCH_explore.json"
    with open(sys.argv[1], encoding="utf-8") as f:
        run = json.load(f)
    with open(reference, encoding="utf-8") as f:
        committed = json.load(f)
    problems = check(run, committed)
    for p in problems:
        print(f"explore check: {p}", file=sys.stderr)
    if not problems:
        print(f"explore check: {len(results(run))} results match {reference} on every field but wall_ms")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
