#!/usr/bin/env python3
"""Self-test of check-loadbench.py on three fixture logs.

`fixtures/loadbench-pass.out` is a real `--workload all --seconds 3` run.
`loadbench-invalid.out` is the same run with steady failing Little's law
and burst failing the generator-lag check. `loadbench-missing.out` stops
before sharded's result line. The check must pass the first, and fail
the other two, saying why.

Usage:
    scripts/test-check-loadbench.py
"""

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

# fixture, exit status, lines expected on stdout, lines expected on stderr
CASES = [
    (
        "loadbench-pass.out",
        0,
        [
            "steady: check: generator lag p99 1.350 ms (limit 20 ms)",
            "burst: check: Little's law hold 120.797 ms vs serve.session_us mean 121.124 ms (-0.27 %)",
            "sharded: correct=True failed=0 wire_bytes=1037.8",
        ],
        [],
    ),
    (
        "loadbench-invalid.out",
        1,
        [
            "steady: check: Little's law hold 134.668 ms vs serve.session_us mean 121.102 ms (+11.20 %)",
            "burst: check: generator lag p99 24.310 ms (limit 20 ms)",
        ],
        [
            "loadbench check: steady: correct is False",
            "loadbench check: steady: INVALID: Little's law disagrees with slot hold by 11.2 %",
            "loadbench check: burst: correct is False",
            "loadbench check: burst: INVALID: generator fell behind: lag p99 24.310 ms",
        ],
    ),
    (
        "loadbench-missing.out",
        1,
        ["sharded: check: generator lag p99 1.974 ms (limit 20 ms)"],
        ["loadbench check: sharded: no result line"],
    ),
]


def main():
    failures = []
    for fixture, status, stdout, stderr in CASES:
        run = subprocess.run(
            [sys.executable, str(HERE / "check-loadbench.py"), str(HERE / "fixtures" / fixture)],
            capture_output=True,
            text=True,
        )
        got_out, got_err = run.stdout.splitlines(), run.stderr.splitlines()
        if run.returncode != status:
            failures.append(f"{fixture}: exit {run.returncode}, want {status}")
        failures += [f"{fixture}: stdout lacks {line!r}" for line in stdout if line not in got_out]
        failures += [f"{fixture}: stderr lacks {line!r}" for line in stderr if line not in got_err]
        extra = [line for line in got_err if line not in stderr]
        failures += [f"{fixture}: unexpected stderr {line!r}" for line in extra]
    for f in failures:
        print(f"check-loadbench self-test: {f}", file=sys.stderr)
    if not failures:
        print(f"check-loadbench self-test: {len(CASES)} fixtures ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
