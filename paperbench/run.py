#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 paperbench/run.py --workload batched_cells --seed 1 --seconds 20 --trace 0

`--trace 0` runs the `paperbench` binary (end-to-end metrics), `--trace 1`
the `paperbench-trace` binary (per-layer metrics). Build output goes to
`$CARGO_TARGET_DIR` (default `.bench_build`). The binary's standard output
is passed through; its last line is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    if "--trace" not in argv[:-1]:
        print("run.py: missing --trace 0|1", file=sys.stderr)
        return 2
    trace = argv[argv.index("--trace") + 1]
    if trace not in ("0", "1"):
        print("run.py: --trace must be 0 or 1", file=sys.stderr)
        return 2
    binary = "paperbench-trace" if trace == "1" else "paperbench"
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    command = [
        "cargo", "run", "--release", "--quiet", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--bin", binary, "--",
    ] + argv
    # `run` waits for cargo, and cargo for the benchmark binary.
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
