#!/usr/bin/env python3
"""Build the CSJ benchmark from source, then run it.

    python3 perfbench/run.py --workload vk --seed 1 --seconds 40 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build in the current directory); run artifacts go to
a `perfbench` directory inside it. All arguments are passed on to the
benchmark binary, whose last line of output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode
    env["PERFBENCH_WORK_DIR"] = os.path.join(target, "perfbench")
    exe = os.path.join(target, "release", "csj-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
