#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload serve-hot|serve-sweep \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `rft-serve` daemon (the
repository's workspace, release profile) and the harness package in this
directory, both into $CARGO_TARGET_DIR (default: `.bench_build`), then
runs the harness, whose last stdout line is the JSON result. Exits
non-zero without a result when either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, cwd, env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"run.py: {ROOT} holds no Cargo workspace to build")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(["-p", "rft-serve", "--bin", "rft-serve"], ROOT, env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT, env)
    release = os.path.join(target, "release")
    harness = [os.path.join(release, "rft-e2ebench")]
    daemon = ["--daemon", os.path.join(release, "rft-serve")]
    sys.exit(subprocess.run(harness + sys.argv[1:] + daemon, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
