#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload point_select --seed 1 --seconds 12 --trace 0

Every build input and output stays under .bench_build/ in the current
directory: the Go build cache, the binary, and the traced run's spans
(.bench_build/spans/<workload>.jsonl). The benchmark's own output (the
last stdout line is the JSON result) passes through unchanged, and its
exit code is this script's exit code.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOFLAGS="-mod=readonly -buildvcs=false",
        CGO_ENABLED="0",
    )
    return env


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def arg(name):
    argv = sys.argv[1:]
    for i, a in enumerate(argv):
        if a == name and i + 1 < len(argv):
            return argv[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return ""


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary] + sys.argv[1:] + ["--git-sha", git_sha()]
    if arg("--trace") == "1":
        spans = os.path.join(BUILD, "spans", (arg("--workload") or "unknown") + ".jsonl")
        cmd += ["--span-file", spans]
    try:
        return subprocess.run(cmd, timeout=175).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 175s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
