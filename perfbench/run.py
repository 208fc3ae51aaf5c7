#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The Go build cache, the binary and the
result records all live under .bench_build/ in the checkout, and the
build works offline. The benchmark prints one JSON result line last;
this wrapper passes its output and exit code through.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")


def go_env():
    home = os.path.join(BUILD, "home")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        # Keep the toolchain's own state files inside the checkout too.
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    src = os.path.join(ROOT, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", BIN, "."], cwd=src, env=go_env(),
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([BIN] + sys.argv[1:], cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
