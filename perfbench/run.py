#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the checkout's source.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload legal-forest --seed 1 --seconds 20 --trace 0

The Go package in this directory is its own module and imports the
repository's packages through a `replace repro => ../` directive, so the
build needs the repository source next to it. Every build artefact, the Go
build cache and the benchmark's scratch files stay under .bench_build in
the checkout (or under $CARGO_TARGET_DIR when it is set).

The benchmark binary runs with GOMAXPROCS=1 and a fixed GOGC; its last line
of standard output is the JSON result, which this script passes through.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def is_repo_root(path):
    try:
        with open(os.path.join(path, "go.mod")) as f:
            head = f.readline().split()
    except OSError:
        return False
    return head == ["module", "repro"] and os.path.isdir(os.path.join(path, "internal", "core"))


def main():
    if not is_repo_root(ROOT):
        fail("the repository source (go.mod of module repro, internal/) is not next to " + HERE)
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(ROOT, out_dir) if not os.path.isabs(out_dir) else out_dir
    tmp = os.path.join(out_dir, "tmp")
    for d in (out_dir, tmp):
        os.makedirs(d, exist_ok=True)

    # Keep the Go toolchain's caches, config and temp files in the checkout.
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out_dir, "gocache"),
        "GOPATH": os.path.join(out_dir, "gopath"),
        "GOMODCACHE": os.path.join(out_dir, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out_dir, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out_dir, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)

    # Steadiness settings live here, not in the program: one OS thread for
    # Go code and the default GC target, recorded by the binary.
    env["GOMAXPROCS"] = "1"
    env["GOGC"] = "100"
    env.pop("GODEBUG", None)
    args = [binary, "--workdir", os.path.join(out_dir, "work")] + sys.argv[1:]
    proc = subprocess.run(args, cwd=ROOT, env=env)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
