#!/usr/bin/env python3
"""Build the BPMF commands and the benchmark program from source, then run
one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-ml --seed 1 --seconds 16 --trace 0

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, temporary files, the binaries, the seeded
input cache, result files and span traces. The last line of standard
output is the run's JSON result; the build's output goes to stderr.
"""

import os
import subprocess
import sys

COMMANDS = ["bpmf", "bpmf-dist", "bpmf-serve", "bpmf-trainer"]


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and all(os.path.isdir(os.path.join(root, "cmd", c)) for c in COMMANDS)):
        print("perfbench: run from the root of a BPMF checkout "
              "(go.mod and cmd/{%s} not found)" % ",".join(COMMANDS), file=sys.stderr)
        return 2
    state = os.path.join(root, ".bench_build")
    bindir = os.path.join(state, "bin")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(state, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOENV="off", GOTELEMETRY="off")
    builds = [
        ["go", "build", "-o", bindir + os.sep] + ["./cmd/" + c for c in COMMANDS + ["datagen"]],
        ["go", "-C", "perfbench", "build", "-o", os.path.join(bindir, "perfbench"), "."],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    sys.stdout.flush()
    prog = os.path.join(bindir, "perfbench")
    return subprocess.run([prog, "-root", root, "-bin", bindir] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
