#!/usr/bin/env python3
"""Build and run hyperprof's study-level benchmark.

Run from the root of a hyperprof checkout:

    python3 perfbench/run.py --workload char --seed 1 --seconds 25 --trace 0

The benchmark is a Go module of its own in this directory that builds the
hyperprof sources beside it. Everything the build and the runs write stays
under .bench_build/ in the checkout: the Go build cache, temporary files,
the benchmark binary and the span traces.
The arguments are passed to the binary unchanged; see main.go for them.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    out = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                      ("HOME", "home"), ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[name] = os.path.join(out, sub)
        os.makedirs(env[name], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off")
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
