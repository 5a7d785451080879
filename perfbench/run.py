#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 10 --trace 0

The Go program in this directory is built into .bench_build/ (build cache
included), then run with the same arguments. Its output passes through
unchanged: the last line of standard output is the JSON result. The exit
code is the program's, or the build's if the build fails.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=tmp,
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench-bin")
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)
    sys.exit(subprocess.run([binary] + sys.argv[1:], env=env).returncode)


if __name__ == "__main__":
    main()
