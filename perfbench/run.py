#!/usr/bin/env python3
"""Build the perfbench binary from the enclosing checkout and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload frame8 --seed 0 --seconds 30 --trace 0

Every file the build and the run write stays under the checkout: the Go
build cache, the binary and the run's artifacts (span dump, CPU profile,
sweep run record) go to $CARGO_TARGET_DIR, or .bench_build when it is unset.
The last line of standard output is the run's JSON result; the exit code is
the benchmark's own (non-zero on a build error or a failed oracle).
"""
import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "PPROF_TMPDIR": os.path.join(build, "pprof"),
    })
    binary = os.path.join(out, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    sys.stdout.flush()
    # The traced run calls `go tool pprof`; the same environment keeps it
    # inside the checkout too.
    ran = subprocess.run([binary, "--out", out] + sys.argv[1:], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
