#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload compile|run|serve --seed N \
        --seconds S --trace 0|1

The benchmark is a dune project of its own: this script assembles its
workspace under .bench_build/ws (perfbench/dune-project, a copy of the
checkout's lib/, and this directory's sources with perfbench.dune as their
build file), builds perfbench.exe there (build output goes to standard
error) and replaces this process with it, so the benchmark's last line of
standard output is the result object.  The repository's own dune build
never sees the benchmark.  Exits non-zero without a result when the
workspace cannot be assembled or built, e.g. outside a full checkout.
"""
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WS = os.path.join(BUILD, "ws")


def assemble():
    """Copy the sources into the workspace.  copy2 keeps modification
    times, so an unchanged source does not make dune rebuild."""
    lib = os.path.join(WS, "lib")
    bench = os.path.join(WS, "perfbench")
    for d in (lib, bench):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(bench)
    shutil.copytree(os.path.join(ROOT, "lib"), lib)
    shutil.copy2(os.path.join(HERE, "dune-project"), WS)
    shutil.copy2(os.path.join(HERE, "perfbench.dune"),
                 os.path.join(bench, "dune"))
    for src in glob.glob(os.path.join(HERE, "*.ml")):
        shutil.copy2(src, bench)


def main():
    env = dict(os.environ)
    # keep every build product, temporary files included, in the checkout
    env["DUNE_CACHE"] = "disabled"
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    try:
        os.makedirs(env["TMPDIR"], exist_ok=True)
        assemble()
        build = subprocess.run(
            ["dune", "build", "--root", WS, "--display", "quiet",
             "./perfbench/perfbench.exe"],
            cwd=WS, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(WS, "_build", "default", "perfbench", "perfbench.exe")
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
