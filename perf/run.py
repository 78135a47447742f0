#!/usr/bin/env python3
"""Builds the trichroma benchmark from source and runs it.

Run from the repository root:

    python3 perf/run.py --workload catalog_cold --seed 1 --seconds 25 --trace 0
    python3 perf/run.py --smoke

The first call configures and builds perf/ (which compiles the library from
src/) into .bench_build/perf; later calls only rebuild what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero, printing no result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perf")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "trichroma_perf")


def build():
    """Configures (once) and builds the benchmark binary; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", BUILD_DIR, "--target", "trichroma_perf", "-j", "2"]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not build():
        print("perf/run.py: build failed", file=sys.stderr)
        return 1
    args = [BINARY] + sys.argv[1:] + ["--work-dir", WORK_DIR]
    if "--smoke" not in sys.argv[1:]:
        args += ["--commit", commit()]
    sys.stdout.flush()
    os.execv(BINARY, args)


if __name__ == "__main__":
    sys.exit(main())
