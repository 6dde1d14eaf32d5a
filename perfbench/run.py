#!/usr/bin/env python3
"""Builds the tcf benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and compiles perfbench/ (the library sources
under src/ plus the benchmark driver) into .bench_build/ with CMake in
Release mode; later calls only re-check the build. The benchmark binary
then replaces this process: its standard output ends with the result
JSON line. Build output goes to standard error.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "tcf_perfbench")


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "tc_tree.h")):
        fail(f"no tcf sources under {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", CMAKE_DIR, "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    build()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    sys.stdout.flush()
    os.execv(BINARY, [BINARY, *sys.argv[1:], "--work-dir", work])


if __name__ == "__main__":
    main()
