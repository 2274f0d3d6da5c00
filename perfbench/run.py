#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a tsufail checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

The build (an optimized CMake build of src/, the tsufail CLI and the
perfbench program) goes to .bench_build/perfbench; generated inputs go to
a per-run directory under .bench_build/work that is removed afterwards.
Build output goes to stderr, so the last stdout line is the program's
JSON result.
"""
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_ROOT = os.path.join(".bench_build", "work")
TMP_DIR = os.path.join(".bench_build", "tmp")


def build(root, env):
    build_dir = os.path.join(root, BUILD_DIR)
    configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", "4",
                    "--target", "perfbench", "tsufail"], check=True, stdout=sys.stderr, env=env)
    return build_dir


def main():
    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "tools/tsufail_main.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found; run from the root of a tsufail checkout",
                  file=sys.stderr)
            return 2
    # Compilers and perfbench keep their temporary files in the checkout.
    tmp_dir = os.path.join(root, TMP_DIR)
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build_dir = build(root, env)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1

    work_dir = os.path.join(root, WORK_ROOT, str(os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        command = [os.path.join(build_dir, "perfbench"), *sys.argv[1:],
                   "--work-dir", work_dir, "--tsufail", os.path.join(build_dir, "tsufail")]
        return subprocess.run(command, env=env).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
