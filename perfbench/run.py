#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
APE libraries and the `apebench` program (perfbench/CMakeLists.txt) into
.bench_build/ at the checkout root; later runs only re-check the build.
The program's standard output is passed through; its last line is the
result JSON. Exits nonzero, without a result, when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(os.getcwd(), ".bench_build")
BUILD_TREE = os.path.join(BUILD, "cmake")
WORKDIR = os.path.join(BUILD, "out")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """git SHA when available, else a digest of the library and benchmark sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha1:" + h.hexdigest()


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to perfbench/ (run from a full checkout)")
    os.makedirs(BUILD_TREE, exist_ok=True)
    log = open(os.path.join(BUILD, "build.log"), "a")
    if not os.path.isfile(os.path.join(BUILD_TREE, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_TREE, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
            shutil.rmtree(BUILD_TREE, ignore_errors=True)
            fail("cmake configure failed (see .bench_build/build.log)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_TREE, "--target", "apebench", "-j", jobs]
    if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
        fail("build failed (see .bench_build/build.log)")
    return os.path.join(BUILD_TREE, "apebench")


def main():
    exe = build()
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [exe] + sys.argv[1:] + ["--workdir", WORKDIR, "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
