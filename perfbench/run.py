#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload offline --seed 1 --seconds 10 --trace 0

The build directory is $CARGO_TARGET_DIR when set, else .bench_build; it is
configured once (CMake, Release) and brought up to date before every run.
Build output goes to stderr, so the last line of stdout is the result
object printed by the binary. Extra flags (--smoke, --force-mismatch) are
passed through. Exits non-zero without a result when the sources are
missing or the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_digest():
    """Digest of every source file the binary is built from."""
    h = hashlib.sha256()
    for top in (SOURCES, HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def build(out):
    if not os.path.isfile(os.path.join(SOURCES, "CMakeLists.txt")):
        sys.stderr.write("perfbench: library sources not found at %s\n" % SOURCES)
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(out, ignore_errors=True)
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", out, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main(argv):
    out = build_dir()
    if not build(out):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    args = list(argv)
    if "--revision" not in args:
        args += ["--revision", "src-" + source_digest()]
    if "--work-dir" not in args:
        args += ["--work-dir", os.path.join(out, "work")]
    binary = os.path.join(out, "cadrl_perfbench")
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
