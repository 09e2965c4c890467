#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 noisebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
analyzer library and the noisebench program (Release) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only rebuild what changed.
Build output goes to standard error, so the last line of standard output is
the program's JSON result. Any other arguments (--smoke, --tamper-digest,
--trace-out FILE) are passed to the program. Exits non-zero, without a
result, when the build fails.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def source_digest():
    """SHA-256 over the analyzer and benchmark sources (the checkout the
    benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unavailable"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    r = subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                        "noisebench"], stdout=sys.stderr)
    return r.returncode == 0


def main(argv):
    bdir = build_dir()
    if not build(bdir):
        print("noisebench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(bdir, "noisebench")
    args = [exe] + argv + ["--work-dir", os.path.join(bdir, "work"),
                           "--commit", commit(),
                           "--source-digest", source_digest()]
    if "--trace-out" not in argv and "--trace" in argv:
        i = argv.index("--trace")
        if i + 1 < len(argv) and argv[i + 1] == "1":
            args += ["--trace-out", os.path.join(bdir, "trace.json")]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("noisebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
