#!/usr/bin/env python3
"""Builds and runs the end-to-end TDB benchmark.

    python3 perfbench/run.py --workload tpcb|ycsb_b|ycsb_e --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds the library from ../src together with the benchmark (an optimized
CMake build in .bench_build/perfbench); later runs only check that build
is current. Build output appears (on stderr) only when the build fails, so
the last line of stdout is the benchmark's result object. Trace exports
land in .bench_build/traces.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
TRACE_DIR = os.path.join(BUILD_ROOT, "traces")
BINARY = os.path.join(BUILD_DIR, "tdb_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_child(cmd, timeout, **kwargs):
    """Runs cmd to completion; the child never outlives this process."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, out


def run_step(cmd, timeout):
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    code, out = run_child(cmd, timeout, stderr=subprocess.STDOUT,
                          env=dict(os.environ, TMPDIR=tmp))
    if code != 0:
        sys.stderr.write(out.decode(errors="replace")[-4000:])
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"),
             2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "tdb_perfbench"], BUILD_TIMEOUT_S)


def revision():
    """The git revision, or a digest of the sources when not in git."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
        if done.returncode == 0:
            return done.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["tpcb", "ycsb_b", "ycsb_e"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", TRACE_DIR, "--revision", revision()]
    code, out = run_child(cmd, RUN_TIMEOUT_S)
    if code != 0:
        fail("benchmark exited with code %d" % code)
    sys.stdout.write(out.decode())
    sys.stdout.flush()


if __name__ == "__main__":
    main()
