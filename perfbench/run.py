#!/usr/bin/env python3
"""Build bench_suite from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--quick] [--pins <file>]

Run it from the root of a checkout. The first run configures and builds
perfbench/bench_suite (and the libraries it links) into $CARGO_TARGET_DIR,
default .bench_build; later runs only re-check the build. Build output
goes to stderr, so the last line of stdout is bench_suite's JSON result.
Scratch files stay under .bench_work. Exits non-zero, without a result,
when the sources or the build are missing.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout, stdout=None):
    """Runs cmd in its own process group; kills the whole group on
    timeout and always waits for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{os.path.basename(cmd[0])} timed out after {timeout}s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no telcochurn sources beside perfbench/; run from a checkout")
    cmake = shutil.which("cmake") or fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            if call([cmake, "-S", os.path.join(ROOT, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release", *generator],
                    BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
                fail("cmake configure failed")
        jobs = str(min(os.cpu_count() or 1, 4))
        if call([cmake, "--build", build_dir, "--target", "bench_suite",
                 "-j", jobs], BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            fail("build failed")
    return os.path.join(build_dir, "bench_suite")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True)
    args, extra = parser.parse_known_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    sys.stdout.flush()
    return call([binary, "--workload", args.workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", args.trace,
                 "--pins", os.path.join(ROOT, "perfbench", "pins.json"),
                 *extra], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
