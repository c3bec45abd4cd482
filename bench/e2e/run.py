#!/usr/bin/env python3
"""Build and run the seeded end-to-end benchmark (see README.md).

    python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1

Run it from the root of a checkout. The first run configures and builds
the library and bench/e2e into $CARGO_TARGET_DIR/e2e (default
.bench_build/e2e); later runs only re-check the build. The arguments go to
sevuldet_bench unchanged, and the last line of standard output is its
result JSON. Build output goes to standard error.
"""
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# A run must end within 180 s; the bench gets what is left after the build.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no sevuldet sources under %s/src; cannot build the benchmark" % ROOT)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target", "sevuldet_bench"],
                       stdout=sys.stderr, check=True)


def main():
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "e2e")
    try:
        build(build_dir)
    except subprocess.CalledProcessError as error:
        sys.exit("run.py: building the benchmark failed (%s)" % error)
    work = os.path.join(build_root, "work", "run-%d" % os.getpid())
    command = [os.path.join(build_dir, "sevuldet_bench")] + sys.argv[1:] + ["--work", work]
    # Own process group, so a timeout or a signal stops the bench and the
    # daemon it started together.
    bench = subprocess.Popen(command, start_new_session=True)

    def stop(*_):
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        sys.exit("run.py: benchmark stopped")

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()


if __name__ == "__main__":
    sys.exit(main())
