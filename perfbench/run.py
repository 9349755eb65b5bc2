#!/usr/bin/env python3
"""Builds the benchmark from the repository's sources and runs one workload.

    python3 perfbench/run.py --workload {tune_sweep|cast_aware|service}
                             --seed N --seconds S --trace {0|1}

Run from the repository root. The build goes to .bench_build/perfbench (a
Release build of ../src plus the benchmark's own sources; the first run
configures and compiles it, later runs only check it is up to date). The
benchmark's self-tests run before every workload. The last line of standard
output is the result JSON; build and self-test output go to standard error.
A traced run (--trace 1) also writes its spans as Chrome trace-event JSON to
.bench_build/traces/<workload>-seed<N>.json.

Exit code: the workload's (0 when every output verified, 1 when a check
failed); 2 when the library sources are missing or the build fails.
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("tune_sweep", "cast_aware", "service")
WORKLOAD_LIMIT_S = 170  # a workload must end within 180 s of its start


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(bench_dir: Path, build_dir: Path) -> None:
    def step(cmd):
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        sys.stderr.write(done.stdout)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")

    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release", *generator])
    step(["cmake", "--build", str(build_dir), "--parallel", "4"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "tuning" / "search.hpp").is_file():
        fail(f"library sources not found under {root / 'src'}")
    build_dir = root / ".bench_build" / "perfbench"
    build(bench_dir, build_dir)

    selftest = subprocess.run([str(build_dir / "perfbench_selftest")],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(selftest.stdout)
    if selftest.returncode != 0:
        fail("benchmark self-tests failed", code=1)

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = root / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=WORKLOAD_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"the workload did not finish within {WORKLOAD_LIMIT_S} s", code=1)
    return 1


if __name__ == "__main__":
    sys.exit(main())
