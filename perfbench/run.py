#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload iot_host|offload_dsp|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout. Builds the simulator library and the
perfbench binary into .bench_build/ at the checkout root (a no-op when up
to date), then runs it. Build output goes to stderr; the last line of
stdout is the binary's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("iot_host", "offload_dsp", "serve_mixed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))

    steps = []
    if not any(os.path.exists(os.path.join(build_dir, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build logs go to stderr so stdout stays the benchmark's report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    # The binary runs in the checkout root with a relative output
    # directory: its Unix socket path must stay short.
    bench = [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--out-dir", ".bench_build"]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
