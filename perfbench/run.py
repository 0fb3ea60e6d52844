#!/usr/bin/env python3
"""End-to-end benchmark of precis_serve, one workload per run.

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all   # untraced, then traced
    python3 perfbench/run.py --test           # the benchmark's own unit tests

Builds the repository from source (Release, into $CARGO_TARGET_DIR or
.bench_build), then runs the perfbench program with the workload's
settings from perfbench/spec.json. It launches precis_serve itself and
prints the metrics; the last line of stdout is the JSON result. Run from
the root of a source checkout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room to report a timeout.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, targets):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", *targets], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools/precis_serve.cc"):
        if not (ROOT / needed).exists():
            fail(f"{ROOT / needed} is missing: run from a precis source tree")
    spec = json.loads((HERE / "spec.json").read_text())

    out_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out_dir.is_absolute():
        out_dir = ROOT / out_dir
    build_dir = out_dir / "perfbench"
    try:
        if args.test:
            build(build_dir, ["perfbench_test"])
            tests = subprocess.run([str(build_dir / "perfbench_test")])
            sys.exit(tests.returncode)
        if args.workload != "all" and args.workload not in spec["workloads"]:
            fail(f"unknown workload {args.workload!r} "
                 f"(all, or one of {', '.join(spec['workloads'])})")
        build(build_dir, ["perfbench", "precis_serve"])
    except subprocess.CalledProcessError as error:
        fail(f"build failed: {error}")

    if args.workload != "all":
        sys.exit(run_workload(spec, args.workload, args.seed, args.seconds,
                            args.trace, out_dir, build_dir))
    codes = [run_workload(spec, name, args.seed, args.seconds, trace, out_dir,
                        build_dir)
             for name in spec["workloads"] for trace in (0, 1)]
    sys.exit(max(codes))


def run_workload(spec, name, seed, seconds, trace, out_dir, build_dir):
    workload = spec["workloads"][name]
    if seed is None:
        seed = workload["default_seed"]
    command = [
        str(build_dir / "perfbench"),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--movies", str(workload["films"]),
        "--mix", workload["mix"],
        "--nominal-qps", str(workload["nominal_qps"]),
        "--limit-ms", str(workload["latency_limit_ms"]),
        "--ramp-start-qps", str(workload["ramp_start_qps"]),
        "--serve", str(build_dir / "precis" / "tools" / "precis_serve"),
        "--trace-out", str(out_dir / "traces"),
    ]
    for flag in workload["serve_flags"]:
        command += ["--serve-arg", flag]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    main()
