#!/usr/bin/env python3
"""Builds the TOSS benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The driver and the TOSS sources under src/
are compiled (Release) into .bench_build/ on first use; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the driver's JSON result. Traces and the ingest workload's temporary
database also live under .bench_build/. Exits non-zero, without a result,
when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "tossbench")
# The run itself bounds its own length; this is a backstop.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def main():
    build()
    args = [BINARY] + sys.argv[1:] + [
        "--trace-dir", os.path.join(BUILD, "traces"),
        "--tmp-dir", os.path.join(BUILD, "tmp"),
    ]
    try:
        proc = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark run timed out")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
