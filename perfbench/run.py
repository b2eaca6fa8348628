#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload plasticity|synapse|serving \
        --seed <n> --seconds <s> --trace 0|1

Configures and builds perfbench (and the library it links) from source into
.bench_build/perfbench under the repository root, then runs one measurement.
Build output goes to stderr; the benchmark's report goes to stdout, whose
last line is the JSON result. Exits nonzero, without a result, if the build
or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    build_dir = root / ".bench_build" / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1

    cmd = [str(build_dir / "perfbench")] + sys.argv[1:]
    cmd += ["--spans-dir", str(build_dir)]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
