"""Benchmark entry point. Run it from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

It imports grasspack from ``src/`` of the same tree and nowhere else, so it
refuses to run (exit code 2) in a tree without the sources.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "grasspack" / "__init__.py").is_file():
        print(f"error: no grasspack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the kernels are small, so extra BLAS threads only add overhead; a fixed
    # count also keeps runs on different machines comparable
    threads = str(min(os.cpu_count() or 1, 2))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
