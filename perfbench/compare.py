"""Compare two sets of untraced benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more runs, concatenated. For
every workload and end-to-end metric the script prints the median of each
side, the change as a share of the base median (positive means worse) and
whether it stays within the metric's bound from BENCHMARK.json. It refuses
(exit code 2) traced runs, whose timings include the tracing overhead, and
runs whose BLAS thread counts differ.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_runs(text):
    """(env, result) for every run in a concatenated standard output."""
    runs, env = [], None
    for line in text.splitlines():
        if line.startswith("env "):
            env = json.loads(line[4:])
        elif line.startswith('{"correct"') and env is not None:
            runs.append((env, json.loads(line)))
            env = None
    return runs


def compare(base, new, end_to_end):
    """Rows (workload, metric, base median, new median, worse-by share, within
    bound); raises ValueError for runs that must not be compared."""
    runs = base + new
    if any(env["trace"] for env, _ in runs):
        raise ValueError("traced runs are not compared; use --trace 0 runs")
    threads = {env["blas_threads"] for env, _ in runs}
    if len(threads) > 1:
        raise ValueError(f"BLAS thread counts differ between runs: {sorted(threads)}")
    rows = []
    for workload in sorted({env["workload"] for env, _ in runs}):
        for spec in end_to_end:
            name = spec["name"]
            side = [
                statistics.median(r["metrics"][name]["value"] for env, r in group if env["workload"] == workload)
                for group in (base, new)
            ]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (side[1] - side[0]) / side[0]
            rows.append((workload, name, side[0], side[1], worse, worse <= spec["bound"]))
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    base, new = (parse_runs(Path(p).read_text(encoding="utf-8")) for p in argv)
    try:
        rows = compare(base, new, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for workload, name, b, n, worse, ok in rows:
        print(f"{workload:9s} {name:12s} base {b:.6g} new {n:.6g} worse by {worse:+.3f} {'ok' if ok else 'BEYOND BOUND'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
