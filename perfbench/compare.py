"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files ``run.py`` writes to
``<out-dir>/results/``.  Untraced results pair up by workload and seed.
Two sets whose environments differ (processor, Python, NumPy, CPU count,
numba, BLAS threads or size) are refused with exit code 2: their numbers
do not compare.  Otherwise, for every workload and end-to-end metric,
this prints both medians over seeds and the change as a share of the
base median, and exits 1 when a metric got worse by more than its bound
in ``BENCHMARK.json``.  The outputs ``ta`` and ``yield_pct`` repeat
exactly on a seed, so they are compared seed by seed instead: the worst
change on any seed counts, against ``OUTPUT_BOUND``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import ENV_KEYS, HERE

#: Metrics that are outputs, not timings, and their bound per seed.  The
#: bounds in ``BENCHMARK.json`` must cover their spread over seeds.
OUTPUTS = ("ta", "yield_pct")
OUTPUT_BOUND = 0.01


def load(directory: Path) -> dict[tuple, dict]:
    """Untraced results by (workload, seed)."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        run = json.loads(path.read_text())
        runs[(run["workload"], run["env"]["seed"])] = run
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(Path(a)) for a in argv)
    if not base or set(base) != set(new):
        print("refused: the two sets do not hold the same workloads and seeds",
              file=sys.stderr)
        return 2
    for key in base:
        a, b = (runs[key]["env"] for runs in (base, new))
        differ = [k for k in ENV_KEYS if a[k] != b[k]]
        if differ:
            print(f"refused: {key} ran in different environments ({differ})",
                  file=sys.stderr)
            return 2
        if not (base[key]["result"]["correct"] and new[key]["result"]["correct"]):
            print(f"refused: {key} has outputs that failed their checks", file=sys.stderr)
            return 2

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    worse = 0
    for workload in sorted({key[0] for key in base}):
        keys = [k for k in base if k[0] == workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            sign = 1 if metric["better"] == "lower" else -1

            def value(runs, key):
                return runs[key]["result"]["metrics"][name]["value"]

            before = statistics.median(value(base, k) for k in keys)
            after = statistics.median(value(new, k) for k in keys)
            if name in OUTPUTS:
                bound = OUTPUT_BOUND
                change = max(
                    ((value(new, k) - value(base, k)) / value(base, k) for k in keys),
                    key=lambda c: sign * c,
                )
            else:
                bound = metric["bound"]
                change = (after - before) / before
            verdict = "worse" if sign * change > bound else "ok"
            worse += verdict == "worse"
            print(f"{workload:16} {name:14} {before:12.5g} {after:12.5g} "
                  f"{100 * change:+7.2f}%  {verdict} (bound {100 * bound:.0f}%, "
                  f"{len(keys)} seeds)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
