"""Compare the benchmark results of two commits.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines bench/run.py appends to bench/out/results.jsonl,
one per run, from a checkout of one commit. For every workload and
end-to-end metric this prints each side's median and quartiles over its
untraced runs, and a verdict against the metric's bound in BENCHMARK.json:

- worse: the new median is worse than the base median by more than the bound;
- better: the new side wins at least nine tenths of all (base, new) pairs of
  runs and the medians differ by more than the base side's quartile spread;
- unresolved: neither.

The share of failed operations of both sides is shown next to each other.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] == 0:
            runs[record["workload"]].append(record["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    nm = statistics.median(new)
    if sign * (nm - bm) > bound * bm:
        return "worse"
    wins = sum(sign * (b - n) > 0 for b in base for n in new)
    if wins >= 0.9 * len(base) * len(new) and sign * (bm - nm) > b3 - b1:
        return "better"
    return "unresolved"


def share(results: list[dict]) -> str:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return f"{failed}/{attempted}" + ("" if all(r["correct"] for r in results) else " WRONG OUTPUT")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    metrics = json.loads(SPEC.read_text())["end_to_end"]
    base, new = load(argv[0]), load(argv[1])
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            print(f"{workload}: runs on one side only")
            continue
        print(f"{workload}: runs {len(base[workload])} | {len(new[workload])}   "
              f"failed {share(base[workload])} | {share(new[workload])}")
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in base[workload]]
            n = [r["metrics"][m["name"]]["value"] for r in new[workload]]
            sides = "  |  ".join("%.5g [%.5g, %.5g]" % (q[1], q[0], q[2]) for q in (quartiles(b), quartiles(n)))
            print(f"   {m['name']:<12} {m['unit']:<4} {sides}   "
                  f"{verdict(b, n, m['bound'], m['better'] == 'lower')} (bound {m['bound']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
