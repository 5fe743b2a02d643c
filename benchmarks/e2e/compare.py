"""Compare two sets of benchmark runs, one row per (metric, workload).

    python3 benchmarks/e2e/run.py --out A.jsonl     # repeat with other --seed values
    python3 benchmarks/e2e/run.py --out B.jsonl
    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

Each file holds one JSON result per line, as ``run.py --out`` appends them.
A row prints both medians (with the first and third quartile when a side
has at least two runs), the ratio B/A with A as its base, the regression
bound from ``BENCHMARK.json`` and a verdict:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over median) of
  either side is wider than the bound, so the runs cannot tell, unless every
  run of B reads better than every run of A;
* ``ok``         -- otherwise.

Per-layer metrics have no bound: they are listed with their ratio only.
Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """``(metric, workload) -> values`` over every run in a JSON-lines file."""
    samples: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            for metric, entry in run["metrics"].items():
                samples.setdefault((metric, run["workload"]), []).append(entry["value"])
    return samples


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    q1, q3 = quartiles(values)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / abs(base) if base else 0.0
    if max(spread(a), spread(b)) > bound:
        all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return "ok" if all_better else "unresolved"
    return "worse" if worse_by > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a_runs, b_runs = load(argv[0]), load(argv[1])
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in declaration["end_to_end"] + declaration["per_layer"]}

    def cell(values):
        middle = statistics.median(values)
        if len(values) < 2:
            return f"{middle:.6g}"
        q1, q3 = quartiles(values)
        return f"{middle:.6g} [{q1:.6g}, {q3:.6g}]"

    status = 0
    print("metric workload A B ratio(B/A, base A) bound verdict")
    for key in sorted(set(a_runs) & set(b_runs)):
        metric, workload = key
        a, b = a_runs[key], b_runs[key]
        base = statistics.median(a)
        ratio = f"{statistics.median(b) / base:.4f}" if base else "n/a"
        entry = declared.get(metric, {})
        if "bound" in entry:
            result = verdict(a, b, entry["better"], entry["bound"])
            bound = f"{entry['bound']:g}"
        else:
            result, bound = "-", "-"
        if result == "worse":
            status = 1
        print(f"{metric} {workload} {cell(a)} {cell(b)} {ratio} {bound} {result}")
    for key in sorted(set(a_runs) ^ set(b_runs)):
        print(f"{key[0]} {key[1]} only in {'A' if key in a_runs else 'B'}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
