#!/usr/bin/env python3
"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the `<workload>-seed<n>-trace<t>.json` files that
`run.py` writes to perfbench/out/, typically one per seed.  For every
workload and metric this prints the median and quartiles of each side, the
change of the medians as a share of the BEFORE median, the metric's bound
from BENCHMARK.json, and whether the per-instance output digests agree.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """{(workload, trace): {"metrics": {name: [values]}, "digests": {...}}}"""
    groups: dict = {}
    for path in sorted(Path(directory).glob("*-seed*-trace*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        group = groups.setdefault((record["workload"], record["trace"]),
                                  {"metrics": {}, "digests": {}})
        for name, metric in record["result"]["metrics"].items():
            group["metrics"].setdefault(name, []).append(metric["value"])
        for outcomes in record["passes"]:
            for o in outcomes:
                group["digests"].setdefault(o["name"], set()).add(
                    tuple(sorted(o["digests"].items())))
    return groups


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    meta = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    before, after = load(argv[0]), load(argv[1])
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        print(f"== {key[0]} (trace {key[1]})")
        for name in b["metrics"]:
            if name not in a["metrics"]:
                continue
            bq, aq = quartiles(b["metrics"][name]), quartiles(a["metrics"][name])
            change = (aq[1] - bq[1]) / bq[1] if bq[1] else float("nan")
            m = meta.get(name, {})
            print(f"{name:34} {bq[1]:11.5g} [{bq[0]:.5g}, {bq[2]:.5g}] -> "
                  f"{aq[1]:11.5g} [{aq[0]:.5g}, {aq[2]:.5g}] {change:+7.1%} "
                  f"{m.get('unit', '')} better={m.get('better', '?')} "
                  f"bound={m.get('bound', '-')}")
        same = b["digests"] == a["digests"]
        print(f"output digests {'unchanged' if same else 'CHANGED'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
