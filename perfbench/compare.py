"""Print benchmark result files side by side.

Usage: python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds one JSON record per run, as ``run.py --out FILE`` appends
them. For every workload and metric the table shows each side's run count,
median and quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median. With two files
it also shows the change of the median as a share of the base median and,
for end-to-end metrics, flags a change that is worse than the metric's bound
in BENCHMARK.json.
"""

import json
import os
import statistics
import sys
from collections import defaultdict


def load(path):
    """{(workload, metric): {"unit":..., "values": [...]}} from one JSONL file."""
    out = defaultdict(lambda: {"unit": None, "values": []})
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                cell = out[(rec["env"]["workload"], name)]
                cell["unit"] = m["unit"]
                cell["values"].append(m["value"])
    return out


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("nan")
    return med, q1, q3, spread


def bounds(path="BENCHMARK.json"):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def fmt(values):
    med, q1, q3, spread = summary(values)
    return f"{len(values):>3} {med:>12.5g} [{q1:.5g}, {q3:.5g}] {spread:>6.1%}"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(p) for p in argv]
    spec = bounds()
    keys = sorted(set().union(*sides))
    head = f"{'workload':<14} {'metric':<40} {'unit':<6} {'n':>3} {'median':>12} [q1, q3] spread"
    if len(sides) == 2:
        head += "  |  change side  |  change"
    print(head)
    for workload, name in keys:
        cells = [s.get((workload, name)) for s in sides]
        unit = next(c["unit"] for c in cells if c)
        row = f"{workload:<14} {name:<40} {unit:<6} "
        row += fmt(cells[0]["values"]) if cells[0] else "(absent)"
        if len(sides) == 2:
            row += "  |  " + (fmt(cells[1]["values"]) if cells[1] else "(absent)")
            if cells[0] and cells[1]:
                base = statistics.median(cells[0]["values"])
                change = statistics.median(cells[1]["values"]) / base - 1.0 if base else 0.0
                row += f"  |  {change:+.1%}"
                m = spec.get(name)
                if m:
                    worse = change if m["better"] == "lower" else -change
                    if worse > m["bound"]:
                        row += f"  WORSE than bound {m['bound']:.0%}"
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
