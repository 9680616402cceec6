"""Compare two result files written by ``run.py --out``.

For every workload and metric it prints the median of each side, the ratio
change / base, and a label from the benchmark's own bounds:

* unresolved: the spread of either side (interquartile range over median)
  is wider than the bound, unless every change run beats every base run;
* worse / improved: the medians differ by more than the bound;
* unchanged: otherwise.

Per-layer metrics have no bound; they are printed with their ratio only.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path):
    """(workload, trace) -> metric -> values over the runs in the file."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, metric in rec["result"]["metrics"].items():
                    runs[rec["workload"], rec["trace"]][name].append(metric["value"])
    return runs


def spread(values):
    """Interquartile range as a share of the median; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def label(spec, base, change):
    sign = 1 if spec["better"] == "lower" else -1
    b, c = statistics.median(base), statistics.median(change)
    if max(spread(base), spread(change)) > spec["bound"]:
        all_better = all(sign * (x - y) < 0 for x in change for y in base)
        return "improved" if all_better else "unresolved"
    worse_by = sign * (c - b) / b
    if worse_by > spec["bound"]:
        return "worse"
    if worse_by < -spec["bound"]:
        return "improved"
    return "unchanged"


def main(spec, base_path, change_path):
    base, change = load(base_path), load(change_path)
    metrics = [(0, m) for m in spec["end_to_end"]] + [(1, m) for m in spec["per_layer"]]
    print(f"base: {base_path}\nchange: {change_path}")
    print(f"{'workload':10} {'metric':44} {'base':>12} {'change':>12} {'change/base':>12}  label")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, m in metrics:
            a = base.get((workload, trace), {}).get(m["name"])
            b = change.get((workload, trace), {}).get(m["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:12.4f}" if ma else f"{'-':>12}"
            verdict = label(m, a, b) if "bound" in m else "no bound"
            runs = f"{len(a)}/{len(b)} runs"
            print(f"{workload:10} {m['name']:44} {ma:12.6g} {mb:12.6g} {ratio}  {verdict} ({runs}, {m['unit']})")
