#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two.

    python3 perfbench/compare.py RUNS                  # one set: spread per metric
    python3 perfbench/compare.py PARENT_RUNS CHANGE_RUNS

A set of runs is a directory of saved ``run.py`` outputs (``suite.py --out``
writes them).  For each workload and end-to-end metric the comparison prints
both sides' medians and quartiles, the share of seed-matched pairs the
change won, and a verdict against the metric's bound in BENCHMARK.json:

  worse       the change's median is worse than the parent's by more than the bound
  improved    the change won at least 9 in 10 pairs and the medians differ by
              more than the parent's own quartile distance
  unresolved  the parent's quartile distance is wider than the bound, and not
              every change run is better than every parent run
  unchanged   otherwise

It also prints the operations attempted and failed per workload.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HEADER = re.compile(r"^perfbench: workload=(\S+) seed=(-?\d+) .*trace=(\d)$")


def load(directory: Path):
    """{workload: {seed: result}} for the untraced runs in ``directory``."""
    runs = {}
    for path in sorted(Path(directory).glob("*.out")):
        lines = path.read_text().strip().splitlines()
        head = next((m for m in map(HEADER.match, lines) if m), None)
        if head is None or head.group(3) != "0" or not lines[-1].startswith("{"):
            continue
        runs.setdefault(head.group(1), {})[int(head.group(2))] = json.loads(lines[-1])
    return runs


def bounds():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def ops_line(results) -> str:
    att = [r["attempted"] for r in results]
    fail = [r["failed"] for r in results]
    shares = sorted({f"{f}/{a}" for a, f in zip(att, fail)})
    ok = all(r["correct"] for r in results)
    return (f"{sum(att)} attempted, {sum(fail)} failed over {len(results)} runs "
            f"(per run: {', '.join(shares)}); checks {'passed' if ok else 'FAILED'}")


def summarise(runs, spec) -> bool:
    steady = True
    for w in sorted(runs):
        results = list(runs[w].values())
        print(f"{w}: {ops_line(results)}")
        for name, m in spec.items():
            v = values(results, name)
            q1, med, q3 = quartiles(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] else "  SPREAD ABOVE BOUND"
            steady &= not flag
            print(f"  {name:12s} median {med:.6g} {m['unit']}  quartiles {q1:.6g} .. {q3:.6g}  "
                  f"spread {spread:.3f} (bound {m['bound']}){flag}")
    return steady


def verdict(parent, change, m) -> tuple:
    sign = 1.0 if m["better"] == "lower" else -1.0
    pairs = [(parent[s], change[s]) for s in sorted(set(parent) & set(change))]
    if not pairs:
        pairs = list(zip(parent.values(), change.values()))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_vals, c_vals = list(parent.values()), list(change.values())
    pq1, pmed, pq3 = quartiles(p_vals)
    cmed = statistics.median(c_vals)
    worse_by = sign * (cmed - pmed) / pmed
    if worse_by > m["bound"]:
        kind = "worse"
    elif pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1 and worse_by < 0:
        kind = "improved"
    elif (pq3 - pq1) / pmed > m["bound"] and not all(
            sign * (p - c) > 0 for p in p_vals for c in c_vals):
        kind = "unresolved"
    else:
        kind = "unchanged"
    return kind, wins, len(pairs)


def compare(parent_runs, change_runs, spec):
    for w in sorted(set(parent_runs) | set(change_runs)):
        print(f"{w}:")
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            line = ops_line(list(runs[w].values())) if w in runs else "no runs"
            print(f"  {side}: {line}")
        if w not in parent_runs or w not in change_runs:
            continue
        for name, m in spec.items():
            par = {s: r["metrics"][name]["value"] for s, r in parent_runs[w].items()}
            chg = {s: r["metrics"][name]["value"] for s, r in change_runs[w].items()}
            kind, wins, n = verdict(par, chg, m)
            pq = quartiles(list(par.values()))
            cq = quartiles(list(chg.values()))
            print(f"  {name:12s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {m['unit']}  "
                  f"won {wins}/{n}  {kind}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = bounds()
    if len(args) == 1:
        return 0 if summarise(load(Path(args[0])), spec) else 1
    compare(load(Path(args[0])), load(Path(args[1])), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
