#!/usr/bin/env python3
"""Run every workload over several seeds and summarise the runs.

    python3 perfbench/suite.py --out perfbench/_work/runs-parent --seeds 1-10

Each run is ``perfbench/run.py`` in its own process, one after another: all
seeds of one workload, then the next workload, for every workload and with
the run length of BENCHMARK.json.  Each run's standard output is
saved as ``<workload>-s<seed>-t<trace>.out`` in --out.  The summary
(``compare.py`` on that directory) prints each metric by name and unit with
its median, quartiles and spread, and the operations attempted and failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default="1-10", type=seeds, help="a seed or a range such as 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    args.out.mkdir(parents=True, exist_ok=True)
    for w in sorted(WORKLOADS):
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            out = args.out / f"{w}-s{seed}-t{args.trace}.out"
            with out.open("w") as fh:
                proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, timeout=900)
            last = out.read_text().strip().splitlines()[-1:]
            print(f"{w} seed {seed}: exit {proc.returncode} {last[0][:100] if last else ''}",
                  flush=True)
    compare.main([str(args.out)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
