#!/usr/bin/env python3
"""Run one hyptube benchmark workload and print its metrics.

    python3 perfbench/run.py --workload deep-ball --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: hyptube is imported from ./src
and nowhere else.  One process, one thread, a closed loop: each operation is
one CLI command run in-process through ``hyptube.cli.run``, from argv to the
rendered report, and starts when the previous one has finished.  Whole
rounds of the workload's operations repeat until --seconds have passed.

With --trace 0 the run reports the end-to-end metrics, their times scaled
to a fixed host pace by a pace reference timed between the operations (see
``pace_reference``); the unscaled times are printed above the result.  With
--trace 1 it runs every operation twice, untraced and traced back to back,
and reports the per-layer metrics and the tracing overhead.  Every output is
then checked against the benchmark's own computations, outside the timed
region.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import model  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CUTOFF, Op  # noqa: E402

SETUP_REPEATS = 5  # before the timed rounds, and as many again after them
# The end-to-end times are scaled to the host pace at which the pace
# reference (see ``pace_reference``) takes REFERENCE_S seconds.
REFERENCE_S = 0.040
PACE_EVERY_S = 1.0
IMPORTS_PER_PROBE = 7
# Imports numpy first, then imports hyptube.cli IMPORTS_PER_PROBE times, each
# time after dropping every module that the import added, and prints the times.
IMPORT_PROBE = f"""
import sys, time
sys.path.insert(0, 'src')
import numpy
before = set(sys.modules)
for _ in range({IMPORTS_PER_PROBE}):
    for name in set(sys.modules) - before:
        del sys.modules[name]
    t = time.perf_counter()
    import hyptube.cli
    print(time.perf_counter() - t)
"""


@dataclass
class Record:
    op: Op
    op_id: int
    rc: int | None
    out: str
    seconds: float
    fault: str | None

    @property
    def failed(self) -> bool:
        return self.fault is not None or self.rc == 3


def import_hyptube(src: Path):
    sys.path.insert(0, str(src))
    import hyptube
    import hyptube.cli

    if Path(hyptube.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"hyptube was imported from {hyptube.__file__}, not from {src}")
    return hyptube


def pace_reference(wl):
    """Time fixed work of the benchmark's own code: the model's distances over
    the horizon-9 ball of shorttube, five times, in pure Python.

    The shared host's pace changes by up to 1.8x for minutes at a time, and
    hyptube's operations and this work slow down together; a time divided by
    the reference timed next to it does not follow the host.
    """
    t = time.perf_counter()
    for _ in range(5):
        model.GroupModel(wl.corpus["shorttube"].text).distances(9)
    return time.perf_counter() - t


def measure_setup(wl, hyptube, root: Path, repeats: int, samples=None):
    """Time ``repeats`` set-ups of import + input generation + parsing, each
    followed by the pace reference, and add them to ``samples``; the run
    reports the median of all its samples.

    The import of hyptube is timed in a fresh interpreter that has imported
    numpy already: numpy's own import belongs to the environment, not to
    hyptube, and its time swings with the host far more than the rest.  Each
    repeat takes the median of IMPORTS_PER_PROBE imports in its interpreter.
    """
    samples = samples if samples is not None else {"setup_s": [], "cli.import_s": [],
                                                   "cli.parse_s": [], "pace": []}
    for _ in range(repeats):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                               capture_output=True, text=True, timeout=120, check=True)
        imp = statistics.median(float(x) for x in child.stdout.split())
        t0 = time.perf_counter()
        paths = wl.setup_inputs()
        t1 = time.perf_counter()
        for p in paths:
            hyptube.cli.parse_group_file(p.read_text(encoding="utf-8"))
        t2 = time.perf_counter()
        samples["cli.import_s"].append(imp)
        samples["cli.parse_s"].append(t2 - t1)
        samples["setup_s"].append(imp + (t2 - t0))
        samples["pace"].append(pace_reference(wl))
    return samples


def run_op(hyptube, op: Op, records, tracer=None) -> Record:
    op_id = len(records)
    out, fault, rc = io.StringIO(), None, None
    if tracer is not None:
        tracer.op = op_id
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                rc = hyptube.cli.run(op.argv)
            else:
                rc = tracer.call("cli.run", "cli", hyptube.cli.run, op.argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a fault of the program: the operation failed
        fault = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    records.append(Record(op, op_id, rc, out.getvalue(), dt, fault))
    return records[-1]


def run_rounds(wl, hyptube, seconds: float, records):
    """Whole rounds until ``seconds`` have passed, with the pace reference
    timed before the first operation, after each operation that ends
    PACE_EVERY_S or more after the last reference, and after the last
    operation.  Returns the operations as (round, seconds, k), operation k
    lying between reference times k and k + 1, and the reference times."""
    ops, paces = [], [pace_reference(wl)]
    start = last = time.perf_counter()
    r = 0
    while True:
        for op in wl.round_ops(r):
            ops.append((r, run_op(hyptube, op, records).seconds, len(paces) - 1))
            if time.perf_counter() - last >= PACE_EVERY_S:
                paces.append(pace_reference(wl))
                last = time.perf_counter()
        r += 1
        if time.perf_counter() - start >= seconds:
            if ops[-1][2] == len(paces) - 1:
                paces.append(pace_reference(wl))
            return ops, paces


def round_metrics(ops, scale):
    """wall_s and op_s_p50 of operations (round, seconds, k) whose times are
    multiplied by scale(k)."""
    times = [t * scale(k) for _, t, k in ops]
    per_round = {}
    for (r, _, _), t in zip(ops, times):
        per_round[r] = per_round.get(r, 0.0) + t
    return statistics.fmean(per_round.values()), statistics.median(times)


def run_paired_rounds(wl, hyptube, seconds: float, records, tracer):
    """Whole rounds until ``seconds`` have passed, each operation run untraced
    and traced back to back, which of the two first alternating, so that the
    pair sees the same host.  Returns, per round, the traced op ids, the
    summed traced operation time and the summed untraced operation time."""
    rounds = []
    start = time.perf_counter()
    r = n = 0
    while True:
        ids, traced_s, plain_s = [], 0.0, 0.0
        for op in wl.round_ops(r):
            for traced in ((False, True) if n % 2 == 0 else (True, False)):
                if not traced:
                    plain_s += run_op(hyptube, op, records).seconds
                    continue
                undo = tracer.install(hyptube)
                try:
                    rec = run_op(hyptube, op, records, tracer)
                finally:
                    tracing.Tracer.uninstall(undo)
                ids.append(rec.op_id)
                traced_s += rec.seconds
            n += 1
        rounds.append((ids, traced_s, plain_s))
        r += 1
        if time.perf_counter() - start >= seconds:
            return rounds


def check_records(wl, records, hyptube, problems):
    memo = {}
    results = []
    for rec in records:
        if rec.failed:
            continue
        key = (tuple(rec.op.argv), rec.rc, rec.out)
        if key not in memo:
            try:
                memo[key] = wl.check(rec.op, rec.rc, rec.out, hyptube)
            except checks.CheckFailed as exc:
                problems.append(f"{rec.op.label}: {exc}")
                memo[key] = None
            except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
                problems.append(f"{rec.op.label}: unreadable output ({exc!r})")
                memo[key] = None
        if memo[key] is not None:
            results.append((rec.op, memo[key]))
    if hasattr(wl, "check_invariance"):
        try:
            wl.check_invariance(results)
        except checks.CheckFailed as exc:
            problems.append(f"conjugation invariance: {exc}")


def check_traced(tracer, records, problems):
    """Ball sizes and lift counts seen by the traced calls, which the inputs
    fix; an exhaustive verdict tests at most every multiset of its family."""
    ops = {rec.op_id: rec.op for rec in records}
    by_op = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    for op_id, spans in by_op.items():
        op = ops[op_id]
        ngens = len(op.inp.model.text.gens) if op.inp is not None else 0
        try:
            for s in spans:
                if s.name == "lifts.enumerate_elements":
                    checks.check_counts(ngens, op.horizon, s.attrs["elements"], None)
                elif s.name == "lifts.lifts_of_geodesic":
                    checks.check_counts(ngens, op.horizon, None, s.attrs["lifts"])
                elif s.name == "insulator.noncoalesceable" and \
                        s.attrs.get("kind") == "noncoalesceable" and \
                        s.attrs["basis"] == "exhaustive-triples":
                    fam = [f for f in spans
                           if f.name == "insulator.build_family" and f.start < s.start]
                    n = fam[-1].attrs["members"]
                    checks.expect(s.attrs["tested"] <= n * (n + 1) * (n + 2) // 6,
                                  f"{s.attrs['tested']} multisets tested of {n} members")
        except checks.CheckFailed as exc:
            problems.append(f"{op.label} (traced): {exc}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hyptube" / "__init__.py").is_file():
        print("perfbench: no hyptube sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        hyptube = import_hyptube(src)
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workdir = root / "perfbench" / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)
    wl = WORKLOADS[args.workload](root, workdir, args.seed)
    setup = measure_setup(wl, hyptube, root, SETUP_REPEATS)
    records = []
    problems = []
    if args.trace == 0:
        ops, paces = run_rounds(wl, hyptube, args.seconds, records)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = measure_setup(wl, hyptube, root, SETUP_REPEATS, setup)
        wall, op50 = round_metrics(ops, lambda k: 2 * REFERENCE_S / (paces[k] + paces[k + 1]))
        metrics = {
            "wall_s": wall,
            "op_s_p50": op50,
            "setup_s": statistics.median(t * REFERENCE_S / pace for t, pace
                                         in zip(setup["setup_s"], setup["pace"])),
            "peak_rss_mb": rss_mb,
        }
        wall, op50 = round_metrics(ops, lambda k: 1.0)
        paces += setup["pace"]
        print(f"unscaled: wall_s {wall:.6g} s, op_s_p50 {op50:.6g} s, setup_s "
              f"{statistics.median(setup['setup_s']):.6g} s; pace reference "
              f"{statistics.median(paces):.6g} s [{min(paces):.6g}, {max(paces):.6g}] "
              f"over {len(paces)} samples")
        declared = spec["end_to_end"]
    else:
        tracer = tracing.Tracer()
        rounds = run_paired_rounds(wl, hyptube, args.seconds, records, tracer)
        setup = measure_setup(wl, hyptube, root, SETUP_REPEATS, setup)
        metrics = tracing.layer_metrics(tracer, [(ids, op_t) for ids, op_t, _ in rounds])
        metrics["trace.overhead_s"] = statistics.median(t - p for _, t, p in rounds)
        metrics.update(tracing.hcore_replay(tracer, set(rounds[0][0]), hyptube, CUTOFF))
        metrics["cli.import_s"] = statistics.median(setup["cli.import_s"])
        metrics["cli.parse_s"] = statistics.median(setup["cli.parse_s"])
        check_traced(tracer, records, problems)
        tracer.dump(workdir / "spans.json")
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    check_records(wl, records, hyptube, problems)
    failed = sum(1 for r in records if r.failed)
    for r in records:
        if r.failed:
            print(f"failed: {r.op.label}: {r.fault or f'exit code {r.rc}'}")
    for p in problems:
        print(f"check failed: {p}")
    print(f"operations: {len(records)} attempted, {failed} failed; checks "
          f"{'passed' if not problems else 'FAILED'}")
    for k in sorted(metrics):
        print(f"  {k} = {metrics[k]:.6g} {units[k]}")
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
