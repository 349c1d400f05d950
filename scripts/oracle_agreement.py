#!/usr/bin/env python3
"""Compare the exact separation test against the raster flood-fill oracle.

Samples random 3-circle instances on the sphere (rejection-sampled so every
tangency gap and point-circle distance clears a margin), decides each one on
its discs in the chart with p at infinity and q at 0 and with the raster,
and reports the agreement rate plus timing.  Disagreements are printed with
enough data to reproduce.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from hyptube.insulator import separating_triple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import random_circle_instance, to_discs  # noqa: E402
from raster_oracle import flood_fill_oracle  # noqa: E402
from sphere import to_sphere_plane  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=500)
    ap.add_argument("--resolution", type=int, default=512)
    ap.add_argument("--margin", type=float, default=0.04)
    ap.add_argument("--seed", type=int, default=20260823)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    agree = disagree = excluded = 0
    t0 = time.perf_counter()
    for k in range(args.instances):
        circles, p, q = random_circle_instance(rng, margin=args.margin)
        res = separating_triple(to_discs(circles, p, q))
        exact = res.triple is not None
        if res.flagged > 0:
            excluded += 1
            continue
        raster = flood_fill_oracle(
            circles, p, q, resolution=args.resolution, seed=args.seed + k
        )
        if exact == raster:
            agree += 1
        else:
            disagree += 1
            planes = [to_sphere_plane(c) for c in circles]
            print(f"DISAGREE at instance {k}: exact={exact} raster={raster}")
            print(f"  planes: {planes}")
            print(f"  p={p} q={q}")
    dt = time.perf_counter() - t0
    tested = agree + disagree
    print(
        f"{agree}/{tested} agree, {excluded} near-tangent excluded, "
        f"resolution {args.resolution}, {dt:.1f}s"
    )
    return 0 if disagree == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
