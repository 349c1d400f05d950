"""Raster flood-fill oracle for the separation decision, used by the tests
and by scripts/oracle_agreement.py as an independent check of
hyptube.insulator.separating_triple."""

import math

import numpy as np
from scipy import ndimage

from hyptube.hcore import IdealPoint
from sphere import to_sphere_plane


class GuardBandSwallowedPoint(ValueError):
    """A query point fell inside the raster oracle's guard band."""


def flood_fill_oracle(
    circles,
    p: IdealPoint,
    q: IdealPoint,
    resolution: int = 512,
    seed: int = 0,
    guard_factor: float = 1.5,
) -> bool:
    """Raster check of separation: True iff p and q land in different
    connected regions of a spherical grid with circle guard bands removed.

    The grid is randomly rotated from the seed to decorrelate alignment
    artifacts.  Intended as an independent test oracle for separating_triple.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(3, 3))
    rot, _ = np.linalg.qr(mat)
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]

    nth, nph = resolution, 2 * resolution
    theta = (np.arange(nth) + 0.5) * math.pi / nth
    phi = (np.arange(nph) + 0.5) * 2.0 * math.pi / nph
    st, ct = np.sin(theta)[:, None], np.cos(theta)[:, None]
    cp, sp = np.cos(phi)[None, :], np.sin(phi)[None, :]
    grid = np.stack(
        [st * cp, st * sp, np.broadcast_to(ct, (nth, nph))], axis=-1
    )  # (nth, nph, 3)

    guard = guard_factor * math.pi / resolution
    blocked = np.zeros((nth, nph), dtype=bool)
    for c in circles:
        n, h = to_sphere_plane(c)
        nv = rot @ np.array(n)
        beta = math.acos(max(-1.0, min(1.0, h)))
        alpha = np.arccos(np.clip(grid @ nv, -1.0, 1.0))
        blocked |= np.abs(alpha - beta) < guard

    def cell_of(pt):
        u = rot @ np.array(pt.sphere_point())
        th = math.acos(max(-1.0, min(1.0, u[2])))
        ph = math.atan2(u[1], u[0]) % (2.0 * math.pi)
        i = min(nth - 1, int(th / (math.pi / nth)))
        j = min(nph - 1, int(ph / (2.0 * math.pi / nph)))
        return i, j

    ip, jp = cell_of(p)
    iq, jq = cell_of(q)
    if blocked[ip, jp] or blocked[iq, jq]:
        raise GuardBandSwallowedPoint("query point inside guard band")

    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    labels, _ = ndimage.label(~blocked, structure=structure)

    # merge across the azimuthal seam
    merges = {}

    def union(a, b):
        ra, rb = find_label(a), find_label(b)
        if ra != rb:
            merges[max(ra, rb)] = min(ra, rb)

    def find_label(a):
        while a in merges:
            a = merges[a]
        return a

    left, right = labels[:, 0], labels[:, -1]
    for a, b in zip(left, right):
        if a > 0 and b > 0:
            union(int(a), int(b))

    la = find_label(int(labels[ip, jp]))
    lb = find_label(int(labels[iq, jq]))
    return la != lb
