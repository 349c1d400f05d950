"""Shared fixtures and independent numeric oracles for the test suite."""

import math

import numpy as np
import pytest

from hyptube.hcore import TOL, Geodesic, Isometry, PointOnCircle, classify
from hyptube.insulator import base_chart_discs, separating_triple
from hyptube.lifts import GroupPresentation
from sphere import from_sphere_plane, from_sphere_point, point_at


def to_discs(circles, p, q, tol: float = TOL) -> list:
    """A synthetic circle list as discs in the chart with p at oo and q at 0;
    raises PointOnCircle if a circle holds p or q."""
    circles = list(circles)
    for c in circles:
        if c.contains(p, tol) or c.contains(q, tol):
            raise PointOnCircle("query point lies on a circle")
    return base_chart_discs(circles, p, q)


def separated(circles, p, q) -> bool:
    """True iff some multiset of up to three of the circles separates p and q."""
    return separating_triple(to_discs(circles, p, q)).triple is not None


def random_isometry(rng) -> Isometry:
    while True:
        e = rng.normal(size=8)
        a, b = complex(e[0], e[1]), complex(e[2], e[3])
        c, d = complex(e[4], e[5]), complex(e[6], e[7])
        if abs(a * d - b * c) > 0.1:
            return Isometry.from_matrix(a, b, c, d)


def random_loxodromic(rng) -> Isometry:
    while True:
        g = random_isometry(rng)
        if classify(g) == "loxodromic":
            return g


def random_disjoint_pair(rng):
    """Two geodesics sharing no endpoint and not intersecting."""
    from hyptube.hcore import SharedEndpoint, axis, orthodistance

    while True:
        g1 = axis(random_loxodromic(rng))
        g2 = axis(random_loxodromic(rng))
        try:
            d = orthodistance(g1, g2)
        except SharedEndpoint:
            continue
        if d.d > 1e-3:
            return g1, g2


def random_coplanar_pair(rng):
    """Two disjoint geodesics with zero twist: a random isometry applied to
    a pair of real-axis intervals in normal position."""
    from hyptube.hcore import Geodesic, ideal

    a = float(rng.uniform(0.2, 2.0))
    b = a + float(rng.uniform(0.2, 2.0))
    g1 = Geodesic(ideal(0), ideal("inf"))
    g2 = Geodesic(ideal(a), ideal(b))
    h = random_isometry(rng)
    return h.apply_geodesic(g1), h.apply_geodesic(g2)


def ortho_min_oracle(g1: Geodesic, g2: Geodesic) -> float:
    """Brute-force minimum distance between points of two lines."""
    from scipy.optimize import minimize

    def f(x):
        return point_at(g1, x[0]).dist(point_at(g2, x[1]))

    best = math.inf
    for s1 in (-2.0, 0.0, 2.0):
        for s2 in (-2.0, 0.0, 2.0):
            r = minimize(
                f,
                [s1, s2],
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000},
            )
            best = min(best, r.fun)
    return best


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _fold(x):
    return x if x <= math.pi else 2.0 * math.pi - x


def random_circle_instance(rng, n=3, margin=0.04):
    """Random circles and two query points on the sphere, rejection-sampled so
    that every pairwise tangency gap and every point-to-circle distance is at
    least `margin` radians.  Keeps raster and exact decisions comparable."""
    while True:
        planes = [(_unit(rng), float(rng.uniform(-0.9, 0.9))) for _ in range(n)]
        pts = [_unit(rng) for _ in range(2)]
        ok = True
        betas = [math.acos(h) for _, h in planes]
        for i in range(n):
            for j in range(i + 1, n):
                psi = math.acos(
                    max(-1.0, min(1.0, float(np.dot(planes[i][0], planes[j][0]))))
                )
                lo = abs(psi - betas[i])
                hi = _fold(psi + betas[i])
                if min(abs(betas[j] - lo), abs(betas[j] - hi)) < margin:
                    ok = False
        for u in pts:
            for (nv, h), beta in zip(planes, betas):
                a = math.acos(max(-1.0, min(1.0, float(np.dot(u, nv)))))
                if abs(a - beta) < margin:
                    ok = False
        if math.acos(max(-1.0, min(1.0, float(np.dot(pts[0], pts[1]))))) < margin:
            ok = False
        if ok:
            circles = [from_sphere_plane(tuple(nv), h) for nv, h in planes]
            p = from_sphere_point(pts[0])
            q = from_sphere_point(pts[1])
            return circles, p, q


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def twolift_presentation() -> GroupPresentation:
    """Loxodromic with axis (0, oo) plus an involution sending it to (1, 3)."""
    a = Isometry.from_matrix(math.sqrt(3), 0, 0, 1 / math.sqrt(3))
    g = Isometry.from_matrix(3, -3, 1, -3)
    return GroupPresentation(("a", "g"), (a, g))


@pytest.fixture
def twolift():
    return twolift_presentation()
