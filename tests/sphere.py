"""Boundary-sphere geometry that only the tests and scripts use: the sign
test of one circle, inversion in a circle, sampled circle points, arclength
points on a line, and the unit-sphere plane form of circles and points."""

import cmath
import math

from hyptube.hcore import (
    TOL,
    CircleOnSphere,
    Geodesic,
    HPoint,
    IdealPoint,
    PointOnCircle,
    _send_to_zero_infinity,
)


def separates(c: CircleOnSphere, p: IdealPoint, q: IdealPoint, tol: float = TOL) -> bool:
    """True iff p and q lie in different components of the sphere minus c."""
    sp = c.evaluate(p)
    sq = c.evaluate(q)
    if abs(sp) <= tol or abs(sq) <= tol:
        raise PointOnCircle("query point lies on the circle")
    return (sp > 0) != (sq > 0)


def invert(c: CircleOnSphere, p: IdealPoint) -> IdealPoint:
    """Inversion (reflection) in the circle, as an anti-Mobius map."""
    z, w = p.z.conjugate(), p.w.conjugate()
    return IdealPoint(-c.B * z - c.C * w, c.A * z + c.B.conjugate() * w)


def sample_points(c: CircleOnSphere, k: int):
    """k points on the circle, which must not be a line."""
    return [
        IdealPoint.from_complex(c.center + c.radius * cmath.exp(2j * math.pi * j / k))
        for j in range(k)
    ]


def point_at(g: Geodesic, s: float) -> HPoint:
    """Arclength-parametrized point; s = 0 is the point above/nearest 0 in the chart."""
    t = _send_to_zero_infinity(g)
    return t.inverse().apply_h(HPoint(0j, math.exp(s)))


def from_sphere_point(u) -> IdealPoint:
    """Inverse stereographic: unit vector (x, y, z) -> (x + iy : 1 - z)."""
    x, y, zc = float(u[0]), float(u[1]), float(u[2])
    if zc > 1.0 - 1e-15:
        return IdealPoint.infinity()
    return IdealPoint(complex(x, y), complex(1.0 - zc, 0.0))


def from_sphere_plane(n, h) -> CircleOnSphere:
    """Circle cut on the unit sphere by the plane n . x = h, |n| = 1, |h| < 1."""
    nx, ny, nz = (float(v) for v in n)
    h = float(h)
    scale = 1.0 / math.sqrt(1.0 - h * h)
    k = -h * scale
    return CircleOnSphere(k + nz * scale, complex(nx, ny) * scale, k - nz * scale)


def to_sphere_plane(c: CircleOnSphere):
    """The plane n . x = h cutting the circle on the unit sphere."""
    mx, my, mz = c.B.real, c.B.imag, (c.A - c.C) / 2.0
    norm = math.sqrt(mx * mx + my * my + mz * mz)
    h = -(c.A + c.C) / (2.0 * norm)
    return ((mx / norm, my / norm, mz / norm), h)
