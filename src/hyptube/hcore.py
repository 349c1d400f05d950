"""Exact-formula primitives for hyperbolic 3-space in the upper half-space model.

Isometries are normalized 2x2 complex matrices acting on the Riemann sphere
C u {oo} by Mobius transformations and on upper half-space by the Poincare
extension.  All boundary computations run in projective coordinates; affine
values are produced only at the output boundary, so vertical lines and the
point at infinity need no special cases.

Twist-angle convention: :class:`ComplexDistance` normalizes twists to
(-pi, pi].  Geodesics are unordered pairs of ideal points, which makes the
twist between two of them well defined only up to adding pi, so
:func:`orthodistance` returns the representative in (-pi/2, pi/2]; only real
parts feed any decision made elsewhere in the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TOL = 1e-9

# Real orthodistance below this is treated as intersecting lines; the
# midplane is numerically ill-conditioned there.
INTERSECTION_TOL = 1e-9


class NotLoxodromic(ValueError):
    """Raised when an axis/translation length is requested of a non-loxodromic."""


class SharedEndpoint(ValueError):
    """Raised for asymptotic lines: no orthocurve exists."""


class IntersectingLines(ValueError):
    """Raised when an orthocurve-based construction needs positive distance."""


class PointOnCircle(ValueError):
    """Raised by separation queries when a query point lies on the circle."""


def _cx(x) -> complex:
    return complex(x)


@dataclass(frozen=True)
class Isometry:
    """Orientation-preserving isometry of H^3 as a determinant-1 matrix.

    Equality of isometries is up to a global sign of all four entries; use
    :meth:`close_to`.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    @staticmethod
    def from_matrix(a, b, c, d) -> "Isometry":
        """Normalize det to 1, dividing by the root with Re >= 0 (Im > 0 on ties)."""
        a, b, c, d = _cx(a), _cx(b), _cx(c), _cx(d)
        det = a * d - b * c
        if abs(det) < 1e-14:
            raise ValueError("singular matrix is not an isometry")
        s = cmath.sqrt(det)  # principal root: Re >= 0, Im > 0 when Re == 0
        return Isometry(a / s, b / s, c / s, d / s)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(1.0 + 0j, 0j, 0j, 1.0 + 0j)

    def trace(self) -> complex:
        return self.a + self.d

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Isometry":
        return Isometry(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def close_to(self, other: "Isometry", tol: float = TOL) -> bool:
        """Entrywise agreement up to global sign."""
        e1, e2 = self.entries(), other.entries()
        plus = max(abs(x - y) for x, y in zip(e1, e2))
        minus = max(abs(x + y) for x, y in zip(e1, e2))
        return min(plus, minus) <= tol

    def is_identity(self, tol: float = TOL) -> bool:
        return self.close_to(Isometry.identity(), tol)

    def apply(self, p: "IdealPoint") -> "IdealPoint":
        """(z : w) -> (az + bw : cz + dw); projective, no division anywhere."""
        return IdealPoint(self.a * p.z + self.b * p.w, self.c * p.z + self.d * p.w)

    def apply_h(self, x: "HPoint") -> "HPoint":
        """Poincare extension to upper half-space (valid for det = 1)."""
        a, b, c, d = self.entries()
        z, t = x.z, x.t
        den = abs(c * z + d) ** 2 + abs(c) ** 2 * t * t
        z2 = ((a * z + b) * (c * z + d).conjugate() + a * c.conjugate() * t * t) / den
        return HPoint(z2, t / den)

    def apply_geodesic(self, g: "Geodesic") -> "Geodesic":
        p, q = g.endpoints
        return Geodesic(self.apply(p), self.apply(q))


@dataclass(frozen=True)
class IdealPoint:
    """Point of the sphere at infinity as a projective pair (z : w)."""

    z: complex
    w: complex

    def __post_init__(self):
        m = max(abs(self.z), abs(self.w))
        if m == 0.0:
            raise ValueError("(0, 0) is not a projective point")
        object.__setattr__(self, "z", self.z / m)
        object.__setattr__(self, "w", self.w / m)

    @staticmethod
    def from_complex(v) -> "IdealPoint":
        return IdealPoint(_cx(v), 1.0 + 0j)

    @staticmethod
    def infinity() -> "IdealPoint":
        return IdealPoint(1.0 + 0j, 0j)

    @property
    def is_infinity(self) -> bool:
        return abs(self.w) <= TOL  # coordinates are unit-max normalized

    @property
    def value(self) -> complex:
        if self.is_infinity:
            raise ValueError("the point at infinity has no affine value")
        return self.z / self.w

    def sphere_point(self):
        """Stereographic image on the unit sphere in R^3."""
        n = abs(self.z) ** 2 + abs(self.w) ** 2
        zw = self.z * self.w.conjugate()
        return (2 * zw.real / n, 2 * zw.imag / n, (abs(self.z) ** 2 - abs(self.w) ** 2) / n)

    def close_to(self, other: "IdealPoint", tol: float = TOL) -> bool:
        return abs(self.z * other.w - other.z * self.w) <= tol

    def __str__(self):
        return "inf" if self.is_infinity else format(self.value, ".9g")


def ideal(v) -> IdealPoint:
    """Convenience constructor: a complex number, or the string/float infinity."""
    if isinstance(v, IdealPoint):
        return v
    if v == math.inf or (isinstance(v, str) and v in ("inf", "oo")):
        return IdealPoint.infinity()
    return IdealPoint.from_complex(v)


def _endpoint_key(p: IdealPoint):
    # infinity sorts last; finite points lexicographically by (Re, Im)
    if p.is_infinity:
        return (1, 0.0, 0.0)
    v = p.value
    return (0, v.real, v.imag)


@dataclass(frozen=True)
class Geodesic:
    """Hyperbolic line named by its unordered pair of distinct ideal endpoints.

    Endpoints are stored in a canonical order so equality and hashing are
    representation independent.
    """

    endpoints: tuple

    def __init__(self, p: IdealPoint, q: IdealPoint):
        p, q = ideal(p), ideal(q)
        if p.close_to(q):
            raise ValueError("geodesic endpoints must be distinct")
        if _endpoint_key(q) < _endpoint_key(p):
            p, q = q, p
        object.__setattr__(self, "endpoints", (p, q))

    @staticmethod
    def through(u, v) -> "Geodesic":
        return Geodesic(ideal(u), ideal(v))

    def close_to(self, other: "Geodesic", tol: float = TOL) -> bool:
        p1, q1 = self.endpoints
        p2, q2 = other.endpoints
        return (p1.close_to(p2, tol) and q1.close_to(q2, tol)) or (
            p1.close_to(q2, tol) and q1.close_to(p2, tol)
        )

    def shares_endpoint(self, other: "Geodesic", tol: float = TOL) -> bool:
        return any(p.close_to(q, tol) for p in self.endpoints for q in other.endpoints)


@dataclass(frozen=True)
class HPoint:
    """Point of upper half-space: horizontal coordinate z, height t > 0."""

    z: complex
    t: float

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("height must be positive")
        object.__setattr__(self, "z", _cx(self.z))
        object.__setattr__(self, "t", float(self.t))

    def dist(self, other: "HPoint") -> float:
        num = abs(self.z - other.z) ** 2 + (self.t - other.t) ** 2
        return math.acosh(max(1.0, 1.0 + num / (2.0 * self.t * other.t)))


def _wrap_angle(theta: float) -> float:
    """Normalize to (-pi, pi]."""
    theta = math.fmod(theta, 2.0 * math.pi)
    if theta > math.pi:
        theta -= 2.0 * math.pi
    elif theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta


@dataclass(frozen=True)
class ComplexDistance:
    """Hyperbolic length plus twist angle (radians, normalized to (-pi, pi])."""

    d: float
    theta: float

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("length must be nonnegative")
        object.__setattr__(self, "theta", _wrap_angle(self.theta))

    def close_to(self, other: "ComplexDistance", tol: float = TOL) -> bool:
        dth = abs(_wrap_angle(self.theta - other.theta))
        return abs(self.d - other.d) <= tol and dth <= tol


@dataclass(frozen=True)
class CircleOnSphere:
    """Circle (or extended line) in the boundary plane, i.e. a circle on S^2.

    Internally a Hermitian form [[A, B], [conj(B), C]] normalized to
    determinant -1; the circle is its zero set on the Riemann sphere.  This
    representation transforms exactly under Mobius maps and degenerates to a
    line exactly when A = 0.
    """

    A: float
    B: complex
    C: float

    def __post_init__(self):
        disc = abs(self.B) ** 2 - self.A * self.C
        if disc <= 0:
            raise ValueError("form does not cut the sphere in a circle")
        s = math.sqrt(disc)
        a, b, c = self.A / s, self.B / s, self.C / s
        if a < 0 or (a == 0 and (b.real < 0 or (b.real == 0 and b.imag < 0))):
            a, b, c = -a, -b, -c
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)

    @staticmethod
    def circle(center, radius) -> "CircleOnSphere":
        center = _cx(center)
        radius = float(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        return CircleOnSphere(1.0, -center, abs(center) ** 2 - radius**2)

    @property
    def is_line(self) -> bool:
        return abs(self.A) <= 1e-12

    @property
    def center(self) -> complex:
        if self.is_line:
            raise ValueError("a line has no finite center")
        return -self.B / self.A

    @property
    def radius(self) -> float:
        if self.is_line:
            raise ValueError("a line has no finite radius")
        return 1.0 / self.A  # det = -1 normalization

    def evaluate(self, p: IdealPoint) -> float:
        """Scale-free signed side value; zero exactly on the circle."""
        z, w = p.z, p.w
        n = abs(z) ** 2 + abs(w) ** 2
        val = (
            self.A * abs(z) ** 2
            + 2.0 * (self.B.conjugate() * z * w.conjugate()).real
            + self.C * abs(w) ** 2
        )
        return val / n

    def contains(self, p: IdealPoint, tol: float = TOL) -> bool:
        return abs(self.evaluate(p)) <= tol

    def transformed(self, g: Isometry) -> "CircleOnSphere":
        """Image circle under the boundary action of g."""
        h = g.inverse()
        a, b, c, d = h.entries()
        A, B, C = self.A, self.B, self.C
        # (h)^dagger H h, written out
        A2 = (
            A * abs(a) ** 2
            + 2.0 * (B.conjugate() * a * c.conjugate()).real
            + C * abs(c) ** 2
        )
        C2 = (
            A * abs(b) ** 2
            + 2.0 * (B.conjugate() * b * d.conjugate()).real
            + C * abs(d) ** 2
        )
        B2 = (
            A * a.conjugate() * b
            + B * a.conjugate() * d
            + B.conjugate() * c.conjugate() * b
            + C * c.conjugate() * d
        )
        return CircleOnSphere(A2, B2, C2)

    def close_to(self, other: "CircleOnSphere", tol: float = TOL) -> bool:
        return (
            abs(self.A - other.A) <= tol
            and abs(self.B - other.B) <= tol
            and abs(self.C - other.C) <= tol
        )


# ---------------------------------------------------------------------------
# operations


def classify(g: Isometry, tol: float = TOL) -> str:
    """One of 'identity', 'elliptic', 'parabolic', 'loxodromic' by tr^2."""
    if g.is_identity(tol):
        return "identity"
    t2 = g.trace() ** 2
    if abs(t2 - 4.0) <= tol:
        return "parabolic"
    if abs(t2.imag) <= tol and -tol <= t2.real < 4.0:
        return "elliptic"
    return "loxodromic"


def _eigenvalues(g: Isometry):
    t = g.trace()
    s = cmath.sqrt(t * t - 4.0)
    lam1 = (t + s) / 2.0
    lam2 = (t - s) / 2.0
    if abs(lam1) < abs(lam2):
        lam1, lam2 = lam2, lam1
    return lam1, lam2  # |lam1| >= |lam2|


def complex_length(g: Isometry) -> ComplexDistance:
    """Complex translation length (d, theta) with 2 cosh((d + i theta)/2) = +/- tr."""
    if classify(g) != "loxodromic":
        raise NotLoxodromic(f"element is {classify(g)}")
    lam, _ = _eigenvalues(g)
    return ComplexDistance(2.0 * math.log(abs(lam)), _wrap_angle(2.0 * cmath.phase(lam)))


def axis(g: Isometry) -> Geodesic:
    """Geodesic joining the two fixed ideal points of a loxodromic."""
    if classify(g) != "loxodromic":
        raise NotLoxodromic(f"element is {classify(g)}")
    pts = []
    for lam in _eigenvalues(g):
        # eigenvector of [[a, b], [c, d]]: (b, lam - a) or (lam - d, c)
        v1 = (g.b, lam - g.a)
        v2 = (lam - g.d, g.c)
        v = v1 if abs(v1[0]) + abs(v1[1]) >= abs(v2[0]) + abs(v2[1]) else v2
        pts.append(IdealPoint(v[0], v[1]))
    return Geodesic(pts[0], pts[1])


def _send_to_zero_infinity(g: Geodesic) -> Isometry:
    """Isometry mapping the first canonical endpoint to 0 and the second to oo."""
    p1, p2 = g.endpoints
    return Isometry.from_matrix(p1.w, -p1.z, p2.w, -p2.z)


def _ortho_cosh(g1: Geodesic, g2: Geodesic) -> complex:
    """cosh of the complex distance, from the projective cross-ratio."""
    t = _send_to_zero_infinity(g1)
    q1, q2 = g2.endpoints
    u = t.apply(q1)
    v = t.apply(q2)
    num = u.z * v.w + v.z * u.w
    den = v.z * u.w - u.z * v.w
    return num / den


def orthodistance(g1: Geodesic, g2: Geodesic) -> ComplexDistance:
    """Complex distance between two lines sharing no endpoint.

    Real part is the length of the orthocurve; a zero real part with theta != 0
    means the lines intersect at angle theta.
    """
    if g1.shares_endpoint(g2):
        raise SharedEndpoint("asymptotic lines have no orthocurve")
    w = _ortho_cosh(g1, g2)
    eta = cmath.acosh(w)
    if eta.imag > math.pi / 2 or eta.imag <= -math.pi / 2:
        eta = cmath.acosh(-w)  # the other representative of the unordered pair
    return ComplexDistance(max(eta.real, 0.0), eta.imag)


def midplane(g1: Geodesic, g2: Geodesic) -> CircleOnSphere:
    """Ideal boundary circle of the plane orthogonal to the orthocurve at its midpoint.

    Inversion in the returned circle swaps the endpoint sets of g1 and g2, and
    the circle separates them on the sphere.
    """
    dist = orthodistance(g1, g2)
    if dist.d <= INTERSECTION_TOL:
        raise IntersectingLines("intersecting lines have no midplane")
    t = _send_to_zero_infinity(g1)
    q1, q2 = g2.endpoints
    u = t.apply(q1).value
    v = t.apply(q2).value
    # rescale so the second line's endpoints multiply to 1, then map the pair
    # (0, oo), (u', 1/u') to (-1, 1), (-a, a); the midplane there is |z| = sqrt|a|
    s = (u * v) ** -0.25
    scale = Isometry.from_matrix(s, 0.0, 0.0, 1.0 / s)
    r = Isometry.from_matrix(1.0, 1.0, 1.0, -1.0)
    w_map = r @ (scale @ t)
    a_val = w_map.apply(q1).value
    h0 = CircleOnSphere(1.0, 0j, -abs(a_val))  # center 0, radius sqrt|a|
    return h0.transformed(w_map.inverse())


def visual_angle(d: float) -> float:
    """Angle subtended at a point by a full geodesic at distance d (radians).

    Equals 2 arcsin(1/cosh d): pi at d = 0, exactly 2pi/3 at d = (log 3)/2,
    strictly decreasing in d.
    """
    if d < 0:
        raise ValueError("distance must be nonnegative")
    return 2.0 * math.asin(1.0 / math.cosh(d))
