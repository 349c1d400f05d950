"""Insulator families of midplane circles and the noncoalesceability decision.

The separation question -- do up to three circles on the sphere jointly
separate two marked points? -- is decided by an exact arrangement: pairwise
intersections, arc subdivision, face extraction, and point location by ray
shooting.

The arrangement is computed in an affine chart obtained by moving a point far
from all circles to infinity, so every curve stays an honest circle and no
line code path exists.  Circles that intersect or touch form connected
components; for at most three circles every complement region of the full
union is determined componentwise, so the union separates two points exactly
when the sub-union of a single connected component does.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Optional

import numpy as np

from .bounds import LOG3_HALF
from .hcore import (
    TOL,
    CircleOnSphere,
    ComplexDistance,
    IdealPoint,
    IntersectingLines,
    Isometry,
    PointOnCircle,
    SharedEndpoint,
    midplane,
)
from .lifts import LiftSet, Word, ortho_spectrum

TANGENCY_TOL = 1e-10
DEFAULT_BUDGET = 50_000


class NearTangencyWarning(UserWarning):
    """Two circles are tangent within tolerance; face topology is unstable."""


# ---------------------------------------------------------------------------
# insulator family


@dataclass(frozen=True)
class FamilyMember:
    circle: CircleOnSphere
    ortho: ComplexDistance
    word: Word
    lift_index: int


@dataclass
class InsulatorFamily:
    """Base geodesic endpoints plus the midplane circles to all nearby lifts."""

    p_plus: IdealPoint
    p_minus: IdealPoint
    members: list  # of FamilyMember, ascending by ortho real part
    diagnostics: list = field(default_factory=list)

    def __len__(self):
        return len(self.members)


def build_family(L: LiftSet, cutoff: float) -> InsulatorFamily:
    """Midplane circle for each lift within the ortholength cutoff."""
    entries, diagnostics = ortho_spectrum(L, cutoff)
    p_plus, p_minus = L.base.endpoints
    members = []
    for e in entries:
        try:
            circ = midplane(L.base, L.lifts[e.index].geodesic)
        except (SharedEndpoint, IntersectingLines) as exc:
            diagnostics.append((e.index, f"degenerate midplane: {exc}"))
            continue
        members.append(FamilyMember(circ, e.distance, e.word, e.index))
    return InsulatorFamily(p_plus, p_minus, members, diagnostics)


# ---------------------------------------------------------------------------
# circle arrangement on the sphere


def _sphere_candidates():
    """Fixed, well-spread direction set used to pick the chart point."""
    n = 64
    idx = np.arange(n) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * idx
    z = 1.0 - 2.0 * idx / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _circle_angle_dist(u, n, h):
    """Spherical distance from unit vector u to the circle {x : n.x = h}."""
    alpha = math.acos(max(-1.0, min(1.0, float(np.dot(u, n)))))
    beta = math.acos(max(-1.0, min(1.0, h)))
    return abs(alpha - beta)


def _chart_isometry(circles, points):
    """Unitary Mobius map sending a point far from all circles and points to oo."""
    planes = [c.to_sphere_plane() for c in circles]
    pts = [np.array(p.sphere_point()) for p in points]
    best, best_score = None, -1.0
    for u in _sphere_candidates():
        score = min(
            [_circle_angle_dist(u, np.array(n), h) for n, h in planes]
            + [math.acos(max(-1.0, min(1.0, float(np.dot(u, p))))) for p in pts]
        )
        if score > best_score:
            best, best_score = u, score
    m = IdealPoint.from_sphere_point(best)
    # unitary matrix with m -> oo; a rotation of the sphere
    return Isometry.from_matrix(m.z.conjugate(), m.w.conjugate(), -m.w, m.z)


@dataclass
class _HalfEdge:
    circle: int  # circle index within the component
    a0: float  # start angle on the circle
    a1: float  # end angle (ccw from a0 when ccw is True)
    ccw: bool
    origin: int  # vertex id
    target: int
    twin: int = -1
    face: int = -1

    def out_direction(self):
        return self.a0 + (math.pi / 2.0 if self.ccw else -math.pi / 2.0)


class Arrangement:
    """Cell complex of a connected family of up to three circles on the sphere.

    Vertices are pairwise intersection points, arcs the circle segments
    between them, faces the complement regions.  The Euler relation
    V - E + F = 2 is asserted after construction.
    """

    def __init__(self, circles, tol: float = 1e-9):
        self.circles = list(circles)  # (center, radius) pairs
        self.tol = tol
        self.near_tangency = False
        self.vertices = []  # complex positions
        self.halfedges = []
        self.n_faces = 0
        self._circle_vertices = [[] for _ in self.circles]  # (angle, vid)
        self._build()

    # -- construction ------------------------------------------------------

    def _add_vertex(self, z: complex) -> int:
        for i, v in enumerate(self.vertices):
            if abs(v - z) <= 10 * self.tol:
                return i
        self.vertices.append(z)
        return len(self.vertices) - 1

    def _intersect_pair(self, i, j):
        c1, r1 = self.circles[i]
        c2, r2 = self.circles[j]
        d = abs(c2 - c1)
        scale = max(r1, r2, d)
        if d <= 1e-15 * scale:
            return []  # concentric distinct circles never meet
        a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
        h2 = r1 * r1 - a * a
        if abs(h2) <= TANGENCY_TOL * scale * scale:
            self.near_tangency = True
            warnings.warn(
                "near-tangent circles in arrangement", NearTangencyWarning, stacklevel=4
            )
            e = (c2 - c1) / d
            return [c1 + a * e]
        if h2 < 0:
            return []
        e = (c2 - c1) / d
        hh = math.sqrt(h2)
        return [c1 + a * e + 1j * e * hh, c1 + a * e - 1j * e * hh]

    def _build(self):
        for i in range(len(self.circles)):
            for j in range(i + 1, len(self.circles)):
                for z in self._intersect_pair(i, j):
                    vid = self._add_vertex(z)
                    for k in (i, j):
                        ck, rk = self.circles[k]
                        ang = cmath.phase(z - ck)
                        if not any(v == vid for _, v in self._circle_vertices[k]):
                            self._circle_vertices[k].append((ang, vid))
        # arcs and half-edges
        for k, (ck, rk) in enumerate(self.circles):
            vs = sorted(self._circle_vertices[k])
            if not vs:
                # free-floating circle: artificial vertex, one full-circle arc
                vid = self._add_vertex(ck + rk)
                vs = [(0.0, vid)]
                self._circle_vertices[k] = vs
            m = len(vs)
            for idx in range(m):
                a0, v0 = vs[idx]
                a1, v1 = vs[(idx + 1) % m]
                h_ccw = _HalfEdge(k, a0, a1, True, v0, v1)
                h_cw = _HalfEdge(k, a1, a0, False, v1, v0)
                h_ccw.twin = len(self.halfedges) + 1
                h_cw.twin = len(self.halfedges)
                self.halfedges.append(h_ccw)
                self.halfedges.append(h_cw)
        self._trace_faces()
        self._check_euler()

    def _rotation_key(self, hid):
        h = self.halfedges[hid]
        _, r = self.circles[h.circle]
        kappa = (1.0 / r) if h.ccw else (-1.0 / r)
        theta = math.fmod(h.out_direction(), 2.0 * math.pi)
        if theta <= -math.pi:
            theta += 2.0 * math.pi
        elif theta > math.pi:
            theta -= 2.0 * math.pi
        return (theta, kappa)

    def _trace_faces(self):
        outgoing = {}
        for hid, h in enumerate(self.halfedges):
            outgoing.setdefault(h.origin, []).append(hid)
        rot = {}
        for vid, hids in outgoing.items():
            hids.sort(key=self._rotation_key)
            rot[vid] = hids
        # next(h): the rotational predecessor of twin(h) at the target vertex,
        # which continues the face lying to the left of h
        nxt = {}
        for hid, h in enumerate(self.halfedges):
            ring = rot[h.target]
            pos = ring.index(h.twin)
            nxt[hid] = ring[pos - 1]
        face = 0
        for hid in range(len(self.halfedges)):
            if self.halfedges[hid].face >= 0:
                continue
            cur = hid
            while self.halfedges[cur].face < 0:
                self.halfedges[cur].face = face
                cur = nxt[cur]
            face += 1
        self.n_faces = face

    def _check_euler(self):
        v = len(self.vertices)
        e = len(self.halfedges) // 2
        f = self.n_faces
        if v - e + f != 2:
            raise AssertionError(f"Euler check failed: V={v} E={e} F={f}")

    # -- point location ----------------------------------------------------

    def _ray_crossings(self, z: complex, direction: complex):
        """All transversal crossings (s, circle, point) of z + s*direction, s > 0."""
        crossings = []
        for k, (ck, rk) in enumerate(self.circles):
            w = z - ck
            b = (direction.conjugate() * w).real
            c0 = abs(w) ** 2 - rk * rk
            disc = b * b - c0
            if disc <= (1e-7 * rk) ** 2:
                if disc > -((1e-7 * rk) ** 2):
                    return None  # tangential grazing; caller perturbs
                continue
            sq = math.sqrt(disc)
            for s in (-b - sq, -b + sq):
                if s > 1e-12:
                    x = z + s * direction
                    if any(abs(x - v) <= 100 * self.tol for v in self.vertices):
                        return None  # grazes a vertex; caller perturbs
                    crossings.append((s, k, x))
        crossings.sort(key=lambda t: t[0])
        return crossings

    def locate(self, p: IdealPoint) -> int:
        """Face id containing p (p must be finite in this chart and off all circles)."""
        z = p.value
        # aim at the nearest circle center: the unperturbed ray is guaranteed
        # to hit that circle, and small perturbations keep the hit
        k0 = min(range(len(self.circles)), key=lambda k: abs(z - self.circles[k][0]))
        c0, r0 = self.circles[k0]
        base = (c0 - z) / abs(c0 - z) if abs(c0 - z) > 1e-12 else 1.0 + 0j
        margin = 0.3 * math.asin(min(1.0, r0 / max(abs(z - c0), r0)))
        for trial in range(60):
            ang = margin * ((trial + 1) // 2) / 30.0 * (1 if trial % 2 else -1)
            direction = base * cmath.exp(1j * ang)
            crossings = self._ray_crossings(z, direction)
            if crossings is None or not crossings:
                continue
            s, k, x = crossings[0]
            return self._face_at(k, x, inside=abs(z - self.circles[k][0]) < self.circles[k][1])
        raise RuntimeError("point location failed: degenerate configuration")

    def _face_at(self, circle_idx: int, x: complex, inside: bool) -> int:
        """Face adjacent to circle circle_idx at boundary point x, on the given side."""
        ck, rk = self.circles[circle_idx]
        ang = cmath.phase(x - ck)
        want_ccw = inside  # ccw traversal keeps the disk on the left
        best = None
        for h in self.halfedges:
            if h.circle != circle_idx or h.ccw != want_ccw:
                continue
            a0, a1 = (h.a0, h.a1) if h.ccw else (h.a1, h.a0)
            span = (a1 - a0) % (2.0 * math.pi)
            off = (ang - a0) % (2.0 * math.pi)
            if span == 0.0 or off <= span:
                best = h.face
                break
        if best is None:
            raise RuntimeError("no arc found at boundary point")
        return best


@dataclass
class SeparationResult:
    separated: bool
    near_tangency: bool = False
    arrangements: list = field(default_factory=list)


def _dedup_circles(circles, tol=1e-9):
    out = []
    for c in circles:
        if not any(c.close_to(o, tol) for o in out):
            out.append(c)
    return out


def separates_union(circles, p: IdealPoint, q: IdealPoint, tol: float = TOL) -> SeparationResult:
    """Decide whether p and q lie in different components of the sphere minus
    the union of the given circles (at most three)."""
    circles = _dedup_circles(list(circles))
    if len(circles) > 3:
        raise ValueError("at most three circles are supported")
    for c in circles:
        if c.contains(p, tol) or c.contains(q, tol):
            raise PointOnCircle("query point lies on a circle")
    if not circles:
        return SeparationResult(False)
    chart = _chart_isometry(circles, [p, q])
    pc = chart.apply(p)
    qc = chart.apply(q)
    planar = []
    for c in circles:
        tc = c.transformed(chart)
        planar.append((tc.center, tc.radius))
    # connected components of the intersection graph
    parent = list(range(len(planar)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def _touch(i, j):
        (c1, r1), (c2, r2) = planar[i], planar[j]
        d = abs(c2 - c1)
        return abs(r1 - r2) - 1e-12 <= d <= r1 + r2 + 1e-12

    for i in range(len(planar)):
        for j in range(i + 1, len(planar)):
            if _touch(i, j):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(planar)):
        groups.setdefault(find(i), []).append(i)
    result = SeparationResult(False)
    for members in groups.values():
        arr = Arrangement([planar[i] for i in members])
        result.arrangements.append(arr)
        result.near_tangency = result.near_tangency or arr.near_tangency
        if arr.locate(pc) != arr.locate(qc):
            result.separated = True
    return result


def triple_separates(c1, c2, c3, p: IdealPoint, q: IdealPoint, tol: float = TOL) -> bool:
    """True iff p and q lie in different components of the sphere minus c1 u c2 u c3."""
    return separates_union([c1, c2, c3], p, q, tol).separated


# ---------------------------------------------------------------------------
# noncoalesceability


@dataclass(frozen=True)
class Verdict:
    kind: str  # 'noncoalesceable' | 'coalescing' | 'inconclusive'
    basis: str  # 'tube-shortcut' | 'exhaustive-triples' | 'budget-exhausted'
    triple: Optional[tuple] = None  # member indices of a separating triple
    tested: int = 0
    flagged: int = 0  # triples with near-tangency warnings


def noncoalesceable(
    F: InsulatorFamily,
    budget: int = DEFAULT_BUDGET,
    tol: float = TOL,
    force_exhaustive: bool = False,
) -> Verdict:
    """Decide whether no multiset of up to three family circles separates the
    base endpoints.

    Fast path: when every member's half-ortholength clears (log 3)/2, the
    visual-angle argument rules out any separating configuration.  Otherwise
    triples (with repetition, ascending ortholength) are tested exhaustively
    within the budget.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    shortcut = all(m.ortho.d / 2.0 > LOG3_HALF + tol for m in F.members)
    if shortcut and not force_exhaustive:
        return Verdict("noncoalesceable", "tube-shortcut")
    tested = 0
    flagged = 0
    for idx in combinations_with_replacement(range(len(F.members)), 3):
        if tested >= budget:
            return Verdict("inconclusive", "budget-exhausted", tested=tested, flagged=flagged)
        tested += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NearTangencyWarning)
            sep = triple_separates(
                F.members[idx[0]].circle,
                F.members[idx[1]].circle,
                F.members[idx[2]].circle,
                F.p_plus,
                F.p_minus,
                tol,
            )
            if any(issubclass(w.category, NearTangencyWarning) for w in caught):
                flagged += 1
        if sep:
            return Verdict("coalescing", "exhaustive-triples", triple=idx, tested=tested, flagged=flagged)
    return Verdict("noncoalesceable", "exhaustive-triples", tested=tested, flagged=flagged)
