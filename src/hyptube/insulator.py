"""Insulator families of midplane circles and the noncoalesceability decision.

The separation question -- do up to three circles on the sphere jointly
separate two marked points p and q? -- has a closed-form answer.  If one
circle separates them by sign, it does.  Otherwise a rotation of the sphere
sends p to infinity, each circle's side without p becomes a closed disc, and
q is cut off exactly when the three discs meet pairwise and q lies strictly
inside the triangle of their centres; the proof is in
:func:`_three_discs_enclose`.  :func:`separating_triple` asks this of every
multiset of a family, testing and rotating each circle once per family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement
from typing import Optional

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
    separates,
)
from .lifts import LiftSet, Word, ortho_spectrum

TANGENCY_TOL = 1e-10
DEFAULT_BUDGET = 50_000


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
# separation by up to three circles


def _three_discs_enclose(discs, z: complex) -> tuple:
    """(enclosed, near_tangency): whether z lies in a bounded component of
    the plane minus three closed discs (center, radius), z outside all of
    them, and whether some pair of discs is tangent within tolerance.

    The answer is yes iff every pair of discs meets and z is strictly inside
    the triangle of the three centres:

    - (<=) If D_i and D_j meet, the edge [c_i, c_j] lies in D_i u D_j, so the
      triangle's boundary lies in the union and encloses z.
    - (=>) If z lies outside the closed triangle, some line through z has the
      triangle strictly on one side.  Each disc meets the other open
      half-plane in at most a minor segment, which lies over the disc's chord
      on the line; z is in no disc, hence on no chord, so the normal ray from
      z into that half-plane meets no disc and escapes to infinity.
    - If some pair of discs is disjoint, the nerve of the three convex discs
      has no cycle, so by the nerve theorem each component of the union is
      contractible, and by Alexander duality its complement is connected.

    Numerically: the ball of radius rho = min(|z - c_i| - r_i) about z misses
    every disc, and when z is enclosed the triangle's boundary lies in the
    discs, so z is at least rho from each edge line.  "Inside" is accepted
    only when z is at least rho/2 from each edge line on the same side of
    all three; this rejects near-collinear centres that a sign test would
    misread.  Coincident centres span no triangle.
    """
    near = False
    meet = True
    for (ci, ri), (cj, rj) in combinations(discs, 2):
        d = abs(cj - ci)
        gap = d - (ri + rj)
        near = near or abs(gap) <= TANGENCY_TOL * max(ri, rj, d)
        meet = meet and gap <= 0.0
    if not meet:
        return False, near
    rho = min(abs(z - c) - r for c, r in discs)
    (c0, _), (c1, _), (c2, _) = discs
    sides = []
    for ci, cj in ((c0, c1), (c1, c2), (c2, c0)):
        e = cj - ci
        s = (e.conjugate() * (z - ci)).imag  # |e| times the signed distance to the edge line
        if e == 0 or abs(s) < abs(e) * rho / 2.0:
            return False, near
        sides.append(s > 0.0)
    return all(sides) or not any(sides), near


def separating_triple(
    circles, p: IdealPoint, q: IdealPoint, budget: int = DEFAULT_BUDGET, tol: float = TOL
) -> Verdict:
    """Search the multisets of three of the circles, repetition allowed, in
    ``combinations_with_replacement`` order, for the first whose union
    separates p and q on the sphere; each multiset tested counts against the
    budget.

    A circle that separates p and q by sign decides every multiset holding
    it.  Otherwise p and q lie on the same side of every circle, and sending
    p to infinity turns each circle's other side into a closed disc with q
    outside it, so q's component is its component of the plane minus the
    discs.  A multiset with a repeated index has at most two discs, whose
    complement is connected (see :func:`_three_discs_enclose`), so only three
    distinct indices are decided there.  Each circle is tested and rotated
    once, however many multisets hold it.
    """
    circles = list(circles)
    for c in circles:
        if c.contains(p, tol) or c.contains(q, tol):
            raise PointOnCircle("query point lies on a circle")
    sign = [separates(c, p, q, tol) for c in circles]
    # unitary map with p -> oo, a rotation of the sphere
    chart = Isometry.from_matrix(p.z.conjugate(), p.w.conjugate(), -p.w, p.z)
    discs = []
    for c in circles:
        # A is the side value of p, so |A| > tol and the image is no line
        tc = c.transformed(chart)
        discs.append((-tc.B / tc.A, 1.0 / tc.A))
    z = chart.apply(q).value
    tested = 0
    flagged = 0
    for idx in combinations_with_replacement(range(len(circles)), 3):
        if tested >= budget:
            return Verdict("inconclusive", "budget-exhausted", tested=tested, flagged=flagged)
        tested += 1
        i, j, k = idx
        separated = sign[i] or sign[j] or sign[k]
        if not separated and i < j < k:
            separated, near = _three_discs_enclose((discs[i], discs[j], discs[k]), z)
            flagged += near
        if separated:
            return Verdict("coalescing", "exhaustive-triples", triple=idx, tested=tested, flagged=flagged)
    return Verdict("noncoalesceable", "exhaustive-triples", tested=tested, flagged=flagged)


# ---------------------------------------------------------------------------
# noncoalesceability


@dataclass(frozen=True)
class Verdict:
    kind: str  # 'noncoalesceable' | 'coalescing' | 'inconclusive'
    basis: str  # 'tube-shortcut' | 'exhaustive-triples' | 'budget-exhausted'
    triple: Optional[tuple] = None  # member indices of a separating triple
    tested: int = 0
    flagged: int = 0  # triples whose decision read a near-tangent pair


def noncoalesceable(F: InsulatorFamily, budget: int = DEFAULT_BUDGET, tol: float = TOL) -> Verdict:
    """Decide whether no multiset of up to three family circles separates the
    base endpoints.

    Fast path: when every member's half-ortholength clears (log 3)/2, the
    visual-angle argument rules out any separating configuration.  Otherwise
    triples (with repetition, ascending ortholength) are tested exhaustively
    within the budget by :func:`separating_triple`.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if all(m.ortho.d / 2.0 > LOG3_HALF + tol for m in F.members):
        return Verdict("noncoalesceable", "tube-shortcut")
    return separating_triple([m.circle for m in F.members], F.p_plus, F.p_minus, budget, tol)
