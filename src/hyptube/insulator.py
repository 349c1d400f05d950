"""Insulator families of midplane discs and the noncoalesceability decision.

Each family is normalised once, in the base chart: the Mobius map sending the
base endpoint p_minus to 0 and p_plus to infinity.  There every member's
midplane circle misses infinity, and its side without p_plus is a closed disc
(centre, radius).  Whether up to three members separate p_plus from p_minus
on the sphere becomes whether 0 lies in a bounded component of the plane
minus up to three discs.  One disc cuts 0 off when |c| < r; three discs that
miss 0 do so exactly when they meet pairwise and 0 lies strictly inside the
triangle of their centres, as proved in :func:`_three_discs_enclose`.
:func:`separating_triple` asks this of every multiset of a family.
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
)
from .lifts import LiftSet, Word, ortho_spectrum

TANGENCY_TOL = 1e-10
DEFAULT_BUDGET = 50_000


# ---------------------------------------------------------------------------
# insulator family


@dataclass(frozen=True)
class FamilyMember:
    circle: CircleOnSphere  # the midplane, in the input frame
    disc: tuple  # (centre, radius) of its side without p_plus, in the base chart
    ortho: ComplexDistance
    word: Word
    lift_index: int


@dataclass
class InsulatorFamily:
    """Base geodesic endpoints plus the midplanes to all nearby lifts."""

    p_plus: IdealPoint
    p_minus: IdealPoint
    members: list  # of FamilyMember, ascending by ortho real part
    diagnostics: list = field(default_factory=list)

    def __len__(self):
        return len(self.members)


def base_chart_discs(circles, p_plus: IdealPoint, p_minus: IdealPoint) -> list:
    """Each circle's closed side without p_plus as a disc (centre, radius) in
    the base chart, the Mobius map sending p_minus to 0 and p_plus to oo.  The
    circles must miss p_plus; a midplane does, since its d > INTERSECTION_TOL.
    """
    chart = Isometry.from_matrix(p_minus.w, -p_minus.z, p_plus.w, -p_plus.z)
    discs = []
    for c in circles:
        tc = c.transformed(chart)
        discs.append((-tc.B / tc.A, 1.0 / tc.A))
    return discs


def build_family(L: LiftSet, cutoff: float) -> InsulatorFamily:
    """Midplane, and its disc in the base chart, for each lift within the
    ortholength cutoff."""
    entries, diagnostics = ortho_spectrum(L, cutoff)
    p_plus, p_minus = L.base.endpoints
    kept = []
    for e in entries:
        try:
            kept.append((midplane(L.base, L.lifts[e.index].geodesic), e))
        except (SharedEndpoint, IntersectingLines) as exc:
            diagnostics.append((e.index, f"degenerate midplane: {exc}"))
    discs = base_chart_discs([c for c, _ in kept], p_plus, p_minus)
    members = [FamilyMember(c, D, e.distance, e.word, e.index) for (c, e), D in zip(kept, discs)]
    return InsulatorFamily(p_plus, p_minus, members, diagnostics)


# ---------------------------------------------------------------------------
# separation by up to three discs


def _three_discs_enclose(discs) -> tuple:
    """(enclosed, near_tangency): whether 0 lies in a bounded component of
    the plane minus three closed discs (center, radius), 0 outside all of
    them, and whether some pair of discs is tangent within tolerance.

    The answer is yes iff every pair of discs meets and 0 is strictly inside
    the triangle of the three centres:

    - (<=) If D_i and D_j meet, the edge [c_i, c_j] lies in D_i u D_j, so the
      triangle's boundary lies in the union and encloses 0.
    - (=>) If 0 lies outside the closed triangle, some line through 0 has the
      triangle strictly on one side.  Each disc meets the other open
      half-plane in at most a minor segment, which lies over the disc's chord
      on the line; 0 is in no disc, hence on no chord, so the normal ray from
      0 into that half-plane meets no disc and escapes to infinity.
    - If some pair of discs is disjoint, the nerve of the three convex discs
      has no cycle, so by the nerve theorem each component of the union is
      contractible, and by Alexander duality its complement is connected.

    Every step is invariant under similarities z -> az + b, and so is the
    numerical rule below, whose tolerances are relative.

    Numerically: the ball of radius rho = min(|c_i| - r_i) about 0 misses
    every disc, and when 0 is enclosed the triangle's boundary lies in the
    discs, so 0 is at least rho from each edge line.  "Inside" is accepted
    only when 0 is at least rho/2 from each edge line on the same side of
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
    rho = min(abs(c) - r for c, r in discs)
    (c0, _), (c1, _), (c2, _) = discs
    sides = []
    for ci, cj in ((c0, c1), (c1, c2), (c2, c0)):
        e = cj - ci
        s = (e * ci.conjugate()).imag  # |e| times the signed distance from 0 to the edge line
        if e == 0 or abs(s) < abs(e) * rho / 2.0:
            return False, near
        sides.append(s > 0.0)
    return all(sides) or not any(sides), near


def separating_triple(discs, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Search the multisets of three of the base-chart discs, repetition
    allowed, in ``combinations_with_replacement`` order, for the first whose
    union cuts 0 off from infinity; each multiset tested counts against the
    budget.

    A disc holding 0 decides every multiset holding it.  Otherwise 0's
    component is its component of the plane minus the discs.  A multiset
    with a repeated index has at most two discs, whose complement is
    connected (see :func:`_three_discs_enclose`), so only three distinct
    indices are decided there.
    """
    discs = list(discs)
    inside = [abs(c) < r for c, r in discs]
    tested = 0
    flagged = 0
    for idx in combinations_with_replacement(range(len(discs)), 3):
        if tested >= budget:
            return Verdict("inconclusive", "budget-exhausted", tested=tested, flagged=flagged)
        tested += 1
        i, j, k = idx
        separated = inside[i] or inside[j] or inside[k]
        if not separated and i < j < k:
            separated, near = _three_discs_enclose((discs[i], discs[j], discs[k]))
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
    a circle through a base endpoint raises :class:`PointOnCircle`, and
    triples (with repetition, ascending ortholength) of the members' discs
    are tested exhaustively within the budget by :func:`separating_triple`.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if all(m.ortho.d / 2.0 > LOG3_HALF + tol for m in F.members):
        return Verdict("noncoalesceable", "tube-shortcut")
    for m in F.members:
        if m.circle.contains(F.p_plus, tol) or m.circle.contains(F.p_minus, tol):
            raise PointOnCircle("query point lies on a circle")
    return separating_triple([m.disc for m in F.members], budget)
