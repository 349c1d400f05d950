"""The circle-based separation search that hyptube.insulator replaced, kept
as a reference for the disc search.

It takes circles in any frame and sign-tests each one against p and q, then
builds a second chart, the rotation of the sphere with p -> oo, and reads
each circle's side without p there as a disc around the image of q.  The
disc search works in the base chart with q at 0 instead; both charts send p
to oo, so they differ by a similarity, which the three-disc test does not
see.
"""

from itertools import combinations, combinations_with_replacement

from hyptube.hcore import TOL, Isometry, PointOnCircle
from hyptube.insulator import DEFAULT_BUDGET, TANGENCY_TOL, Verdict
from sphere import separates


def _three_discs_enclose(discs, z: complex) -> tuple:
    """(enclosed, near_tangency) of z among three closed discs."""
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
        s = (e.conjugate() * (z - ci)).imag
        if e == 0 or abs(s) < abs(e) * rho / 2.0:
            return False, near
        sides.append(s > 0.0)
    return all(sides) or not any(sides), near


def circle_separating_triple(circles, p, q, budget: int = DEFAULT_BUDGET, tol: float = TOL) -> Verdict:
    """First multiset of three circles whose union separates p and q, in
    ``combinations_with_replacement`` order, within the budget."""
    circles = list(circles)
    for c in circles:
        if c.contains(p, tol) or c.contains(q, tol):
            raise PointOnCircle("query point lies on a circle")
    sign = [separates(c, p, q, tol) for c in circles]
    chart = Isometry.from_matrix(p.z.conjugate(), p.w.conjugate(), -p.w, p.z)
    discs = []
    for c in circles:
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
