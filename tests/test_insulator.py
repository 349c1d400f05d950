"""Insulator families, the separation test, and the noncoalesceability verdict."""

import cmath
import math
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from conftest import random_circle_instance, random_isometry, separated, to_discs
from hyptube.bounds import LOG3_HALF
from hyptube.cli import parse_group_file
from hyptube.hcore import (
    CircleOnSphere,
    ComplexDistance,
    Geodesic,
    PointOnCircle,
    ideal,
    visual_angle,
)
from hyptube.insulator import (
    FamilyMember,
    InsulatorFamily,
    base_chart_discs,
    build_family,
    noncoalesceable,
    separating_triple,
)
from hyptube.lifts import Word, lifts_of_geodesic
from raster_oracle import GuardBandSwallowedPoint, flood_fill_oracle
from sphere import sample_points, separates

ACOSH2 = math.acosh(2.0)
GROUPS = Path(__file__).resolve().parents[1] / "groups"
ROOTS = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]


def chain_family(radius: float) -> InsulatorFamily:
    """Synthetic family: circles of the given radius at the cube roots of
    unity, base endpoints 0 and infinity."""
    circles = [CircleOnSphere.circle(c, radius) for c in ROOTS]
    discs = base_chart_discs(circles, ideal(0), ideal("inf"))
    members = [
        FamilyMember(c, disc, ComplexDistance(0.5, 0.0), Word((1,)), k + 1)
        for k, (c, disc) in enumerate(zip(circles, discs))
    ]
    return InsulatorFamily(ideal(0), ideal("inf"), members)


# ---------------------------------------------------------------------------
# family construction


def test_build_family_twolift(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 1)
    F = build_family(L, cutoff=4.0)
    assert len(F) == 1
    m = F.members[0]
    assert m.circle.center == pytest.approx(3.0, abs=1e-9)
    assert m.circle.radius == pytest.approx(math.sqrt(6), abs=1e-9)
    assert m.ortho.d == pytest.approx(ACOSH2, abs=1e-9)
    # the base chart is z -> u / z with |u| = 1 here, sending p_plus = 0 to oo
    assert abs(m.disc[0]) == pytest.approx(1.0, abs=1e-9)
    assert m.disc[1] == pytest.approx(math.sqrt(2 / 3), abs=1e-9)
    ends = {F.p_plus, F.p_minus}
    assert any(p.close_to(ideal(0)) for p in ends)
    assert any(p.is_infinity for p in ends)


def test_build_family_empty_for_cyclic():
    from hyptube.hcore import Isometry
    from hyptube.lifts import GroupPresentation

    G = GroupPresentation(
        ("a",), (Isometry.from_matrix(math.sqrt(3), 0, 0, 1 / math.sqrt(3)),)
    )
    L = lifts_of_geodesic(G, Word((1,)), 3)
    assert len(build_family(L, cutoff=4.0)) == 0


def test_build_family_sorted_and_separating(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 3)
    F = build_family(L, cutoff=6.0)
    ds = [m.ortho.d for m in F.members]
    assert ds == sorted(ds)
    for m in F.members:
        lift = L.lifts[m.lift_index]
        for p in (F.p_plus, F.p_minus):
            for q in lift.geodesic.endpoints:
                assert separates(m.circle, p, q)
        # the disc misses 0 = p_minus, with |c| / r = cosh(d/2)
        c, r = m.disc
        assert abs(c) / r == pytest.approx(math.cosh(m.ortho.d / 2), rel=1e-9)


def test_build_family_equivariance(twolift, rng):
    L = lifts_of_geodesic(twolift, Word((1,)), 2)
    F = build_family(L, cutoff=4.0)
    h = random_isometry(rng)
    Fh = build_family(lifts_of_geodesic(twolift.conjugated(h), Word((1,)), 2), 4.0)
    assert len(Fh) == len(F)
    # equal ortholengths may permute under conjugation; match members by word
    by_word = {mh.word: mh for mh in Fh.members}
    for m in F.members:
        mh = by_word[m.word]
        assert m.ortho.d == pytest.approx(mh.ortho.d, abs=1e-9)
        for p in sample_points(m.circle, 8):
            assert mh.circle.contains(h.apply(p), 1e-6)


# ---------------------------------------------------------------------------
# separation decision


def test_triple_same_unit_circle():
    u = CircleOnSphere.circle(0, 1)
    assert separated([u, u, u], ideal(0), ideal("inf"))


@pytest.mark.parametrize(
    "discs, p, q, expected",
    [
        ([(r, 0.9) for r in ROOTS], 0, "inf", True),
        ([(r, 0.8) for r in ROOTS], 0, "inf", False),
        # separates although no circle does and p, q have equal sign vectors
        ([(-0.5, 1.0), (0.5, 1.0), (0, 0.6)], 0.8j, -0.8j, True),
    ],
    ids=["chain-0.9", "chain-0.8", "equal-signs"],
)
def test_triple_separates_known(discs, p, q, expected):
    c = [CircleOnSphere.circle(*d) for d in discs]
    assert separated(c, ideal(p), ideal(q)) == expected
    assert flood_fill_oracle(c, ideal(p), ideal(q)) == expected


def test_triple_near_collinear_centres():
    # collinear centres with q on their line, just outside the largest disc:
    # no triangle encloses q, but rounding can give all three orientations
    # one sign
    base = 0.3 + 0.2j
    for k in range(3000):
        u = cmath.exp(2j * math.pi * k / 3000)
        c = [CircleOnSphere.circle(base + t * u, r) for t, r in ((0, 0.6), (1, 0.6), (2, 1.5))]
        assert not separated(c, ideal("inf"), ideal(base + 3.6 * u)), k


def test_triple_point_on_circle():
    u = CircleOnSphere.circle(0, 1)
    with pytest.raises(PointOnCircle):
        separated([u, u, u], ideal(1), ideal("inf"))


def test_separates_union_no_circles():
    assert separating_triple([]).triple is None


@pytest.mark.parametrize("shift", [0.0, 1e-12])
def test_repeated_circle_at_distinct_indices_does_not_separate(shift):
    # two copies of one chain circle and a second one: at most two distinct
    # discs, whose complement is connected, although the full chain separates
    c0, c1 = (CircleOnSphere.circle(r, 0.9) for r in ROOTS[:2])
    copy = CircleOnSphere.circle(ROOTS[0] + shift, 0.9)
    assert not separated([c0, copy, c1], ideal(0), ideal("inf"))


def test_near_tangency_flagged():
    tangent_chain = [CircleOnSphere.circle(r, math.sqrt(3) / 2) for r in ROOTS]
    # only the multiset of three distinct circles reads the discs
    assert separating_triple(to_discs(tangent_chain, ideal("inf"), ideal(0))).flagged == 1


def test_twolift_horizon8_near_tangent_triple_is_decided():
    gf = parse_group_file((GROUPS / "twolift.grp").read_text())
    F = build_family(lifts_of_geodesic(gf.presentation, gf.word("delta"), 8), 4.0)
    res = separating_triple([F.members[i].disc for i in (0, 53, 56)])
    assert res.flagged > 0


def test_mobius_invariance(rng):
    for _ in range(50):
        circles, p, q = random_circle_instance(rng)
        ref = separated(circles, p, q)
        h = random_isometry(rng)
        moved = [c.transformed(h) for c in circles]
        assert separated(moved, h.apply(p), h.apply(q)) == ref


def test_submultiset_monotonicity(rng):
    for _ in range(50):
        circles, p, q = random_circle_instance(rng)
        full = separated(circles, p, q)
        if not full:
            # no sub-multiset may separate either
            for i in range(3):
                assert not separated([circles[i]], p, q)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert not separated([circles[i], circles[j]], p, q)


def test_oracle_agreement_sample(rng):
    for k in range(100):
        circles, p, q = random_circle_instance(rng)
        exact = separated(circles, p, q)
        raster = flood_fill_oracle(circles, p, q, resolution=256, seed=k)
        assert exact == raster


# ---------------------------------------------------------------------------
# noncoalesceability


def test_shortcut_fires(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 1)
    F = build_family(L, cutoff=4.0)
    assert all(m.ortho.d / 2 > LOG3_HALF for m in F.members)
    v = noncoalesceable(F)
    assert v.kind == "noncoalesceable" and v.basis == "tube-shortcut"


def _per_multiset_search(F, budget):
    """(kind, triple, tested) from one separation call per multiset."""
    tested = 0
    for idx in combinations_with_replacement(range(len(F)), 3):
        if tested >= budget:
            return "inconclusive", None, tested
        tested += 1
        if separated([F.members[i].circle for i in idx], F.p_plus, F.p_minus):
            return "coalescing", idx, tested
    return "noncoalesceable", None, tested


@pytest.mark.parametrize("budget", [50_000, 7, 1])
def test_family_search_matches_per_multiset_calls(budget):
    gf = parse_group_file((GROUPS / "shorttube.grp").read_text())
    F = build_family(lifts_of_geodesic(gf.presentation, gf.word("delta"), 5), 4.0)
    v = noncoalesceable(F, budget)
    assert v.basis != "tube-shortcut"
    assert (v.kind, v.triple, v.tested) == _per_multiset_search(F, budget)


def test_shortcut_agrees_with_exhaustive(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 2)
    F = build_family(L, cutoff=4.0)
    v = separating_triple([m.disc for m in F.members])
    assert v.kind == "noncoalesceable" and v.basis == "exhaustive-triples"
    assert v.tested > 0


def test_coalescing_chain_family():
    v = noncoalesceable(chain_family(0.9))
    assert v.kind == "coalescing"
    assert v.triple is not None and len(v.triple) == 3
    # the reported triple really separates
    F = chain_family(0.9)
    cs = [F.members[i].circle for i in v.triple]
    assert separated(cs, F.p_plus, F.p_minus)


def test_no_coalescing_sparse_chain():
    v = noncoalesceable(chain_family(0.8))
    assert v.kind == "noncoalesceable" and v.basis == "exhaustive-triples"
    assert v.tested == 10  # C(3+2,3) multisets


def test_empty_family_noncoalesceable():
    F = InsulatorFamily(ideal(0), ideal("inf"), [])
    assert noncoalesceable(F).kind == "noncoalesceable"


def test_budget_exhaustion():
    v = noncoalesceable(chain_family(0.8), budget=2)
    assert v.kind == "inconclusive" and v.basis == "budget-exhausted"
    assert v.tested == 2


def test_single_separating_circle_reported_as_repeated_triple():
    c = CircleOnSphere.circle(0, 1)
    (disc,) = base_chart_discs([c], ideal(0), ideal("inf"))
    members = [FamilyMember(c, disc, ComplexDistance(0.5, 0.0), Word((1,)), 1)]
    F = InsulatorFamily(ideal(0), ideal("inf"), members)
    v = noncoalesceable(F)
    assert v.kind == "coalescing" and v.triple == (0, 0, 0)


def test_sign_separating_circle_in_last_slot():
    # the unit circle separates 0 from oo by sign; the circle about 5 does not
    circles = [CircleOnSphere.circle(5, 1), CircleOnSphere.circle(0, 1)]
    v = separating_triple(to_discs(circles, ideal(0), ideal("inf")))
    assert v.triple == (0, 0, 1) and v.tested == 2


def test_visual_angle_consistency(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 2)
    F = build_family(L, cutoff=6.0)
    for m in F.members:
        if m.ortho.d / 2 > LOG3_HALF:
            assert visual_angle(m.ortho.d / 2) < 2 * math.pi / 3


# ---------------------------------------------------------------------------
# raster oracle behaviour


def test_flood_fill_unit_circle():
    assert flood_fill_oracle([CircleOnSphere.circle(0, 1)], ideal(0), ideal("inf"))


def test_flood_fill_no_circles():
    assert not flood_fill_oracle([], ideal(0), ideal(5))


def test_flood_fill_guard_band():
    with pytest.raises(GuardBandSwallowedPoint):
        flood_fill_oracle(
            [CircleOnSphere.circle(0, 1)], ideal(1.0001), ideal("inf"), resolution=64
        )


def test_flood_fill_resolution_floor():
    with pytest.raises(ValueError):
        flood_fill_oracle([CircleOnSphere.circle(0, 1)], ideal(0), ideal("inf"), 32)
