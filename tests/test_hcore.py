"""Hyperbolic primitives: fixtures from closed forms plus property tests."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ortho_min_oracle,
    random_coplanar_pair,
    random_disjoint_pair,
    random_isometry,
    random_loxodromic,
)
from hyptube.hcore import (
    CircleOnSphere,
    ComplexDistance,
    Geodesic,
    IdealPoint,
    Isometry,
    NotLoxodromic,
    PointOnCircle,
    SharedEndpoint,
    axis,
    classify,
    complex_length,
    ideal,
    midplane,
    orthodistance,
    visual_angle,
)
from sphere import from_sphere_plane, invert, sample_points, separates, to_sphere_plane

SQRT3 = math.sqrt(3.0)


def diag_lox(rot=0.0) -> Isometry:
    return Isometry.from_matrix(
        SQRT3 * cmath.exp(1j * rot), 0, 0, cmath.exp(-1j * rot) / SQRT3
    )


# ---------------------------------------------------------------------------
# Mobius action and classification


def test_mobius_identity():
    p = ideal(2 + 1j)
    assert Isometry.identity().apply(p).close_to(p)


def test_mobius_inversion():
    g = Isometry.from_matrix(0, -1, 1, 0)
    assert g.apply(ideal(2)).close_to(ideal(-0.5))
    assert g.apply(ideal(0)).close_to(ideal("inf"))


def test_mobius_scaling():
    assert diag_lox().apply(ideal(1)).close_to(ideal(3))


def test_mobius_composition_is_application(rng):
    for _ in range(50):
        g, h = random_isometry(rng), random_isometry(rng)
        p = ideal(complex(*rng.normal(size=2)))
        lhs = (g @ h).apply(p)
        rhs = g.apply(h.apply(p))
        assert lhs.close_to(rhs, 1e-9)


def test_classify():
    assert classify(Isometry.identity()) == "identity"
    assert classify(Isometry.from_matrix(-1, 0, 0, -1)) == "identity"
    assert classify(Isometry.from_matrix(1, 1, 0, 1)) == "parabolic"
    assert classify(diag_lox()) == "loxodromic"
    assert classify(Isometry.from_matrix(3, -3, 1, -3)) == "elliptic"
    rot = Isometry.from_matrix(cmath.exp(0.3j), 0, 0, cmath.exp(-0.3j))
    assert classify(rot) == "elliptic"


def test_classify_conjugated_involution():
    # g of groups/shorttube.grp; conjugated near the identity, its tr^2 rounds
    # to about -5e-32 for seeds 0, 4 and 7 instead of exactly 0
    g = Isometry.from_matrix(
        -1.1276259652063809j, 0.61239182501843326j,
        -0.44340944198503701j, 1.1276259652063809j,
    )
    for seed in range(8):
        e = np.random.default_rng(seed).normal(scale=1e-3, size=8)
        h = Isometry.from_matrix(
            complex(1 + e[0], e[1]), complex(e[2], e[3]),
            complex(e[4], e[5]), complex(1 + e[6], e[7]),
        )
        assert classify(h @ g @ h.inverse()) == "elliptic"


# ---------------------------------------------------------------------------
# complex length and axes


def test_complex_length_diagonal():
    cl = complex_length(diag_lox())
    assert cl.d == pytest.approx(math.log(3), abs=1e-12)
    assert cl.theta == pytest.approx(0.0, abs=1e-12)


def test_complex_length_with_rotation():
    cl = complex_length(diag_lox(math.pi / 8))
    assert cl.d == pytest.approx(math.log(3), abs=1e-12)
    assert cl.theta == pytest.approx(math.pi / 4, abs=1e-12)


def test_complex_length_conjugation_invariance(rng):
    for _ in range(1000):
        g = random_loxodromic(rng)
        h = random_isometry(rng)
        c1 = complex_length(g)
        c2 = complex_length(h @ g @ h.inverse())
        assert c1.close_to(c2, 1e-9)


def test_complex_length_rejects_non_loxodromic():
    with pytest.raises(NotLoxodromic):
        complex_length(Isometry.from_matrix(1, 1, 0, 1))
    with pytest.raises(NotLoxodromic):
        complex_length(Isometry.identity())


def test_axis_diagonal_and_translate():
    g = diag_lox()
    assert axis(g).close_to(Geodesic.through(0, math.inf))
    h = Isometry.from_matrix(1, 1, 0, 1)
    assert axis(h @ g @ h.inverse()).close_to(Geodesic.through(1, math.inf))


def test_axis_endpoints_are_fixed(rng):
    for _ in range(100):
        g = random_loxodromic(rng)
        for p in axis(g).endpoints:
            assert g.apply(p).close_to(p, 1e-9)


# ---------------------------------------------------------------------------
# orthodistance and midplanes


def test_orthodistance_fixture():
    d = orthodistance(Geodesic.through(0, math.inf), Geodesic.through(1, 3))
    assert d.d == pytest.approx(math.acosh(2), abs=1e-9)
    assert d.theta == pytest.approx(0.0, abs=1e-9)


def test_orthodistance_vs_minimization_oracle():
    g1 = Geodesic.through(0, math.inf)
    g2 = Geodesic.through(1, 3)
    assert orthodistance(g1, g2).d == pytest.approx(ortho_min_oracle(g1, g2), abs=1e-6)


def test_orthodistance_intersecting():
    d = orthodistance(Geodesic.through(0, math.inf), Geodesic.through(-1, 1))
    assert d.d == pytest.approx(0.0, abs=1e-12)
    assert d.theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_orthodistance_isometry_invariance(rng):
    g1 = Geodesic.through(0, math.inf)
    g2 = Geodesic.through(1, 3)
    ref = orthodistance(g1, g2)
    for _ in range(100):
        h = random_isometry(rng)
        moved = orthodistance(h.apply_geodesic(g1), h.apply_geodesic(g2))
        assert moved.d == pytest.approx(ref.d, abs=1e-9)


def test_orthodistance_shared_endpoint():
    with pytest.raises(SharedEndpoint):
        orthodistance(Geodesic.through(0, math.inf), Geodesic.through(0, 1))


def test_orthodistance_oracle_on_random_pairs(rng):
    for _ in range(200):
        g1, g2 = random_disjoint_pair(rng)
        assert orthodistance(g1, g2).d == pytest.approx(
            ortho_min_oracle(g1, g2), abs=1e-6
        )


def test_midplane_fixture():
    m = midplane(Geodesic.through(0, math.inf), Geodesic.through(1, 3))
    assert m.center == pytest.approx(3.0, abs=1e-9)
    assert m.radius == pytest.approx(math.sqrt(6), abs=1e-9)


def test_midplane_concentric():
    m = midplane(Geodesic.through(-1, 1), Geodesic.through(-3, 3))
    assert abs(m.center) < 1e-9
    assert m.radius == pytest.approx(SQRT3, abs=1e-9)


def test_midplane_symmetric(rng):
    for _ in range(50):
        g1, g2 = random_disjoint_pair(rng)
        assert midplane(g1, g2).close_to(midplane(g2, g1), 1e-7)


def test_midplane_swaps_endpoints_coplanar(rng):
    # The exact endpoint swap under inversion holds when the two lines are
    # coplanar (zero twist).  Twisted pairs are covered by the next test.
    for _ in range(200):
        g1, g2 = random_coplanar_pair(rng)
        m = midplane(g1, g2)
        for p in g1.endpoints:
            img = invert(m, p)
            assert any(img.close_to(q, 1e-9) for q in g2.endpoints)
        for q in g2.endpoints:
            img = invert(m, q)
            assert any(img.close_to(p, 1e-9) for p in g1.endpoints)


def test_midplane_inversion_twisted(rng):
    # With twist theta, inversion carries line 1 onto the line through the
    # far orthocurve foot rotated back by theta, so the image meets line 2
    # at angle exactly |theta|.
    count = 0
    while count < 200:
        g1, g2 = random_disjoint_pair(rng)
        theta = abs(orthodistance(g1, g2).theta)
        if theta < 1e-2 or theta > math.pi / 2 - 1e-2:
            continue
        m = midplane(g1, g2)
        img = Geodesic(invert(m, g1.endpoints[0]), invert(m, g1.endpoints[1]))
        meet = orthodistance(img, g2)
        assert meet.d == pytest.approx(0.0, abs=1e-7)
        assert abs(meet.theta) == pytest.approx(theta, abs=1e-7)
        count += 1


def test_midplane_separates_endpoints(rng):
    for _ in range(200):
        g1, g2 = random_disjoint_pair(rng)
        m = midplane(g1, g2)
        for p in g1.endpoints:
            for q in g2.endpoints:
                assert separates(m, p, q)


def test_midplane_isometry_equivariance(rng):
    g1 = Geodesic.through(0, math.inf)
    g2 = Geodesic.through(1, 3)
    m = midplane(g1, g2)
    for _ in range(50):
        h = random_isometry(rng)
        moved = midplane(h.apply_geodesic(g1), h.apply_geodesic(g2))
        for p in sample_points(m, 16):
            assert moved.contains(h.apply(p), 1e-7)


# ---------------------------------------------------------------------------
# separation by one circle, visual angle


def test_separates_unit_circle():
    u = CircleOnSphere.circle(0, 1)
    assert separates(u, ideal(0), ideal("inf"))
    assert not separates(u, ideal(2), ideal(3))
    with pytest.raises(PointOnCircle):
        separates(u, ideal(1), ideal(3))


def test_separates_midplane_fixture():
    m = CircleOnSphere.circle(3, math.sqrt(6))
    for p in (ideal(0), ideal("inf")):
        for q in (ideal(1), ideal(3)):
            assert separates(m, p, q)


def test_visual_angle_values():
    assert visual_angle(0.0) == pytest.approx(math.pi, abs=1e-15)
    assert visual_angle(math.log(3) / 2) == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert visual_angle(math.acosh(2)) == pytest.approx(math.pi / 3, abs=1e-12)


@given(
    st.floats(min_value=0, max_value=20, allow_nan=False),
    st.floats(min_value=1e-6, max_value=5, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_visual_angle_strictly_decreasing(d, step):
    assert visual_angle(d + step) < visual_angle(d)


# ---------------------------------------------------------------------------
# representation details


def test_isometry_normalization_and_sign_equality():
    g = Isometry.from_matrix(2, 0, 0, 2)
    assert abs(g.det() - 1) < 1e-12
    assert g.close_to(Isometry.from_matrix(-1, 0, 0, -1))
    assert g.is_identity()


def test_geodesic_canonical_order():
    g1 = Geodesic(ideal(3), ideal(1))
    g2 = Geodesic(ideal(1), ideal(3))
    assert g1 == g2
    g3 = Geodesic(ideal("inf"), ideal(0))
    assert not g3.endpoints[0].is_infinity and g3.endpoints[1].is_infinity


def test_geodesic_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        Geodesic(ideal(1), ideal(1))


def test_ideal_point_projective_equality():
    assert IdealPoint(2 + 2j, 2).close_to(ideal(1 + 1j))
    assert IdealPoint(5, 0).close_to(ideal("inf"))
    assert not ideal(1).close_to(ideal(1 + 1e-3j))


def test_complex_distance_angle_normalization():
    assert ComplexDistance(1.0, 3 * math.pi).theta == pytest.approx(math.pi)
    assert ComplexDistance(1.0, -math.pi).theta == pytest.approx(math.pi)


@given(st.integers(min_value=-4, max_value=4).filter(lambda s: s != 0).map(int))
def test_word_reduction_single(s):
    from hyptube.lifts import Word

    assert Word((s, -s)).letters == ()


def test_circle_roundtrips():
    c = CircleOnSphere.circle(2 + 1j, 0.75)
    assert c.center == pytest.approx(2 + 1j, abs=1e-12)
    assert c.radius == pytest.approx(0.75, abs=1e-12)
    n, h = to_sphere_plane(c)
    c2 = from_sphere_plane(n, h)
    assert c.close_to(c2, 1e-9)


def test_circle_transform_is_pointwise(rng):
    c = CircleOnSphere.circle(1 - 2j, 1.3)
    for _ in range(25):
        h = random_isometry(rng)
        tc = c.transformed(h)
        for p in sample_points(c, 16):
            assert tc.contains(h.apply(p), 1e-7)


def test_line_form():
    l = CircleOnSphere(0.0, 1.0, -4.0)  # vertical line Re z = 2
    assert l.is_line
    assert l.contains(ideal(2 + 5j))
    assert l.contains(ideal("inf"))
    assert separates(l, ideal(0), ideal(3))
