"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints '[criterion N] <summary>: PASS' through the capture so the
lines appear in the pytest terminal output; a failed assertion keeps the line
from printing and fails the run.
"""

import math
import time

import cmath
import numpy as np
import pytest

from conftest import (
    ortho_min_oracle,
    random_circle_instance,
    random_coplanar_pair,
    random_disjoint_pair,
    random_isometry,
    separated,
    to_discs,
    twolift_presentation,
)
from hyptube.bounds import LOG3_HALF, long_geodesic_guarantee, short_geodesic_guarantee
from hyptube.hcore import (
    CircleOnSphere,
    ComplexDistance,
    Geodesic,
    ideal,
    midplane,
    orthodistance,
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
from hyptube.lifts import Word, check_log3_tube, lifts_of_geodesic, tube_radius
from raster_oracle import flood_fill_oracle
from sphere import invert, separates


def _report(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_visual_angle(capsys):
    err = abs(visual_angle(math.log(3) / 2) - 2 * math.pi / 3)
    assert err < 1e-12
    printed = f"{LOG3_HALF:.6f}"
    assert printed == "0.549306"
    _report(
        capsys,
        f"[criterion 1] visual_angle(ln3/2) = 2pi/3 within 1e-12 "
        f"(err {err:.1e}), threshold prints as {printed}: PASS",
    )


def test_criterion_2_orthodistance_fixture(capsys):
    g1 = Geodesic.through(0.0, math.inf)
    g2 = Geodesic.through(1.0, 3.0)
    d = orthodistance(g1, g2).d
    closed = abs(d - math.acosh(2.0))
    assert closed < 1e-9
    oracle = abs(d - ortho_min_oracle(g1, g2))
    assert oracle < 1e-6
    _report(
        capsys,
        f"[criterion 2] orthodistance((0,inf),(1,3)) = arccosh 2 within 1e-9 "
        f"(err {closed:.1e}) and within 1e-6 of minimization oracle "
        f"(err {oracle:.1e}): PASS",
    )


def test_criterion_3_midplane(capsys):
    t0 = time.perf_counter()
    m1 = midplane(Geodesic.through(0.0, math.inf), Geodesic.through(1.0, 3.0))
    assert abs(m1.center - 3.0) < 1e-9 and abs(m1.radius - math.sqrt(6)) < 1e-9
    m2 = midplane(Geodesic.through(-1.0, 1.0), Geodesic.through(-3.0, 3.0))
    assert abs(m2.center) < 1e-9 and abs(m2.radius - math.sqrt(3)) < 1e-9
    rng = np.random.default_rng(20260823)
    # exact inversion swap on 200 coplanar pairs (the swap is a reflection
    # symmetry only when the pair has zero twist; see the twisted check below)
    for _ in range(200):
        g1, g2 = random_coplanar_pair(rng)
        m = midplane(g1, g2)
        for p in g1.endpoints:
            assert any(invert(m, p).close_to(q, 1e-9) for q in g2.endpoints)
        for p in g1.endpoints:
            for q in g2.endpoints:
                assert separates(m, p, q)
    # separation plus the twist-corrected inversion invariant on 200 general pairs
    for _ in range(200):
        g1, g2 = random_disjoint_pair(rng)
        m = midplane(g1, g2)
        for p in g1.endpoints:
            for q in g2.endpoints:
                assert separates(m, p, q)
        img = Geodesic(invert(m, g1.endpoints[0]), invert(m, g1.endpoints[1]))
        meet = orthodistance(img, g2)
        assert meet.d < 1e-7  # inverted line passes through the far foot
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(
        capsys,
        "[criterion 3] midplane fixtures within 1e-9; inversion-swap "
        "(200 coplanar + 200 twisted pairs, 1e-9/1e-7) and separation "
        f"(400 pairs) hold in {dt:.1f}s: PASS",
    )


def test_criterion_4_arrangement_vs_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    agree = 0
    excluded = 0
    total = 500
    for k in range(total):
        circles, p, q = random_circle_instance(rng)
        res = separating_triple(to_discs(circles, p, q))
        exact = res.triple is not None
        if res.flagged > 0:
            excluded += 1
            continue
        raster = flood_fill_oracle(circles, p, q, resolution=512, seed=k)
        assert exact == raster
        agree += 1
    roots = [cmath.exp(2j * math.pi * j / 3) for j in range(3)]
    chain9 = [CircleOnSphere.circle(r, 0.9) for r in roots]
    chain8 = [CircleOnSphere.circle(r, 0.8) for r in roots]
    assert separated(chain9, ideal(0), ideal("inf"))
    assert not separated(chain8, ideal(0), ideal("inf"))
    dt = time.perf_counter() - t0
    assert dt < 60.0
    _report(
        capsys,
        f"[criterion 4] separation test vs flood-fill oracle (res 512, fixed seed): "
        f"{agree}/{total - excluded} agree ({excluded} near-tangent excluded), "
        f"chain 0.9 true / 0.8 false, in {dt:.1f}s: PASS",
    )


def test_criterion_5_tube_pipeline(capsys):
    L = lifts_of_geodesic(twolift_presentation(), Word((1,)), 1)
    tr = tube_radius(L)
    err = abs(tr.radius - math.acosh(2.0) / 2.0)
    assert err < 1e-6
    verdict = check_log3_tube(L)
    assert verdict == "holds"
    _report(
        capsys,
        f"[criterion 5] two-lift tube radius {tr.radius:.6f} = arccosh(2)/2 "
        f"within 1e-6 (err {err:.1e}), verdict {verdict}: PASS",
    )


def _random_above_threshold_family(rng, size):
    """Family of midplane circles to lines all beyond ortho d/2 > ln(3)/2."""
    base = Geodesic.through(0.0, math.inf)
    members = []
    k = 0
    while len(members) < size:
        k += 1
        d = float(rng.uniform(2 * LOG3_HALF + 0.05, 3.0))
        theta = float(rng.uniform(-math.pi / 2, math.pi / 2))
        w = cmath.cosh(complex(d, theta))
        u = complex(*rng.normal(size=2))
        if abs(u) < 0.1 or abs(w - 1.0) < 1e-6:
            continue
        v = u * (1.0 + w) / (w - 1.0)
        other = Geodesic(ideal(u), ideal(v))
        got = orthodistance(base, other)
        assert abs(got.d - d) < 1e-7
        circ = midplane(base, other)
        (disc,) = base_chart_discs([circ], ideal(0), ideal("inf"))
        members.append(FamilyMember(circ, disc, got, Word((1,)), len(members) + 1))
    members.sort(key=lambda m: m.ortho.d)
    return InsulatorFamily(ideal(0), ideal("inf"), members)


def test_criterion_6_shortcut_soundness(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    for _ in range(100):
        F = _random_above_threshold_family(rng, int(rng.integers(5, 9)))
        fast = noncoalesceable(F)
        assert fast.kind == "noncoalesceable" and fast.basis == "tube-shortcut"
        slow = separating_triple([m.disc for m in F.members])
        assert slow.kind == "noncoalesceable"
        assert slow.basis == "exhaustive-triples"
    dt = time.perf_counter() - t0
    assert dt < 120.0
    _report(
        capsys,
        f"[criterion 6] shortcut vs exhaustive triples agree (noncoalesceable) "
        f"on 100 above-threshold families in {dt:.1f}s: PASS",
    )


def test_criterion_7_thresholds(capsys):
    assert long_geodesic_guarantee(1.36) and not long_geodesic_guarantee(1.353)
    assert short_geodesic_guarantee(0.05, "meyerhoff")
    assert not short_geodesic_guarantee(0.0978, "meyerhoff")
    assert short_geodesic_guarantee(0.1, "gehring-martin")
    assert not short_geodesic_guarantee(0.19, "gehring-martin")
    _report(
        capsys,
        "[criterion 7] threshold predicates 1.353 / 0.0978 / 0.19 strict at "
        "boundaries: PASS",
    )


def test_criterion_8_equivariance(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)
    from hyptube.lifts import ortho_spectrum

    from test_bounds import short_tube_presentation

    for G, maxlen in [(twolift_presentation(), 2), (short_tube_presentation(), 2)]:
        L = lifts_of_geodesic(G, Word((1,)), maxlen)
        spec0 = sorted(e.distance.d for e in ortho_spectrum(L, 4.0)[0])
        tr0 = tube_radius(L).radius
        verdict0 = check_log3_tube(L)
        ins0 = noncoalesceable(build_family(L, 4.0)).kind
        for _ in range(5):
            h = random_isometry(rng)
            Lh = lifts_of_geodesic(G.conjugated(h), Word((1,)), maxlen)
            spec = sorted(e.distance.d for e in ortho_spectrum(Lh, 4.0)[0])
            assert len(spec) == len(spec0)
            assert max(abs(a - b) for a, b in zip(spec, spec0)) < 1e-7
            assert abs(tube_radius(Lh).radius - tr0) < 1e-7
            assert check_log3_tube(Lh) == verdict0
            assert noncoalesceable(build_family(Lh, 4.0)).kind == ins0
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(
        capsys,
        f"[criterion 8] spectrum, tube radius and verdicts invariant under "
        f"random conjugation (tol 1e-7) in {dt:.1f}s: PASS",
    )


def test_criterion_9_determinism(capsys):
    from pathlib import Path

    from hyptube.cli import run

    t0 = time.perf_counter()
    path = str(Path(__file__).resolve().parents[1] / "groups" / "twolift.grp")
    argv = ["check", path, "delta", "--max-word-length", "3"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second and first
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _report(
        capsys,
        f"[criterion 9] two `check` runs byte-identical "
        f"({len(first)} bytes) in {dt:.1f}s: PASS",
    )
