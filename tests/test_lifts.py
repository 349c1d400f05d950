"""Enumeration, lift sets, ortholength spectrum, tube radius."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_isometry, twolift_presentation
from dedup_oracle import ScanDeduper
from hyptube import lifts
from hyptube.bounds import LOG3_HALF
from hyptube.cli import parse_group_file
from hyptube.hcore import TOL, Geodesic, Isometry, NotLoxodromic, ideal, orthodistance
from hyptube.lifts import (
    DEDUP_TOL,
    GroupPresentation,
    Lift,
    LiftSet,
    Word,
    _Deduper,
    check_log3_tube,
    enumerate_elements,
    lifts_of_geodesic,
    ortho_spectrum,
    spectrum_is_stable,
    tube_radius,
)

GROUPS = Path(__file__).resolve().parents[1] / "groups"
CORPUS = sorted(GROUPS.glob("*.grp"))
SQRT3 = math.sqrt(3.0)
ACOSH2 = math.acosh(2.0)


def free_presentation() -> GroupPresentation:
    a = Isometry.from_matrix(SQRT3, 0, 0, 1 / SQRT3)
    b = Isometry.from_matrix(1, 2, 0, 1)
    return GroupPresentation(("a", "b"), (a, b))


def cyclic_presentation() -> GroupPresentation:
    return GroupPresentation(("a",), (Isometry.from_matrix(SQRT3, 0, 0, 1 / SQRT3),))


# ---------------------------------------------------------------------------
# words


def test_word_free_reduction():
    assert Word((1, -1)).letters == ()
    assert Word((1, 2, -2, -1, 1)).letters == (1,)
    assert Word((1, 2, -1)).letters == (1, 2, -1)


def test_word_inverse():
    w = Word((1, 2, -1))
    assert w.inverse().letters == (1, -2, -1)
    assert Word(w.letters + w.inverse().letters).letters == ()


def test_word_sort_order():
    # a < A < b < B
    ws = [Word((2,)), Word((-1,)), Word((1,)), Word((-2,))]
    ws.sort(key=Word.sort_key)
    assert [w.letters for w in ws] == [(1,), (-1,), (2,), (-2,)]


def test_parse_word_roundtrip():
    G = free_presentation()
    w = G.parse_word("abAB")
    assert w.letters == (1, 2, -1, -2)
    assert w.to_string(G.names) == "abAB"
    with pytest.raises(KeyError):
        G.parse_word("axb")


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_maxlen_zero():
    ball = enumerate_elements(free_presentation(), 0)
    assert len(ball) == 1
    g, w = ball.elements[0]
    assert g.is_identity() and len(w) == 0


@pytest.mark.parametrize("maxlen,count", [(1, 5), (2, 17), (3, 53), (4, 161)])
def test_enumerate_free_group_counts(maxlen, count):
    # reduced words in a rank-2 free group: 1 + sum 4 * 3^(k-1)
    sanov = GroupPresentation(
        ("a", "b"),
        (Isometry.from_matrix(1, 2, 0, 1), Isometry.from_matrix(1, 0, 2, 1)),
    )
    ball = enumerate_elements(sanov, maxlen)
    assert len(ball) == count
    assert ball.relations == []


def test_enumerate_mixed_pair_ball_of_two():
    # diag(sqrt3) and a parabolic: no collapse up to length 2
    ball = enumerate_elements(free_presentation(), 2)
    assert len(ball) == 17
    assert ball.relations == []


def test_enumerate_involution_collapse():
    g = Isometry.from_matrix(3, -3, 1, -3)  # g^2 = -I after normalization
    ball = enumerate_elements(GroupPresentation(("g",), (g,)), 4)
    assert len(ball) == 2
    assert any(w.letters in ((1, 1), (-1, -1)) for w in ball.relations)


def test_enumerate_dedup_soundness(rng):
    G = GroupPresentation(("a", "b"), (random_isometry(rng), random_isometry(rng)))
    ball = enumerate_elements(G, 3)
    for i, (g1, _) in enumerate(ball.elements):
        for g2, _ in ball.elements[i + 1 :]:
            assert not g1.close_to(g2, 1e-9)


def test_enumerate_keeps_shortest_words_sorted():
    ball = enumerate_elements(free_presentation(), 2)
    lens = [len(w) for _, w in ball.elements]
    assert lens == sorted(lens)
    for g, w in ball.elements:
        prod = Isometry.identity()
        for s in w.letters:
            prod = prod @ (
                free_presentation().generators[abs(s) - 1]
                if s > 0
                else free_presentation().generators[abs(s) - 1].inverse()
            )
        assert prod.close_to(g, 1e-9)


# ---------------------------------------------------------------------------
# lift sets


def test_cyclic_group_single_lift():
    L = lifts_of_geodesic(cyclic_presentation(), Word((1,)), 4)
    assert len(L.lifts) == 1
    assert L.base.close_to(Geodesic.through(0, math.inf))


def test_twolift_fixture(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 1)
    geos = [lift.geodesic for lift in L.lifts]
    assert geos[0].close_to(Geodesic.through(0, math.inf))
    assert any(g.close_to(Geodesic.through(1, 3), 1e-9) for g in geos)


def test_lifts_are_word_images(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 2)
    for lift in L.lifts:
        img = twolift.element(lift.word).apply_geodesic(L.base)
        assert img.close_to(lift.geodesic, 1e-7)


def test_lifts_rejects_non_loxodromic(twolift):
    with pytest.raises(NotLoxodromic):
        lifts_of_geodesic(twolift, Word((2,)), 1)  # g is elliptic


def test_lifts_equivariance(twolift, rng):
    L = lifts_of_geodesic(twolift, Word((1,)), 2)
    for _ in range(5):
        h = random_isometry(rng)
        Lh = lifts_of_geodesic(twolift.conjugated(h), Word((1,)), 2)
        assert len(Lh.lifts) == len(L.lifts)
        for lift in L.lifts:
            moved = h.apply_geodesic(lift.geodesic)
            assert any(moved.close_to(l2.geodesic, 1e-7) for l2 in Lh.lifts)


def test_displacement_diagnostic(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 2)
    assert L.displacement is not None and L.displacement > 0


# ---------------------------------------------------------------------------
# spectrum and tube radius


def test_spectrum_empty_for_cyclic():
    L = lifts_of_geodesic(cyclic_presentation(), Word((1,)), 4)
    entries, diags = ortho_spectrum(L, cutoff=10.0)
    assert entries == [] and diags == []


def test_spectrum_twolift(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 1)
    entries, _ = ortho_spectrum(L, cutoff=10.0)
    assert len(entries) == 1
    assert entries[0].distance.d == pytest.approx(ACOSH2, abs=1e-9)
    assert entries[0].word.to_string(twolift.names) == "g"


def test_spectrum_rejects_bad_cutoff(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 1)
    with pytest.raises(ValueError):
        ortho_spectrum(L, cutoff=0.0)


def test_spectrum_sorted_and_conjugation_invariant(twolift, rng):
    L = lifts_of_geodesic(twolift, Word((1,)), 3)
    entries, _ = ortho_spectrum(L, cutoff=6.0)
    ds = [e.distance.d for e in entries]
    assert ds == sorted(ds)
    h = random_isometry(rng)
    Lh = lifts_of_geodesic(twolift.conjugated(h), Word((1,)), 3)
    eh, _ = ortho_spectrum(Lh, cutoff=6.0)
    assert len(eh) == len(entries)
    for a, b in zip(entries, eh):
        assert a.distance.d == pytest.approx(b.distance.d, abs=1e-9)


def test_tube_radius_cyclic_unbounded():
    L = lifts_of_geodesic(cyclic_presentation(), Word((1,)), 4)
    tr = tube_radius(L)
    assert tr.radius is None and tr.witness is None


def test_tube_radius_twolift(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 1)
    tr = tube_radius(L)
    assert tr.radius == pytest.approx(ACOSH2 / 2.0, abs=1e-9)
    assert tr.witness.word.to_string(twolift.names) == "g"
    assert tr.horizon == 1


def test_tube_radius_monotone_and_spectrum_subset(twolift):
    prev_r = math.inf
    prev_ds = []
    for maxlen in (1, 2, 3, 4):
        L = lifts_of_geodesic(twolift, Word((1,)), maxlen)
        tr = tube_radius(L)
        r = tr.radius if tr.radius is not None else math.inf
        assert r <= prev_r + 1e-12
        entries, _ = ortho_spectrum(L, cutoff=4.0)
        ds = [e.distance.d for e in entries]
        # every entry seen at the smaller horizon persists
        remaining = list(ds)
        for d in prev_ds:
            hit = min(range(len(remaining)), key=lambda i: abs(remaining[i] - d))
            assert abs(remaining[hit] - d) < 1e-9
            remaining.pop(hit)
        prev_r, prev_ds = r, ds


# ---------------------------------------------------------------------------
# the (log 3)/2 verdict


def test_check_log3_holds_twolift(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 1)
    assert check_log3_tube(L) == "holds"


def test_check_log3_unbounded_cyclic():
    L = lifts_of_geodesic(cyclic_presentation(), Word((1,)), 4)
    assert check_log3_tube(L) == "holds"


def test_check_log3_inconclusive_without_stability():
    L = lifts_of_geodesic(cyclic_presentation(), Word((1,)), 0)
    assert spectrum_is_stable(L, cutoff=1.2) is None
    assert check_log3_tube(L) == "inconclusive"


def synthetic_liftset(d: float) -> LiftSet:
    """Base (0,oo) plus one synthetic lift at real orthodistance d."""
    a = math.cosh(d) - 1.0
    b = math.cosh(d) + 1.0  # (a+b)/(b-a) = cosh d
    base = Geodesic.through(0.0, math.inf)
    other = Geodesic(ideal(a), ideal(b))
    return LiftSet(
        base=base,
        lifts=[Lift(base, Word()), Lift(other, Word((2,)))],
        horizon=2,
    )


def test_check_log3_fails_on_short_orthodistance():
    L = synthetic_liftset(1.0)
    assert orthodistance(L.base, L.lifts[1].geodesic).d == pytest.approx(1.0, 1e-12)
    assert check_log3_tube(L) == "fails"  # radius 0.5 < (log 3)/2


# ---------------------------------------------------------------------------
# one spectrum per lift set


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_stability_is_no_entry_at_the_horizon(path):
    gf = parse_group_file(path.read_text())
    G, w = gf.presentation, gf.word("delta")
    prev = lifts_of_geodesic(G, w, 0)
    for h in range(1, 7):
        L = lifts_of_geodesic(G, w, h)
        for cutoff in (2.0 * LOG3_HALF, 2.0 * (LOG3_HALF + TOL), 4.0):
            cur, _ = ortho_spectrum(L, cutoff)
            old, _ = ortho_spectrum(prev, cutoff)
            at_horizon = any(len(e.word) == h for e in cur)
            same = [e.word for e in cur] == [e.word for e in old] and all(
                a.distance.d == pytest.approx(b.distance.d, abs=1e-12)
                for a, b in zip(cur, old)
            )
            assert spectrum_is_stable(L, cutoff) is (not at_horizon) is same
        prev = L


def test_spectrum_filters_the_cached_list(twolift):
    L = lifts_of_geodesic(twolift, Word((1,)), 3)
    full, _ = L.spectrum
    assert L.spectrum[0] is full
    entries, _ = ortho_spectrum(L, cutoff=2.0)
    assert entries == [e for e in full if e.distance.d <= 2.0]
    assert tube_radius(L).witness == full[0]


# ---------------------------------------------------------------------------
# hash-grid deduplication against the scan oracle

CELL = _Deduper._CELL


def _coordinate(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        return float(rng.normal())
    if kind == 1:
        return float(rng.integers(-2, 3))  # exact zeros and small integers
    # near a cell edge, where x / CELL + 0.5 is an integer
    return (int(rng.integers(-40, 40)) - 0.5) * CELL + float(rng.uniform(-DEDUP_TOL, DEDUP_TOL))


def _fresh_row(rng, kind):
    if kind == "complex":
        return tuple(complex(_coordinate(rng), _coordinate(rng)) for _ in range(4))
    return tuple(_coordinate(rng) for _ in range(6))


def _alt(row, kind):
    return tuple(-x for x in row) if kind == "complex" else row[3:] + row[:3]


def _moved(rng, row):
    """row with every entry moved by the same step: 0, tol (1 -/+ 1e-6) or
    up to 2 tol, along an axis or in a random direction."""
    step = DEDUP_TOL * float(rng.choice([0.0, 1 - 1e-6, 1 + 1e-6, rng.uniform(0, 2)]))
    out = []
    for x in row:
        if isinstance(x, complex):
            turn = rng.choice([0.0, 0.25, 0.5, 0.75, rng.uniform(0, 1)])
            out.append(x + step * cmath.exp(2j * math.pi * turn))
        else:
            out.append(x + step * float(rng.choice([-1.0, 1.0])))
    return tuple(out)


def _home(row):
    coords = []
    for x in row:
        coords += [x.real, x.imag] if isinstance(x, complex) else [x]
    return tuple(math.floor(c / CELL + 0.5) for c in coords)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", ["complex", "real"])
def test_deduper_matches_scan_oracle(kind, seed):
    rng = np.random.default_rng([seed, len(kind)])
    grid, scan = _Deduper(), ScanDeduper()
    stored = []
    seen = dict.fromkeys(["hit", "miss", "alt-only", "several", "straddle", "near-tol"], 0)
    for _ in range(1200):
        op = int(rng.integers(4))
        if op == 0 or not stored:
            row = _fresh_row(rng, kind)
        else:
            row = _moved(rng, stored[int(rng.integers(len(stored)))])
            if op == 1:
                row = _alt(row, kind)
        alt = _alt(row, kind)
        want = scan.find(row, alt)
        assert grid.find(row, alt) == want
        if stored:
            arr = np.array(stored)
            d1 = np.abs(arr - np.array(row)).max(axis=1)
            d2 = np.abs(arr - np.array(alt)).max(axis=1)
            d = np.minimum(d1, d2)
            seen["near-tol"] += bool((np.abs(d / DEDUP_TOL - 1) < 1e-5).any())
            if want is not None:
                seen["alt-only"] += bool(d1.min() > DEDUP_TOL)
                seen["several"] += int((d <= DEDUP_TOL).sum() > 1)
                seen["straddle"] += _home(stored[want]) not in (_home(row), _home(alt))
        seen["miss" if want is None else "hit"] += 1
        if want is None or op == 3:  # op 3 stores near-duplicates, even exact ones
            assert grid.add(row) == scan.add(row) == len(stored)
            stored.append(row)
    assert min(seen.values()) > 0, seen


def figure_eight_presentation() -> GroupPresentation:
    """The figure-eight knot group in Riley's parabolic representation."""
    omega = cmath.exp(2j * math.pi / 3)
    return GroupPresentation(
        ("x", "y"),
        (Isometry.from_matrix(1, 1, 0, 1), Isometry.from_matrix(1, 0, -omega, 1)),
    )


@pytest.mark.parametrize(
    "maxlen,count", [(1, 5), (2, 17), (3, 53), (4, 161), (5, 475), (6, 1375), (7, 3955)]
)
def test_figure_eight_ball_matches_scan_oracle(maxlen, count, monkeypatch):
    # free-group counts up to horizon 4; relations collapse the ball from 5 on
    G = figure_eight_presentation()
    ball = enumerate_elements(G, maxlen)
    monkeypatch.setattr(lifts, "_Deduper", ScanDeduper)
    ref = enumerate_elements(G, maxlen)
    assert len(ball) == count
    assert [(g.entries(), w) for g, w in ball] == [(g.entries(), w) for g, w in ref]
    assert ball.relations == ref.relations
    assert ball.warnings == ref.warnings


@pytest.mark.parametrize("name", ["shorttube", "twolift"])
def test_ball_and_lifts_at_depth(name, monkeypatch):
    gf = parse_group_file((GROUPS / f"{name}.grp").read_text())
    G, delta = gf.presentation, gf.word("delta")
    assert len(enumerate_elements(G, 10)) == 3070
    assert len(lifts_of_geodesic(G, delta, 10).lifts) == 1024
    words = [lift.word for lift in lifts_of_geodesic(G, delta, 8).lifts]
    monkeypatch.setattr(lifts, "_Deduper", ScanDeduper)
    assert words == [lift.word for lift in lifts_of_geodesic(G, delta, 8).lifts]
