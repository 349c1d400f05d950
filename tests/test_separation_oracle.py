"""The disc search in the base chart against the circle-based search it
replaced (tests/separation_oracle.py): every Verdict field must agree."""

import cmath
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_circle_instance, random_isometry, to_discs
from hyptube.cli import parse_group_file
from hyptube.hcore import CircleOnSphere, ideal
from hyptube.insulator import build_family, separating_triple
from hyptube.lifts import lifts_of_geodesic
from separation_oracle import circle_separating_triple

GROUPS = Path(__file__).resolve().parents[1] / "groups"
BUDGETS = (50_000, 7, 1)


def _fields(v):
    return v.kind, v.basis, v.triple, v.tested, v.flagged


def _family(name: str, horizon: int, seed=None):
    G = parse_group_file((GROUPS / f"{name}.grp").read_text())
    pres = G.presentation
    if seed is not None:
        pres = pres.conjugated(random_isometry(np.random.default_rng(seed)))
    return build_family(lifts_of_geodesic(pres, G.word("delta"), horizon), 4.0)


def _compare(F, budget):
    got = separating_triple([m.disc for m in F.members], budget)
    want = circle_separating_triple([m.circle for m in F.members], F.p_plus, F.p_minus, budget)
    assert _fields(got) == _fields(want)
    return got


CORPUS = [("shorttube", h, None) for h in range(1, 7)] + [("twolift", h, None) for h in range(1, 9)]
CONJUGATES = [("shorttube", 5, s) for s in range(3)] + [("twolift", 6, s) for s in range(3)]


@pytest.fixture(scope="module")
def families():
    return [_family(*key) for key in CORPUS + CONJUGATES]


@pytest.mark.parametrize("budget", BUDGETS)
def test_disc_search_matches_circle_oracle_on_families(families, budget):
    verdicts = [_compare(F, budget) for F in families]
    if budget == BUDGETS[0]:
        # twolift at horizon 8 reads near-tangent pairs and exhausts the budget
        assert any(v.flagged for v in verdicts)
        assert any(v.kind == "noncoalesceable" for v in verdicts)
        assert any(v.kind == "inconclusive" for v in verdicts)


@pytest.mark.parametrize("margin", [0.04, 0.0])
def test_disc_search_matches_circle_oracle_on_random_circles(margin):
    rng = np.random.default_rng(20261019)
    kinds = set()
    for k in range(1500):
        circles, p, q = random_circle_instance(rng, n=3 + k % 3, margin=margin)
        got = separating_triple(to_discs(circles, p, q))
        assert _fields(got) == _fields(circle_separating_triple(circles, p, q)), k
        kinds.add(got.kind)
    assert kinds == {"coalescing", "noncoalesceable"}


def _random_chain(rng):
    """Three to five circles of one radius centred on the unit circle, moved
    by a random isometry with oo -> p and 0 -> q.  No circle holds 0, so only
    three distinct discs can separate.  Every fourth instance is the chain of
    tangent circles at the cube roots of unity."""
    tangent = rng.integers(4) == 0
    if tangent:
        angles, r = [2 * math.pi * k / 3 for k in range(3)], math.sqrt(3) / 2
    else:
        angles, r = rng.uniform(0, 2 * math.pi, int(rng.integers(3, 6))), rng.uniform(0.6, 0.95)
    h = random_isometry(rng)
    circles = [CircleOnSphere.circle(cmath.exp(1j * a), r).transformed(h) for a in angles]
    return circles, h.apply(ideal("inf")), h.apply(ideal(0)), tangent


def test_disc_search_matches_circle_oracle_on_random_chains():
    rng = np.random.default_rng(20261019)
    kinds = set()
    for k in range(1500):
        circles, p, q, tangent = _random_chain(rng)
        got = separating_triple(to_discs(circles, p, q))
        want = circle_separating_triple(circles, p, q)
        if tangent:
            # whether tangent discs meet is decided by rounding, which differs
            # between the two charts; both must flag the one triple
            assert got.flagged == want.flagged == 1, k
        else:
            assert _fields(got) == _fields(want), k
            kinds.add((got.kind, len(set(got.triple or ()))))
    assert kinds == {("coalescing", 3), ("noncoalesceable", 0)}
