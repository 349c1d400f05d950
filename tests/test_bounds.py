"""Threshold predicates and the combined hypothesis report."""

import math
from pathlib import Path

import pytest

from conftest import twolift_presentation
from hyptube import lifts
from hyptube.cli import parse_group_file
from hyptube.bounds import (
    GM_LEN,
    LOG3_HALF,
    LONG_LEN,
    MEYERHOFF_LEN,
    HypothesisReport,
    InconsistentVerdicts,
    hypothesis_report,
    long_geodesic_guarantee,
    short_geodesic_guarantee,
)
from hyptube.hcore import Isometry
from hyptube.lifts import GroupPresentation, Word


def short_tube_presentation() -> GroupPresentation:
    """Axis (0,oo) plus an involution swapping it with a line at orthodistance 1."""
    a = math.cosh(1.0) - 1.0
    b = math.cosh(1.0) + 1.0  # (a+b)/(b-a) = cosh 1
    lox = Isometry.from_matrix(math.sqrt(3), 0, 0, 1 / math.sqrt(3))
    g = Isometry.from_matrix(b, -a * b, 1, -b)  # 0 <-> a, oo <-> b
    return GroupPresentation(("a", "g"), (lox, g))


# ---------------------------------------------------------------------------
# constants


def test_log3_half_value():
    assert LOG3_HALF == math.log(3.0) / 2.0
    assert abs(LOG3_HALF - 0.5493061443340549) < 1e-15
    assert f"{LOG3_HALF:.6f}" == "0.549306"


def test_threshold_constants():
    assert LONG_LEN == 1.353
    assert MEYERHOFF_LEN == 0.0978
    assert GM_LEN == 0.19


# ---------------------------------------------------------------------------
# predicates


def test_long_guarantee_strict():
    assert long_geodesic_guarantee(1.36)
    assert not long_geodesic_guarantee(1.353)  # strict boundary
    assert not long_geodesic_guarantee(0.5)
    with pytest.raises(ValueError):
        long_geodesic_guarantee(0.0)


def test_short_guarantee_strict():
    assert short_geodesic_guarantee(0.05, "meyerhoff")
    assert not short_geodesic_guarantee(0.1, "meyerhoff")
    assert short_geodesic_guarantee(0.1, "gehring-martin")
    assert not short_geodesic_guarantee(0.19, "gehring-martin")  # strict boundary
    assert not short_geodesic_guarantee(0.0978, "meyerhoff")  # strict boundary
    with pytest.raises(ValueError):
        short_geodesic_guarantee(0.1, "weeks")
    with pytest.raises(ValueError):
        short_geodesic_guarantee(-1.0)


# ---------------------------------------------------------------------------
# hypothesis report


def test_report_cyclic_holds():
    G = GroupPresentation(
        ("a",), (Isometry.from_matrix(math.sqrt(3), 0, 0, 1 / math.sqrt(3)),)
    )
    rep = hypothesis_report(G, Word((1,)), maxlen=3)
    assert rep.tube_radius is None
    assert rep.tube_verdict == "holds"
    assert rep.insulator_verdict == "noncoalesceable"
    assert rep.established
    assert rep.conclusion() == "hypothesis holds (within horizon)"


def test_report_twolift_holds():
    rep = hypothesis_report(twolift_presentation(), Word((1,)), maxlen=2)
    assert rep.tube_radius == pytest.approx(math.acosh(2) / 2, abs=1e-9)
    assert rep.tube_verdict == "holds"
    assert rep.established
    ds = [d for d, _, _ in rep.spectrum]
    assert ds == sorted(ds)
    assert rep.delta_length == pytest.approx(math.log(3), abs=1e-12)


def test_report_consistency_implication():
    # whenever the tube verdict holds, the insulator verdict must agree
    for G, w, n in [
        (twolift_presentation(), Word((1,)), 2),
        (short_tube_presentation(), Word((1,)), 2),
    ]:
        rep = hypothesis_report(G, w, maxlen=n)
        if rep.tube_verdict == "holds":
            assert rep.insulator_verdict == "noncoalesceable"


def test_report_short_tube_fails_threshold():
    rep = hypothesis_report(short_tube_presentation(), Word((1,)), maxlen=2)
    assert rep.tube_radius == pytest.approx(0.5, abs=1e-9)
    assert rep.tube_verdict == "fails"
    # radius below (log 3)/2, so the outcome rests on the insulator verdict
    assert rep.established == (rep.insulator_verdict == "noncoalesceable")


def test_report_injected_coalescing_family(monkeypatch):
    from test_insulator import chain_family

    monkeypatch.setattr(
        "hyptube.insulator.build_family", lambda L, cutoff: chain_family(0.9)
    )
    rep = hypothesis_report(short_tube_presentation(), Word((1,)), maxlen=2)
    assert rep.insulator_verdict == "coalescing"
    assert rep.insulator_triple is not None
    assert not rep.established
    assert rep.conclusion() == "hypothesis not established"


def test_report_inconsistent_verdicts_is_hard_failure(monkeypatch):
    from test_insulator import chain_family

    monkeypatch.setattr(
        "hyptube.insulator.build_family", lambda L, cutoff: chain_family(0.9)
    )
    with pytest.raises(InconsistentVerdicts):
        hypothesis_report(twolift_presentation(), Word((1,)), maxlen=1)


def test_report_to_dict_schema():
    rep = hypothesis_report(twolift_presentation(), Word((1,)), maxlen=1)
    d = rep.to_dict()
    assert d["schema_version"] == 1
    assert d["deltaword"] == "a"
    assert d["tube_verdict"] == "holds"
    assert isinstance(d["spectrum"], list) and {"d", "theta", "word"} <= set(
        d["spectrum"][0]
    )
    assert d["conclusion"] == rep.conclusion()
    assert d["notes"]


def test_report_guarantees_evaluated():
    rep = hypothesis_report(twolift_presentation(), Word((1,)), maxlen=1)
    # delta has length log 3 = 1.0986: below 1.353, above both short thresholds
    assert not rep.long_guarantee
    assert not rep.short_guarantee_meyerhoff
    assert not rep.short_guarantee_gehring_martin


def test_report_computes_each_orthodistance_once(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "groups" / "shorttube.grp"
    gf = parse_group_file(path.read_text())
    calls = []
    real = lifts.orthodistance

    def counted(g1, g2):
        calls.append((g1, g2))
        return real(g1, g2)

    monkeypatch.setattr(lifts, "orthodistance", counted)
    # the budget only bounds the triple search, which computes no orthodistance
    rep = hypothesis_report(gf.presentation, gf.word("delta"), maxlen=6, budget=1)
    assert rep.lift_count == 64
    assert len(calls) == rep.lift_count - 1
