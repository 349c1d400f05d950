"""Numeric thresholds for tube-radius guarantees and the combined hypothesis report.

The threshold constants reproduce published values; the exact tube-radius
formula and law-of-cosines derivation behind them are not restated here, only
the resulting predicates.  All inequalities are strict at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from .hcore import TOL, complex_length

LOG3_HALF = math.log(3.0) / 2.0  # 0.5493061443340549
LONG_LEN = 1.353  # shortest geodesic longer than this guarantees a (log 3)/2 tube
MEYERHOFF_LEN = 0.0978  # geodesic shorter than this guarantees a (log 3)/2 tube
GM_LEN = 0.19  # Gehring-Martin improvement of the short-geodesic threshold

_SHORT_THRESHOLDS = {"meyerhoff": MEYERHOFF_LEN, "gehring-martin": GM_LEN}


def long_geodesic_guarantee(length: float) -> bool:
    """True iff a SHORTEST geodesic of this length guarantees a (log 3)/2 tube.

    The caller asserts that `length` is the length of a shortest geodesic.
    Strict at the boundary.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    return length > LONG_LEN


def short_geodesic_guarantee(length: float, source: str = "gehring-martin") -> bool:
    """True iff a geodesic this short guarantees a (log 3)/2 tube around itself.

    `source` selects the published threshold: 'meyerhoff' (0.0978) or
    'gehring-martin' (0.19).  Strict at the boundary.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    if source not in _SHORT_THRESHOLDS:
        raise ValueError(f"unknown source {source!r}")
    return length < _SHORT_THRESHOLDS[source]


@dataclass
class HypothesisReport:
    """Combined verdicts of the tube-radius and insulator pipelines."""

    deltaword: str
    delta_length: float
    delta_twist: float
    horizon: int
    cutoff: float
    lift_count: int
    tube_radius: Optional[float]
    tube_witness_word: Optional[str]
    tube_verdict: str  # holds | fails | inconclusive
    spectrum: list  # (d, theta, word) triples, ascending
    spectrum_stable: Optional[bool]
    displacement: Optional[float]
    long_guarantee: bool
    short_guarantee_meyerhoff: bool
    short_guarantee_gehring_martin: bool
    insulator_verdict: str
    insulator_basis: str
    insulator_triple: Optional[tuple]
    family_size: int
    established: bool
    notes: list = field(default_factory=list)

    def conclusion(self) -> str:
        if self.established:
            return "hypothesis holds (within horizon)"
        return "hypothesis not established"

    def to_dict(self) -> dict:
        """Every field in declaration order, with the conclusion before the notes."""
        d = {"schema_version": 1, **asdict(self)}
        d["spectrum"] = [{"d": x, "theta": th, "word": w} for x, th, w in self.spectrum]
        if self.insulator_triple is not None:
            d["insulator_triple"] = list(self.insulator_triple)
        d["conclusion"] = self.conclusion()
        d["notes"] = d.pop("notes")
        return d


class InconsistentVerdicts(AssertionError):
    """A holding tube verdict must come with a noncoalesceable insulator family."""


def hypothesis_report(
    G,
    deltaword,
    maxlen: int = 6,
    cutoff: float = 4.0,
    budget: int = 50_000,
    tol: float = TOL,
) -> HypothesisReport:
    """Run the lift and insulator pipelines and combine every verdict.

    The insulator check is performed for the base lift only; by equivariance
    of the construction this loses no generality, which is recorded in the
    report notes.  Simplicity of the input geodesic in the quotient is assumed,
    not checked.  Every stage reads the lift set's one spectrum, so each lift's
    orthodistance is computed once.
    """
    from . import insulator as ins
    from . import lifts as lf

    core_length = complex_length(G.element(deltaword))
    L = lf.lifts_of_geodesic(G, deltaword, maxlen)
    entries, _ = lf.ortho_spectrum(L, cutoff)
    tr = lf.tube_radius(L)
    tube_verdict = lf.check_log3_tube(L, tol)
    stable = lf.spectrum_is_stable(L, cutoff=2.0 * LOG3_HALF)
    family = ins.build_family(L, cutoff)
    verdict = ins.noncoalesceable(family, budget, tol)
    if tube_verdict == "holds" and verdict.kind == "coalescing":
        raise InconsistentVerdicts(
            "tube radius clears (log 3)/2 but a separating triple was found"
        )
    established = tube_verdict == "holds" or verdict.kind == "noncoalesceable"
    notes = [
        "input word is assumed to name a primitive simple closed geodesic",
        "insulator condition checked for the base lift only (equivariance reduction)",
        "tube radius is an upper bound from lifts within the word-length horizon",
    ]
    return HypothesisReport(
        deltaword=deltaword.to_string(G.names),
        delta_length=core_length.d,
        delta_twist=core_length.theta,
        horizon=maxlen,
        cutoff=cutoff,
        lift_count=len(L.lifts),
        tube_radius=tr.radius,
        tube_witness_word=tr.witness.word.to_string(G.names) if tr.witness else None,
        tube_verdict=tube_verdict,
        spectrum=[
            (e.distance.d, e.distance.theta, e.word.to_string(G.names))
            for e in entries
        ],
        spectrum_stable=stable,
        displacement=L.displacement,
        long_guarantee=long_geodesic_guarantee(core_length.d),
        short_guarantee_meyerhoff=short_geodesic_guarantee(core_length.d, "meyerhoff"),
        short_guarantee_gehring_martin=short_geodesic_guarantee(
            core_length.d, "gehring-martin"
        ),
        insulator_verdict=verdict.kind,
        insulator_basis=verdict.basis,
        insulator_triple=verdict.triple,
        family_size=len(family),
        established=established,
        notes=notes,
    )
