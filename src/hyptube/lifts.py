"""Group-element enumeration and lifts of a chosen closed geodesic.

Enumeration is breadth-first over freely reduced words.  Matrices (up to
sign) and lifts (up to the order of their endpoints) are deduplicated by
``_Deduper``, a hash grid on their entries whose cost per lookup does not grow
with the ball; no geometric pruning is assumed valid.  The tube
radius computed from lifts within a word-length horizon is an upper bound on
the true tube radius, so every result carries its horizon, and a displacement
diagnostic over the frontier words is reported so callers can judge horizon
adequacy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .hcore import (
    TOL,
    ComplexDistance,
    Geodesic,
    HPoint,
    Isometry,
    NotLoxodromic,
    SharedEndpoint,
    _send_to_zero_infinity,
    axis,
    classify,
    orthodistance,
)
from .bounds import LOG3_HALF

DEDUP_TOL = 1e-9
CONDITIONING_LIMIT = 1e12


@dataclass(frozen=True)
class Word:
    """Freely reduced word as a tuple of signed 1-based generator indices."""

    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", free_reduce(self.letters))

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-s for s in reversed(self.letters)))

    def sort_key(self):
        # a < A < b < B < ...
        return tuple((abs(s), 0 if s > 0 else 1) for s in self.letters)

    def to_string(self, names) -> str:
        out = []
        for s in self.letters:
            nm = names[abs(s) - 1]
            out.append(nm if s > 0 else nm.upper())
        return "".join(out)


def free_reduce(letters) -> tuple:
    out = []
    for s in letters:
        if s == 0:
            raise ValueError("0 is not a generator index")
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(int(s))
    return tuple(out)


@dataclass(frozen=True)
class GroupPresentation:
    """Named generating set of isometries; names are single lowercase letters."""

    names: tuple
    generators: tuple

    def __post_init__(self):
        if len(self.names) != len(self.generators):
            raise ValueError("names/generators length mismatch")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")
        for nm in self.names:
            if not (len(nm) == 1 and nm.islower() and nm.isalpha()):
                raise ValueError(f"bad generator name {nm!r}")

    def parse_word(self, text: str) -> Word:
        letters = []
        lower = {nm: i + 1 for i, nm in enumerate(self.names)}
        for ch in text:
            idx = lower.get(ch.lower())
            if idx is None:
                raise KeyError(f"unknown generator {ch!r} in word {text!r}")
            letters.append(idx if ch.islower() else -idx)
        return Word(tuple(letters))

    def letter(self, s: int) -> Isometry:
        g = self.generators[abs(s) - 1]
        return g if s > 0 else g.inverse()

    def element(self, word: Word) -> Isometry:
        g = Isometry.identity()
        for s in word.letters:
            g = g @ self.letter(s)
        return g

    def conjugated(self, h: Isometry) -> "GroupPresentation":
        return GroupPresentation(
            self.names, tuple(h @ g @ h.inverse() for g in self.generators)
        )


class _Deduper:
    """Matching of a row, or its one alternate form, against the rows added so
    far: a matrix up to global sign, a geodesic up to the order of its
    endpoints.

    A row is a tuple of numbers, complex or real.  Two rows match when the
    largest entrywise ``abs`` difference is at most ``tol``.  Rows are hashed
    by every real coordinate quantised to a cell of side ``_CELL``; the grid is
    offset by half a cell, so exact zeros and small integers sit at cell
    centres.  A lookup probes the home cell of each form and, in every
    coordinate within ``2 * tol`` of a cell edge, the neighbouring cell too:
    the probed cells hold every row within ``tol``.  Among the matching
    candidates it returns the one with the smallest (distance, index), as a
    scan over all rows would.  Requires ``2 * tol`` well below ``_CELL``.
    """

    _CELL = 2.0**-16

    def __init__(self, tol: float = DEDUP_TOL):
        self.tol = tol
        self._rows = []
        self._cells = {}

    @staticmethod
    def _coords(row):
        out = []
        for x in row:
            if isinstance(x, complex):
                out.append(x.real)
                out.append(x.imag)
            else:
                out.append(x)
        return out

    def _keys(self, row):
        """The home cell of row, and every cell a row within tol may lie in."""
        options = []
        edge = 2.0 * self.tol / self._CELL
        for x in self._coords(row):
            # t is off by under 2**-53 cells for |x| < 2**36; beyond that,
            # distinct floats lie more than tol apart and share no match.
            t = x / self._CELL + 0.5
            k = math.floor(t)
            f = t - k
            if f < edge:
                options.append((k, k - 1))
            elif f > 1.0 - edge:
                options.append((k, k + 1))
            else:
                options.append((k,))
        return itertools.product(*options)

    def find(self, row, alt) -> Optional[int]:
        candidates = set()
        for form in (row, alt):
            for key in self._keys(form):
                candidates.update(self._cells.get(key, ()))
        best = None
        for j in candidates:
            other = self._rows[j]
            d = min(
                max(abs(x - y) for x, y in zip(other, row)),
                max(abs(x - y) for x, y in zip(other, alt)),
            )
            if d <= self.tol and (best is None or (d, j) < best):
                best = (d, j)
        return None if best is None else best[1]

    def add(self, row) -> int:
        j = len(self._rows)
        self._rows.append(row)
        key = next(iter(self._keys(row)))
        self._cells.setdefault(key, []).append(j)
        return j


@dataclass
class ElementBall:
    """Ball in the word metric: deduplicated isometries with shortest words."""

    elements: list  # of (Isometry, Word)
    relations: list = field(default_factory=list)  # words that collapse to 1
    warnings: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def enumerate_elements(G: GroupPresentation, maxlen: int) -> ElementBall:
    """All group elements representable by freely reduced words of length <= maxlen.

    Breadth-first over the Cayley graph; each element keeps a shortest
    producing word; output sorted by (word length, lexicographic).  Words that
    collapse to the identity are recorded as relations.
    """
    if maxlen < 0:
        raise ValueError("maxlen must be nonnegative")
    dedup = _Deduper()
    ball = ElementBall(elements=[(Isometry.identity(), Word())])
    dedup.add(Isometry.identity().entries())
    ngen = len(G.generators)
    frontier = [(Isometry.identity(), Word())]
    for _ in range(maxlen):
        nxt = []
        for g, w in frontier:
            last = w.letters[-1] if w.letters else 0
            for s in list(range(1, ngen + 1)) + list(range(-1, -ngen - 1, -1)):
                if s == -last:
                    continue
                g2 = g @ G.letter(s)
                w2 = Word(w.letters + (s,))
                if max(abs(e) for e in g2.entries()) > CONDITIONING_LIMIT:
                    ball.warnings.append(
                        f"entries of word {w2.to_string(G.names)} exceed 1e12"
                    )
                m = g2.entries()
                j = dedup.find(m, tuple(-e for e in m))
                if j is not None:
                    if j == 0 and len(w2) > 0:
                        ball.relations.append(w2)
                    continue
                dedup.add(m)
                ball.elements.append((g2, w2))
                nxt.append((g2, w2))
        # canonical order within each shell
        nxt.sort(key=lambda gw: gw[1].sort_key())
        frontier = nxt
    ball.elements.sort(key=lambda gw: (len(gw[1]), gw[1].sort_key()))
    return ball


@dataclass(frozen=True)
class Lift:
    geodesic: Geodesic
    word: Word


@dataclass
class LiftSet:
    """Distinct lifts {g . base} of a closed geodesic, within a word-length horizon."""

    base: Geodesic
    lifts: list  # of Lift; lifts[0] is the base with the empty word
    horizon: int
    displacement: Optional[float] = None  # min d(x0, g x0) over frontier words
    relations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def basepoint(self) -> HPoint:
        return _send_to_zero_infinity(self.base).inverse().apply_h(HPoint(0j, 1.0))

    @cached_property
    def spectrum(self):
        """(entries, diagnostics) as tuples: the OrthoEntry of every lift but
        the base, sorted by (distance, word length, word, lift index).

        Computed on first use and kept, so the lifts must not change after.
        Lifts sharing an ideal endpoint with the base are reported as
        diagnostics, not failures.
        """
        entries = []
        diagnostics = []
        for j, lift in enumerate(self.lifts[1:], start=1):
            try:
                dist = orthodistance(self.base, lift.geodesic)
            except SharedEndpoint:
                diagnostics.append((j, "shares an endpoint with the base lift"))
                continue
            entries.append(OrthoEntry(j, dist, lift.word))
        entries.sort(key=lambda e: (e.distance.d, len(e.word), e.word.sort_key(), e.index))
        return tuple(entries), tuple(diagnostics)


def _endpoint_rows(g: Geodesic):
    """Both orders of the endpoints of g, as points on the unit sphere."""
    p, q = (e.sphere_point() for e in g.endpoints)
    return p + q, q + p


def lifts_of_geodesic(G: GroupPresentation, deltaword: Word, maxlen: int) -> LiftSet:
    """Distinct geodesics {g . axis(deltaword)} over the word ball of radius maxlen.

    Elements fixing both base endpoints are stabilizer elements and create no
    new lift; stabilizers are recognized by endpoint comparison, not by
    assuming anything about the abstract stabilizer.
    """
    core = G.element(deltaword)
    if classify(core) != "loxodromic":
        raise NotLoxodromic(
            f"word {deltaword.to_string(G.names)!r} is {classify(core)}"
        )
    base = axis(core)
    ball = enumerate_elements(G, maxlen)
    dedup = _Deduper()
    dedup.add(_endpoint_rows(base)[0])
    lifts = [Lift(base, Word())]
    for g, w in ball.elements:
        if len(w) == 0:
            continue
        geo = g.apply_geodesic(base)
        v, alt = _endpoint_rows(geo)
        if dedup.find(v, alt) is None:
            dedup.add(v)
            lifts.append(Lift(geo, w))
    ls = LiftSet(
        base=base,
        lifts=lifts,
        horizon=maxlen,
        relations=ball.relations,
        warnings=ball.warnings,
    )
    x0 = ls.basepoint()
    frontier_disp = [
        g.apply_h(x0).dist(x0) for g, w in ball.elements if len(w) == maxlen
    ]
    ls.displacement = min(frontier_disp) if frontier_disp else None
    return ls


@dataclass(frozen=True)
class OrthoEntry:
    """One ortholength-spectrum entry: lift index, complex distance, coset word."""

    index: int
    distance: ComplexDistance
    word: Word


def ortho_spectrum(L: LiftSet, cutoff: float):
    """Sorted ortholength spectrum between the base lift and every other lift
    within the cutoff: (entries, diagnostics), filtered from L.spectrum."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    entries, diagnostics = L.spectrum
    return [e for e in entries if e.distance.d <= cutoff], list(diagnostics)


@dataclass(frozen=True)
class TubeRadius:
    radius: Optional[float]  # None means unbounded within the horizon
    witness: Optional[OrthoEntry]
    horizon: int


def tube_radius(L: LiftSet) -> TubeRadius:
    """Half the minimal real orthodistance between the base and any other lift.

    An upper bound on the true tube radius: only lifts within the word-length
    horizon are seen.  None (unbounded) when no other lift was found.
    """
    entries, _ = L.spectrum
    if not entries:
        return TubeRadius(None, None, L.horizon)
    best = entries[0]
    return TubeRadius(best.distance.d / 2.0, best, L.horizon)


def spectrum_is_stable(L: LiftSet, cutoff: float) -> Optional[bool]:
    """True when the spectrum within cutoff is identical at the last two horizons.

    The lifts within the previous horizon are exactly those of shorter word
    length, so the two spectra agree iff no entry within the cutoff comes from
    a lift at the horizon's word length.  None when the lift set has no
    previous horizon to compare against.
    """
    if L.horizon < 1:
        return None
    entries, _ = ortho_spectrum(L, cutoff)
    return not any(len(e.word) == L.horizon for e in entries)


def check_log3_tube(L: LiftSet, tol: float = TOL) -> str:
    """'holds' / 'fails' / 'inconclusive' for the (log 3)/2 tube-radius test.

    Fails as soon as any witnessed orthodistance puts the radius below the
    threshold (the computed radius is an upper bound, so this is certain up to
    numerics).  Holds only when the radius clears the threshold and the
    sub-threshold spectrum is stable across the last two horizons.
    """
    tr = tube_radius(L)
    if tr.radius is not None and tr.radius < LOG3_HALF - tol:
        return "fails"
    stable = spectrum_is_stable(L, cutoff=2.0 * (LOG3_HALF + tol))
    if stable is None or not stable:
        return "inconclusive"
    if tr.radius is None or tr.radius > LOG3_HALF + tol:
        return "holds"
    return "inconclusive"
