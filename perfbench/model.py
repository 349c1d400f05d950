"""The benchmark's own model of the corpus groups, written without hyptube.

Everything the output checkers compare against is computed here: 2x2 complex
matrix products, group files read and written by a separate parser, seeded
conjugation, reduced-word counts, and the lifts and ortholength spectrum of
the geodesic ``delta = a``.

All three corpus files present ``a`` loxodromic and, when present, ``g`` an
involution.  The two-generator groups are the free product <a> * <g | g^2>:
every element has exactly one reduced word (``a``/``A`` never adjacent to
each other, ``g`` never doubled), and the stabilizer of the axis of ``a`` is
<a>.  So the ball of radius h holds 3*2^h - 2 elements and the lifts of the
axis are indexed by the 2^h reduced words that do not end in ``a`` or ``A``.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

LOG3_HALF = math.log(3.0) / 2.0
SHARED_TOL = 1e-9  # endpoint coincidence, chordal, on unit-normalized pairs

# ---------------------------------------------------------------------------
# 2x2 complex matrices as tuples (a, b, c, d); points of the sphere as (z, w)


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inverse(m):
    a, b, c, d = m
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


def unimodular(m):
    a, b, c, d = m
    s = cmath.sqrt(a * d - b * c)
    return (a / s, b / s, c / s, d / s)


def act(m, p):
    """Projective image of p = (z, w), scaled so max(|z|, |w|) = 1."""
    a, b, c, d = m
    z, w = a * p[0] + b * p[1], c * p[0] + d * p[1]
    s = max(abs(z), abs(w))
    return (z / s, w / s)


def cross(p, q):
    return p[0] * q[1] - q[0] * p[1]


def fixed_points(m):
    """The two fixed points of m on the sphere, from numpy's eigenvectors."""
    vals, vecs = np.linalg.eig(np.array([[m[0], m[1]], [m[2], m[3]]], dtype=complex))
    pts = []
    for k in range(2):
        z, w = complex(vecs[0, k]), complex(vecs[1, k])
        s = max(abs(z), abs(w))
        pts.append((z / s, w / s))
    return tuple(pts)


def shares_endpoint(line1, line2) -> bool:
    return any(abs(cross(p, q)) <= SHARED_TOL for p in line1 for q in line2)


def complex_distance(line1, line2):
    """(d, theta) between two lines given by endpoint pairs, theta modulo pi.

    cosh of the complex distance is, up to sign, the cross-ratio expression
    ((p1-p2)(q1-q2) + (p1-q2)(q1-p2)) / ((p1-q1)(p2-q2)), written here
    projectively so that the point at infinity needs no special case.
    """
    (p1, q1), (p2, q2) = line1, line2
    w = (cross(p1, p2) * cross(q1, q2) + cross(p1, q2) * cross(q1, p2)) / (
        cross(p1, q1) * cross(p2, q2)
    )
    eta = cmath.acosh(w)
    if eta.real < 0:
        eta = -eta
    return eta.real, eta.imag


def twist_close(t1: float, t2: float, d: float, tol: float) -> bool:
    """Twists agree modulo pi; for crossing lines (d ~ 0) also up to sign."""
    def mod_pi(x):
        return abs(math.remainder(x, math.pi))

    if mod_pi(t1 - t2) <= tol:
        return True
    return d <= 1e-6 and mod_pi(t1 + t2) <= tol


def complex_length(m):
    """(d, theta) of a loxodromic with det 1, from its larger eigenvalue."""
    t = m[0] + m[3]
    s = cmath.sqrt(t * t - 4.0)
    lam = max((t + s) / 2.0, (t - s) / 2.0, key=abs)
    return 2.0 * math.log(abs(lam)), math.remainder(2.0 * cmath.phase(lam), 2 * math.pi)


def classify(m, tol: float = 1e-9) -> str:
    a, b, c, d = m
    if min(max(abs(a - 1), abs(b), abs(c), abs(d - 1)),
           max(abs(a + 1), abs(b), abs(c), abs(d + 1))) <= tol:
        return "identity"
    t2 = (a + d) ** 2
    if abs(t2 - 4.0) <= tol:
        return "parabolic"
    if abs(t2.imag) <= tol and -tol <= t2.real < 4.0:
        return "elliptic"
    return "loxodromic"


# ---------------------------------------------------------------------------
# group files


_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_ENTRY = re.compile(rf"^({_NUM})([+-])({_NUM})i$")


@dataclass
class GroupText:
    name: str
    gens: dict  # letter -> matrix tuple, in file order
    geodesics: dict  # name -> word


def parse_grp(text: str) -> GroupText:
    name, gens, geodesics, entries, current = "", {}, {}, [], None
    for raw in text.splitlines():
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        head = line.split()[0]
        if head in ("name", "generator", "geodesic") and current is not None:
            gens[current] = unimodular(tuple(entries))
            current = None
        if head == "name":
            name = line[4:].strip()
        elif head == "generator":
            current, entries = line.split()[1], []
        elif head == "geodesic":
            left, word = line[len("geodesic"):].split("=")
            geodesics[left.strip()] = word.strip()
        else:
            for tok in line.split():
                m = _ENTRY.match(tok)
                if not m:
                    raise ValueError(f"bad entry {tok!r}")
                im = float(m.group(3)) * (-1.0 if m.group(2) == "-" else 1.0)
                entries.append(complex(float(m.group(1)), im))
    if current is not None:
        gens[current] = unimodular(tuple(entries))
    return GroupText(name, gens, geodesics)


def _entry(v: complex) -> str:
    sign = "-" if math.copysign(1.0, v.imag) < 0 else "+"
    return f"{v.real!r}{sign}{abs(v.imag)!r}i"


def render_grp(g: GroupText) -> str:
    out = [f"name {g.name}"] if g.name else []
    for letter, (a, b, c, d) in g.gens.items():
        out += [f"generator {letter}", f"  {_entry(a)}  {_entry(b)}", f"  {_entry(c)}  {_entry(d)}"]
    out += [f"geodesic {k} = {v}" for k, v in g.geodesics.items()]
    return "\n".join(out) + "\n"


def near_identity(rng: np.random.Generator, eps: float = 0.15):
    """Random det-1 matrix within about eps of the identity."""
    x = rng.normal(size=8) * eps
    m = (1 + complex(x[0], x[1]), complex(x[2], x[3]), complex(x[4], x[5]), 1 + complex(x[6], x[7]))
    return unimodular(m)


def conjugate(g: GroupText, h, tag: str) -> GroupText:
    hi = inverse(h)
    gens = {k: unimodular(mul(mul(h, m), hi)) for k, m in g.gens.items()}
    return GroupText(f"{g.name} conjugate {tag}", gens, dict(g.geodesics))


# ---------------------------------------------------------------------------
# reduced words of the free product <a> * <g | g^2>


def reduced_words(letters: str, involutions: str, h: int):
    """Reduced words of length <= h in shortlex order, by breadth-first growth.

    ``letters`` are the generator letters; the inverse of a non-involution x
    is X, an involution is its own inverse and is never doubled.
    """
    alphabet = []
    for x in letters:
        alphabet.append(x)
        if x not in involutions:
            alphabet.append(x.upper())
    shell, out = [""], [""]
    for _ in range(h):
        nxt = []
        for w in shell:
            for x in alphabet:
                if w and (w[-1] == x.swapcase() or (x in involutions and w[-1] == x)):
                    continue
                nxt.append(w + x)
        out += nxt
        shell = nxt
    return out


def ball_size_closed_form(ngens: int, h: int) -> int:
    return 3 * 2**h - 2 if ngens == 2 else 2 * h + 1


def lift_count_closed_form(ngens: int, h: int) -> int:
    return 2**h if ngens == 2 else 1


# ---------------------------------------------------------------------------
# the model of one group file


@dataclass
class Lift:
    word: str
    line: tuple
    d: float
    theta: float
    shared: bool


@dataclass
class GroupModel:
    """Lifts, spectrum and displacement of ``delta`` over a group file."""

    text: GroupText
    _lifts: dict = field(default_factory=dict)

    @cached_property
    def involutions(self) -> str:
        return "".join(k for k, m in self.text.gens.items() if abs(m[0] + m[3]) <= 1e-9)

    def element(self, word: str):
        m = (1 + 0j, 0j, 0j, 1 + 0j)
        for ch in word:
            g = self.text.gens[ch.lower()]
            m = mul(m, g if ch.islower() else inverse(g))
        return m

    @cached_property
    def delta(self) -> str:
        return self.text.geodesics["delta"]

    @cached_property
    def base(self):
        return fixed_points(self.element(self.delta))

    def words(self, h: int):
        return reduced_words("".join(self.text.gens), self.involutions, h)

    def lifts(self, h: int):
        """Lifts of the base axis for reduced words not ending in a letter of delta."""
        if h not in self._lifts:
            stab = {self.delta, self.delta.swapcase()}
            out = []
            for w in self.words(h):
                if not w or w[-1] in stab:
                    continue
                m = self.element(w)
                line = (act(m, self.base[0]), act(m, self.base[1]))
                shared = shares_endpoint(self.base, line)
                d, th = (math.nan, math.nan) if shared else complex_distance(self.base, line)
                out.append(Lift(w, line, d, th, shared))
            self._lifts[h] = out
        return self._lifts[h]

    def distances(self, h: int, cutoff: float = math.inf, maxlen: int | None = None):
        return sorted(
            l.d for l in self.lifts(h)
            if not l.shared and l.d <= cutoff and (maxlen is None or len(l.word) <= maxlen)
        )

    def tube_radius(self, h: int):
        ds = self.distances(h)
        return ds[0] / 2.0 if ds else None

    def stable(self, h: int, cutoff: float) -> bool:
        return len(self.distances(h, cutoff)) == len(self.distances(h, cutoff, h - 1))

    def tube_verdict(self, h: int, tol: float = 1e-9) -> str:
        r = self.tube_radius(h)
        if r is not None and r < LOG3_HALF - tol:
            return "fails"
        if not self.stable(h, 2.0 * (LOG3_HALF + tol)):
            return "inconclusive"
        if r is None or r > LOG3_HALF + tol:
            return "holds"
        return "inconclusive"

    def displacement(self, h: int):
        """min over words of length h of d(x0, g x0), with cosh d = |N|^2 / 2.

        x0 is the point over 0 after the map sending the first endpoint of
        the base (finite before infinite, then by real and imaginary part) to
        0 and the second to infinity; N is g written in that chart.
        """
        def key(p):
            if abs(p[1]) <= 1e-9:
                return (1, 0.0, 0.0)
            v = p[0] / p[1]
            return (0, v.real, v.imag)

        p1, p2 = sorted(self.base, key=key)
        t = unimodular((p1[1], -p1[0], p2[1], -p2[0]))
        ti = inverse(t)
        best = None
        for w in self.words(h):
            if len(w) != h:
                continue
            n = mul(mul(t, self.element(w)), ti)
            c = sum(abs(x) ** 2 for x in n) / 2.0
            d = math.acosh(max(1.0, c))
            best = d if best is None else min(best, d)
        return best
