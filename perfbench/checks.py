"""Output checkers: every hyptube answer is compared with the benchmark's own
computation in ``model.py``, never with a stored copy of an earlier output.

A checker raises ``CheckFailed`` with a reason; returning means the answer
passed.  Text reports are parsed into the same dictionaries as the JSON ones
so one checker serves both formats.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import model
from model import LOG3_HALF, complex_distance, cross, twist_close

# Stated tolerances.  Text reports carry 9 significant digits.
TOL_JSON = 1e-7
TOL_TEXT = 1e-8
TOL_INVARIANT = 1e-6  # a conjugate against the unconjugated corpus file
TOL_CUTOFF = 1e-7  # lifts this close to the cutoff may fall either side
TOL_FAMILY = 1e-6  # relative, on sinh^2 of half the ortholength

LONG_LEN, MEYERHOFF_LEN, GM_LEN = 1.353, 0.0978, 0.19


class CheckFailed(AssertionError):
    pass


def expect(cond: bool, msg: str):
    if not cond:
        raise CheckFailed(msg)


def close(x, y, tol: float) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= tol * max(1.0, abs(y))


# ---------------------------------------------------------------------------
# parsing the reports


def _num(s: str):
    return None if s == "unbounded" else float(s)


def _bool(s: str):
    return {"True": True, "False": False, "None": None}[s]


def parse_output(command: str, fmt: str, out: str) -> dict:
    if fmt == "json":
        return json.loads(out)
    lines = out.rstrip("\n").split("\n")
    return _TEXT_PARSERS[command](lines)


def _text_info(lines):
    recs = []
    for ln in lines:
        m = re.match(r"^(\w+): (\w+)(?:, length (\S+), twist (\S+))?$", ln)
        expect(m is not None, f"unparsed info line {ln!r}")
        rec = {"label": m.group(1), "class": m.group(2)}
        if m.group(3):
            rec["length"], rec["twist"] = float(m.group(3)), float(m.group(4))
        recs.append(rec)
    return {"records": recs}


def _text_spectrum(lines):
    m = re.match(r"^ortholength spectrum of '(\w+)' \(horizon (\d+), cutoff (\S+), (\d+) lifts\)$",
                 lines[0])
    expect(m is not None, f"unparsed spectrum header {lines[0]!r}")
    data = {"horizon": int(m.group(2)), "cutoff": float(m.group(3)),
            "lift_count": int(m.group(4)), "entries": [], "diagnostics": []}
    for ln in lines[1:]:
        e = re.match(r"^  d (\S+)  twist (\S+)  word (\w+)$", ln)
        if e:
            data["entries"].append({"d": float(e.group(1)), "theta": float(e.group(2)),
                                    "word": e.group(3)})
            continue
        g = re.match(r"^  ! lift (\d+): (.*)$", ln)
        expect(g is not None, f"unparsed spectrum line {ln!r}")
        data["diagnostics"].append([int(g.group(1)), g.group(2)])
    return data


def _text_tube(lines):
    data = {"witness_word": None, "displacement": None}
    for ln in lines:
        if m := re.match(r"^tube radius: (\S+) \(horizon (\d+)\)$", ln):
            data["tube_radius"], data["horizon"] = _num(m.group(1)), int(m.group(2))
        elif m := re.match(r"^witness word: (\w+)$", ln):
            data["witness_word"] = m.group(1)
        elif m := re.match(r"^log3/2 tube criterion: (\w+) \(threshold (\S+)\)$", ln):
            data["verdict"], data["threshold"] = m.group(1), float(m.group(2))
        elif m := re.match(r"^frontier displacement: (\S+)$", ln):
            data["displacement"] = float(m.group(1))
        else:
            raise CheckFailed(f"unparsed tube line {ln!r}")
    return data


def _text_insulator(lines):
    m = re.match(r"^insulator family of '(\w+)': (\d+) members \(horizon (\d+), cutoff (\S+)\)$",
                 lines[0])
    expect(m is not None, f"unparsed insulator header {lines[0]!r}")
    data = {"family_size": int(m.group(2)), "members": [], "triple": None}
    for ln in lines[1:]:
        if e := re.match(r"^  ortho (\S+)  word (\w+)$", ln):
            data["members"].append({"d": float(e.group(1)), "theta": None, "word": e.group(2)})
        elif e := re.match(r"^verdict: (\w+) \(basis ([\w-]+)\)$", ln):
            data["verdict"], data["basis"] = e.group(1), e.group(2)
        elif e := re.match(r"^separating triple: \((\d+), (\d+), (\d+)\)$", ln):
            data["triple"] = [int(x) for x in e.groups()]
        else:
            raise CheckFailed(f"unparsed insulator line {ln!r}")
    return data


_CHECK_LINES = [
    (r"^geodesic '(\w+)' = (\w+)$", lambda m: {"deltaword": m.group(2)}),
    (r"^complex length: (\S+) \+ (\S+)i$",
     lambda m: {"delta_length": float(m.group(1)), "delta_twist": float(m.group(2))}),
    (r"^lifts: (\d+) \(horizon (\d+), cutoff (\S+)\)$",
     lambda m: {"lift_count": int(m.group(1)), "horizon": int(m.group(2)),
                "cutoff": float(m.group(3))}),
    (r"^tube radius: (\S+)(?: \(witness (\w+)\))?$",
     lambda m: {"tube_radius": _num(m.group(1)), "tube_witness_word": m.group(2)}),
    (r"^log3/2 tube criterion: (\w+)$", lambda m: {"tube_verdict": m.group(1)}),
    (r"^spectrum stable: (\w+)$", lambda m: {"spectrum_stable": _bool(m.group(1))}),
    (r"^frontier displacement: (\S+)$", lambda m: {"displacement": _num(m.group(1))}),
    (r"^long-geodesic guarantee \(>\S+\): (\w+)$", lambda m: {"long_guarantee": _bool(m.group(1))}),
    (r"^short-geodesic guarantee \(<0\.0978\): (\w+)$",
     lambda m: {"short_guarantee_meyerhoff": _bool(m.group(1))}),
    (r"^short-geodesic guarantee \(<0\.19\): (\w+)$",
     lambda m: {"short_guarantee_gehring_martin": _bool(m.group(1))}),
    (r"^insulator verdict: (\w+) \(basis ([\w-]+), (\d+) members\)$",
     lambda m: {"insulator_verdict": m.group(1), "insulator_basis": m.group(2),
                "family_size": int(m.group(3))}),
    (r"^conclusion: (.*)$", lambda m: {"conclusion": m.group(1)}),
    (r"^note: (.*)$", lambda m: {}),
]


def _text_check(lines):
    data = {}
    for ln in lines:
        for pat, fn in _CHECK_LINES:
            if m := re.match(pat, ln):
                data.update(fn(m))
                break
        else:
            raise CheckFailed(f"unparsed check line {ln!r}")
    return data


def _text_lemma120(lines):
    expect(lines[0].split() == ["distance", "visual", "angle", "(deg)"], "lemma120 header")
    rows = []
    for ln in lines[1:]:
        d, ang = ln.split()
        rows.append({"d": float(d), "angle_deg": float(ang)})
    return {"rows": rows}


_TEXT_PARSERS = {
    "info": _text_info,
    "spectrum": _text_spectrum,
    "tube": _text_tube,
    "insulator": _text_insulator,
    "check": _text_check,
    "lemma120": _text_lemma120,
}


# ---------------------------------------------------------------------------
# counts


def check_counts(ngens: int, h: int, ball_size: int | None, lift_count: int | None):
    """Ball size and lift count against the closed forms and a word count."""
    words = model.reduced_words("ag"[:ngens], "g" if ngens == 2 else "", h)
    expect(len(words) == model.ball_size_closed_form(ngens, h),
           f"reduced-word count {len(words)} differs from the closed form")
    if ball_size is not None:
        expect(ball_size == len(words),
               f"ball of horizon {h} has {ball_size} elements, expected {len(words)}")
    if lift_count is not None:
        want = model.lift_count_closed_form(ngens, h)
        expect(lift_count == want, f"horizon {h} gives {lift_count} lifts, expected {want}")


# ---------------------------------------------------------------------------
# spectrum, tube radius and report


def check_entries(gm: model.GroupModel, entries, tol: float):
    """Each (d, theta, word) recomputed from its word; entries sorted by d."""
    prev = -math.inf
    for e in entries:
        m = gm.element(e["word"])
        line = (model.act(m, gm.base[0]), model.act(m, gm.base[1]))
        d, th = complex_distance(gm.base, line)
        expect(close(e["d"], d, tol), f"entry {e['word']}: d {e['d']!r}, recomputed {d!r}")
        if e.get("theta") is not None:
            expect(twist_close(e["theta"], th, d, 1e-6),
                   f"entry {e['word']}: twist {e['theta']!r}, recomputed {th!r}")
        expect(e["d"] >= prev - tol, f"entries not sorted at {e['word']}")
        prev = e["d"]


def check_distance_list(got, gm: model.GroupModel, h: int, cutoff: float, tol: float, what: str):
    """The sorted list of d equals the model's, up to lifts at the cutoff."""
    inner = gm.distances(h, cutoff - TOL_CUTOFF)
    outer = gm.distances(h, cutoff + TOL_CUTOFF)
    expect(len(inner) <= len(got) <= len(outer),
           f"{what}: {len(got)} entries, expected {len(inner)} to {len(outer)}")
    for x, y in zip(sorted(got), outer):
        expect(close(x, y, tol), f"{what}: distance {x!r}, expected {y!r}")


def check_radius(gm: model.GroupModel, h: int, radius, witness, tol: float):
    want = gm.tube_radius(h)
    expect(close(radius, want, tol), f"tube radius {radius!r}, expected {want!r}")
    if witness is not None:
        m = gm.element(witness)
        d, _ = complex_distance(gm.base, (model.act(m, gm.base[0]), model.act(m, gm.base[1])))
        expect(close(2.0 * radius, d, tol), f"witness {witness} has d {d!r}, not 2r")
    else:
        expect(radius is None, "tube radius without a witness")


def family_distances(gm: model.GroupModel, h: int, cutoff: float):
    """Ortholengths of the members build_family keeps: within the cutoff,
    sharing no endpoint with the base and not crossing it."""
    return [d for d in gm.distances(h, cutoff) if d > 1e-9]


# ---------------------------------------------------------------------------
# insulator family circles


def hermitian(circle):
    """(A, B, C) of the form A|z|^2 + 2 Re(conj(B) z conj(w)) + C|w|^2."""
    return circle.A, circle.B, circle.C


def form_value(f, p) -> float:
    A, B, C = f
    z, w = p
    return A * abs(z) ** 2 + 2.0 * (B.conjugate() * z * w.conjugate()).real + C * abs(w) ** 2


def check_family_circle(f, base, lift_line, d: float):
    """The circle separates the base endpoints from the lift's endpoints, and
    its hemisphere lies at distance d/2 from the base:
    sinh^2(d/2) = H(p) H(q) / (|p x q|^2 (|B|^2 - AC))."""
    A, B, C = f
    vp, vq = form_value(f, base[0]), form_value(f, base[1])
    expect(vp * vq > 0, "family circle does not keep the base endpoints together")
    for x in lift_line:
        expect(form_value(f, x) * vp < 0, "family circle does not separate the lift")
    s2 = vp * vq / (abs(cross(base[0], base[1])) ** 2 * (abs(B) ** 2 - A * C))
    want = math.sinh(d / 2.0) ** 2
    expect(abs(s2 - want) <= TOL_FAMILY * max(1.0, want),
           f"family circle at sinh^2 distance {s2!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# the raster decision of separation


def to_base_chart(forms, p, q):
    """Circles as (center, radius) after the map sending p to 0 and q to oo."""
    t = model.unimodular((p[1], -p[0], q[1], -q[0]))
    ti = model.inverse(t)
    a, b, c, d = ti
    out = []
    for A, B, C in forms:
        # the form of the image circle is ti^dagger H ti
        h = np.array([[A, B], [B.conjugate(), C]])
        m = np.array([[a, b], [c, d]])
        h2 = m.conj().T @ h @ m
        A2, B2, C2 = h2[0, 0].real, h2[0, 1], h2[1, 1].real
        expect(abs(A2) > 0, "circle passes through a query point")
        out.append((-B2 / A2, math.sqrt(max(0.0, abs(B2) ** 2 - A2 * C2)) / abs(A2)))
    return out


def conditioning(circles) -> float:
    """Smallest gap, in the log-polar metric |dz|/|z|, between two circles
    at a near-tangency, or between a crossing of two circles and a third."""
    gap = math.inf
    n = len(circles)
    for i in range(n):
        ci, ri = circles[i]
        for j in range(i + 1, n):
            cj, rj = circles[j]
            dd = abs(ci - cj)
            e = (cj - ci) / dd
            # where the circles would touch, externally and internally
            outer = ci + ri * e
            inner = outer if ri >= rj else cj - rj * e
            gap = min(gap, abs(dd - (ri + rj)) / abs(outer), abs(dd - abs(ri - rj)) / abs(inner))
            if abs(ri - rj) < dd < ri + rj:
                a = (dd * dd + ri * ri - rj * rj) / (2.0 * dd)
                hh = math.sqrt(max(0.0, ri * ri - a * a))
                for x in (ci + a * e + 1j * e * hh, ci + a * e - 1j * e * hh):
                    for k in range(n):
                        if k not in (i, j):
                            ck, rk = circles[k]
                            gap = min(gap, abs(abs(x - ck) - rk) / abs(x))
    return gap


CELL = 2.0 * math.pi / 512
GUARD = 1.5 * CELL
MARGIN = 6.0 * CELL


def raster_separates(circles) -> bool:
    """Flood fill on the sphere minus 0 and oo, in Mercator coordinates
    (log|z|, arg z): 0 and oo are separated exactly when no free path joins
    the row below every circle to the row above them.  Cells within GUARD of
    a circle, in the same metric, are blocked."""
    from scipy import ndimage  # here, so that scipy is not in the runs' peak RSS

    for c, r in circles:
        expect(abs(c) > r, "a circle encloses a query point")
    lo = min(math.log(abs(c) - r) for c, r in circles) - 0.5
    hi = max(math.log(abs(c) + r) for c, r in circles) + 0.5
    nu = int(math.ceil((hi - lo) / CELL)) + 1
    u = lo + CELL * np.arange(nu)
    phi = CELL * (np.arange(512) + 0.5)
    z = np.exp(u)[:, None] * np.exp(1j * phi)[None, :]
    blocked = np.zeros(z.shape, dtype=bool)
    for c, r in circles:
        blocked |= np.abs(np.abs(z - c) - r) / np.abs(z) < GUARD
    labels, _ = ndimage.label(~blocked, structure=[[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for a, b in zip(labels[:, 0], labels[:, -1]):
        if a and b and find(a) != find(b):
            parent[find(a)] = find(b)
    bottom, top = labels[0, 0], labels[-1, 0]
    expect(bottom > 0 and top > 0, "raster rows beyond the circles are blocked")
    return find(bottom) != find(top)


def check_verdict(forms, p, q, verdict: str, triple, sample, limit: int) -> int:
    """Raster decisions agree with the verdict, on a reported separating
    triple and on up to ``limit`` multisets of member indices from
    ``sample``; those too near a tangency for the raster are skipped.
    Returns the number of multisets the raster decided."""
    decided = 0
    if triple is not None:
        circles = to_base_chart([forms[i] for i in sorted(set(triple))], p, q)
        expect(raster_separates(circles), f"reported triple {triple} does not separate")
        decided += 1
    for idx in sample:
        if decided >= limit:
            break
        circles = to_base_chart([forms[i] for i in sorted(set(idx))], p, q)
        if conditioning(circles) < MARGIN:
            continue
        sep = raster_separates(circles)
        if verdict == "noncoalesceable":
            expect(not sep, f"multiset {idx} separates the base endpoints")
        decided += 1
    return decided


# ---------------------------------------------------------------------------
# lemma 120


def check_lemma120(data: dict, tol: float):
    rows = data["rows"]
    want = [round(0.1 * k, 10) for k in range(13)] + [LOG3_HALF]
    want.sort()
    expect(len(rows) == len(want), f"lemma120 has {len(rows)} rows, expected {len(want)}")
    for row, d in zip(rows, want):
        expect(abs(row["d"] - d) <= 1e-6, f"lemma120 distance {row['d']!r}, expected {d!r}")
        ang = math.degrees(2.0 * math.asin(1.0 / math.cosh(row["d"])))
        expect(abs(row["angle_deg"] - ang) <= 1e-6 * max(1.0, ang) + tol,
               f"lemma120 angle {row['angle_deg']!r} at d {row['d']!r}, expected {ang!r}")
