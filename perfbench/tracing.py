"""Spans around the calls into each hyptube layer, recorded from outside.

The traced run replaces the public functions below, in every hyptube module
that refers to them, with wrappers that record one span per call: name,
layer, start, end, parent span and operation id.  Spans stay in memory and
are written out when the run ends.  Nothing inside hyptube changes.

The hcore layer is not wrapped, since a wrapper would cost more than the
calls it measures; its per-call times come from replaying the calls on the
balls and lift sets that the traced operations produced.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field

LAYERS = {
    "cli": ("parse_group_file",),
    "lifts": ("enumerate_elements", "lifts_of_geodesic", "ortho_spectrum", "tube_radius",
              "check_log3_tube", "spectrum_is_stable"),
    "insulator": ("build_family", "noncoalesceable"),
    "bounds": ("hypothesis_report",),
}

_COUNTS = {
    "lifts.enumerate_elements": lambda r: {"elements": len(r)},
    "lifts.lifts_of_geodesic": lambda r: {"lifts": len(r.lifts)},
    "insulator.build_family": lambda r: {"members": len(r)},
    "insulator.noncoalesceable": lambda r: {"tested": r.tested, "flagged": r.flagged,
                                            "kind": r.kind, "basis": r.basis},
}
_KEEP = ("lifts.enumerate_elements", "lifts.lifts_of_geodesic")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self.kept = []  # (op, name, result) for the checks and the hcore replay
        self._stack = []

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = Span(len(self.spans), name, layer, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.attrs = {"error": type(exc).__name__}
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if name in _COUNTS:
            span.attrs = _COUNTS[name](result)
        if name in _KEEP:
            self.kept.append((self.op, name, result))
        return result

    def install(self, hyptube):
        """Wrap every reference to the traced functions; returns an undo list."""
        modules = [hyptube, hyptube.cli, hyptube.lifts, hyptube.insulator, hyptube.bounds]
        undo = []
        for layer, names in LAYERS.items():
            home = getattr(hyptube, layer)
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self._wrapper(f"{layer}.{fname}", layer, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        return undo

    def _wrapper(self, name, layer, fn):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return traced

    @staticmethod
    def uninstall(undo):
        for mod, attr, orig in undo:
            setattr(mod, attr, orig)

    def dump(self, path):
        path.write_text(json.dumps([asdict(s) for s in self.spans]))


# ---------------------------------------------------------------------------
# per-layer metrics


def _children(spans):
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def round_metrics(spans, op_time: float) -> dict:
    """Per-layer totals over the spans of one traced round."""
    kids = _children(spans)
    by_id = {s.id: s for s in spans}

    def self_time(s):
        return s.dur - sum(c.dur for c in kids.get(s.id, ()))

    def total(name, key=None, returned=False):
        sel = [s for s in spans if s.name == name and not (returned and "error" in s.attrs)]
        return sum(s.attrs.get(key, 0) if key else s.dur for s in sel)

    def first_child(s, name):
        return next((c for c in kids.get(s.id, ()) if c.name == name), None)

    def under_report(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "bounds.hypothesis_report":
                return True
        return False

    m = {}
    for layer in ("cli", "lifts", "insulator", "bounds"):
        m[f"layer.{layer}_self_s"] = sum(self_time(s) for s in spans if s.layer == layer)
    m["cli.overhead_s"] = sum(self_time(s) for s in spans if s.name == "cli.run")
    m["lifts.ball_s"] = total("lifts.enumerate_elements")
    m["lifts.ball_elements"] = total("lifts.enumerate_elements", "elements")
    m["lifts.elements_per_s"] = (m["lifts.ball_elements"] / m["lifts.ball_s"]
                                 if m["lifts.ball_s"] else 0.0)
    m["lifts.dedup_s"] = sum(
        s.dur - sum(c.dur for c in kids.get(s.id, ()) if c.name == "lifts.enumerate_elements")
        for s in spans if s.name == "lifts.lifts_of_geodesic")
    m["lifts.lift_count"] = total("lifts.lifts_of_geodesic", "lifts")
    m["insulator.family_s"] = total("insulator.build_family")
    m["insulator.family_size"] = total("insulator.build_family", "members")
    m["insulator.decide_s"] = total("insulator.noncoalesceable")
    m["insulator.triples_tested"] = total("insulator.noncoalesceable", "tested")
    m["insulator.flagged"] = total("insulator.noncoalesceable", "flagged")
    decided = total("insulator.noncoalesceable", returned=True)
    m["insulator.triples_per_s"] = m["insulator.triples_tested"] / decided if decided else 0.0
    reports = [s for s in spans if s.name == "bounds.hypothesis_report"]
    m["bounds.report_s"] = sum(s.dur for s in reports)
    stages = 0.0
    for r in reports:
        for name in ("lifts.lifts_of_geodesic", "lifts.ortho_spectrum",
                     "insulator.build_family", "insulator.noncoalesceable"):
            c = first_child(r, name)
            if c is not None:
                stages += c.dur
                if name == "insulator.build_family":
                    inner = first_child(c, "lifts.ortho_spectrum")
                    stages -= inner.dur if inner else 0.0
    m["bounds.self_s"] = m["bounds.report_s"] - stages
    in_reports = sum(1 for s in spans if s.name == "lifts.ortho_spectrum" and under_report(s))
    m["bounds.spectrum_calls"] = in_reports / len(reports) if reports else 0.0
    m["trace.op_s"] = op_time
    m["trace.unattributed_s"] = op_time - sum(self_time(s) for s in spans)
    return m


def layer_metrics(tracer: Tracer, rounds) -> dict:
    """Median over traced rounds of the per-round totals.

    ``rounds`` is a list of (op ids, summed operation time) per traced round.
    """
    per_round = []
    for ops, op_time in rounds:
        ops = set(ops)
        per_round.append(round_metrics([s for s in tracer.spans if s.op in ops], op_time))
    out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    calls = [s.dur for s in tracer.spans if s.name == "lifts.ortho_spectrum"]
    out["lifts.spectrum_s"] = statistics.median(calls) if calls else 0.0
    return out


# ---------------------------------------------------------------------------
# hcore replay


def _per_call_us(fn, items, min_seconds: float = 0.3) -> float:
    if not items:
        return 0.0
    calls, spent = 0, 0.0
    while spent < min_seconds:
        t0 = time.perf_counter()
        fn(items)
        spent += time.perf_counter() - t0
        calls += len(items)
    return 1e6 * spent / calls


def hcore_replay(tracer: Tracer, ops, hyptube, cutoff: float) -> dict:
    """Per-call times of Isometry.__matmul__, orthodistance and midplane on
    the balls, lifts and insulator families of the traced operations ``ops``:
    products of consecutive ball elements, the base against every lift, and
    the base against every lift within the cutoff that does not cross it."""
    hc = hyptube.hcore
    pairs, lines, family = [], [], []
    for op, name, result in tracer.kept:
        if op not in ops:
            continue
        if name == "lifts.enumerate_elements":
            xs = [g for g, _ in result.elements]
            pairs += list(zip(xs, xs[1:]))
        else:
            for lift in result.lifts[1:]:
                lines.append((result.base, lift.geodesic))
    for base, geo in lines:
        try:
            d = hc.orthodistance(base, geo).d
        except hc.SharedEndpoint:
            continue
        if hc.INTERSECTION_TOL < d <= cutoff:
            family.append((base, geo))

    def matmul(items):
        for x, y in items:
            x @ y

    def ortho(items):
        for a, b in items:
            try:
                hc.orthodistance(a, b)
            except hc.SharedEndpoint:
                pass

    def mid(items):
        for a, b in items:
            hc.midplane(a, b)

    return {
        "hcore.matmul_us": _per_call_us(matmul, pairs),
        "hcore.orthodistance_us": _per_call_us(ortho, lines),
        "hcore.midplane_us": _per_call_us(mid, family),
    }
