"""The three workloads: seeded inputs, the operations of one round, and the
check of each operation's output.

A round is a fixed list of CLI commands; every run repeats whole rounds, so
the share of failed operations is the same in every run.  The group files
hyptube reads are written here, conjugated by seeded isometries near the
identity; only the operation that is expected to fail reads an unconjugated
corpus file, so that it fails the same way whatever the seed.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np

import checks
import model
from checks import expect

CORPUS = ("cyclic", "shorttube", "twolift")
CUTOFF = 4.0
TRIPLE_SAMPLE = 6  # raster-decided multisets per family
TRIPLE_TRIES = 150


@dataclass
class Input:
    key: str
    corpus: str
    path: Path
    model: model.GroupModel  # this file's matrices
    origin: model.GroupModel  # the unconjugated corpus file

    @property
    def conjugated(self) -> bool:
        return self.model is not self.origin


@dataclass(frozen=True)
class Op:
    command: str
    inp: Input | None
    horizon: int | None
    fmt: str

    @property
    def argv(self):
        args = [self.command]
        if self.inp is not None:
            args.append(str(self.inp.path))
            if self.command != "info":
                args.append("delta")
        if self.horizon is not None:
            args += ["--max-word-length", str(self.horizon)]
        return args + ["--format", self.fmt]

    @property
    def label(self) -> str:
        return " ".join(a if "/" not in a else Path(a).name for a in self.argv)


class Workload:
    """Inputs under ``workdir``; ``round_ops(r)`` writes what round r needs."""

    name = ""

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root, self.workdir, self.seed = root, workdir, seed % 2**63
        self.corpus = {}
        for c in CORPUS:
            text = (root / "perfbench" / "corpus" / f"{c}.grp").read_text()
            self.corpus[c] = model.GroupModel(model.parse_grp(text))
        self._families = {}
        self._verdicts = set()

    def write(self, key: str, corpus: str, conj_seed) -> Input:
        """The corpus file itself when conj_seed is None, else a seeded conjugate."""
        origin = self.corpus[corpus]
        if conj_seed is None:
            return Input(key, corpus, self.root / "perfbench" / "corpus" / f"{corpus}.grp",
                         origin, origin)
        h = model.near_identity(np.random.default_rng(conj_seed))
        gm = model.GroupModel(model.conjugate(origin.text, h, key))
        path = self.workdir / f"{key}.grp"
        path.write_text(model.render_grp(gm.text))
        return Input(key, corpus, path, gm, origin)

    def setup_inputs(self):
        """Write the inputs of round 0 and return their paths."""
        return [op.inp.path for op in self.round_ops(0) if op.inp is not None]

    def round_ops(self, r: int):
        raise NotImplementedError

    # -- checks ------------------------------------------------------------

    def family(self, gm: model.GroupModel, h: int, hyptube):
        """Circles of build_family on this file, each checked against the model."""
        key = (id(gm), h)
        if key not in self._families:
            gf = hyptube.cli.parse_group_file(model.render_grp(gm.text))
            L = hyptube.lifts.lifts_of_geodesic(gf.presentation, gf.word("delta"), h)
            fam = hyptube.insulator.build_family(L, CUTOFF)
            names = gf.presentation.names
            forms = []
            for m in fam.members:
                w = m.word.to_string(names)
                g = gm.element(w)
                line = (model.act(g, gm.base[0]), model.act(g, gm.base[1]))
                d, _ = model.complex_distance(gm.base, line)
                expect(checks.close(m.ortho.d, d, checks.TOL_JSON), f"member {w}: d {m.ortho.d!r}")
                f = checks.hermitian(m.circle)
                checks.check_family_circle(f, gm.base, line, d)
                forms.append(f)
            got = {(fam.p_plus.z, fam.p_plus.w), (fam.p_minus.z, fam.p_minus.w)}
            for p in gm.base:
                expect(any(abs(model.cross(p, x)) <= 1e-9 for x in got), "family base endpoints")
            self._families[key] = (forms, gm.base)
        return self._families[key]

    def check_verdict(self, inp: Input, h: int, verdict: str, triple, hyptube):
        """Raster check of the verdict on this file's family and on the
        unconjugated corpus file's family (conjugation invariance)."""
        memo = (inp.key, h, verdict, None if triple is None else tuple(triple))
        if memo in self._verdicts:
            return
        for gm in [inp.model] + ([inp.origin] if inp.conjugated else []):
            forms, (p, q) = self.family(gm, h, hyptube)
            if not forms:
                continue
            multisets = list(combinations_with_replacement(range(len(forms)), 3))
            rng = np.random.default_rng([self.seed, zlib.crc32(gm.text.name.encode()), h])
            sample = [multisets[i] for i in rng.integers(len(multisets), size=TRIPLE_TRIES)]
            decided = checks.check_verdict(forms, p, q, verdict,
                                           triple if gm is inp.model else None,
                                           sample, TRIPLE_SAMPLE)
            expect(decided > 0, f"no multiset of {gm.text.name} at horizon {h} was decided")
        self._verdicts.add(memo)

    def check(self, op: Op, rc, out: str, hyptube):
        tol = checks.TOL_JSON if op.fmt == "json" else checks.TOL_TEXT
        data = checks.parse_output(op.command, op.fmt, out)
        if op.command == "lemma120":
            checks.check_lemma120(data, tol)
            expect(rc == 0, f"exit code {rc}")
            return data
        inp, h = op.inp, op.horizon
        gm = inp.model
        if op.command == "info":
            _check_info(data, gm, tol)
            expect(rc == 0, f"exit code {rc}")
            return data
        ngens = len(gm.text.gens)
        if op.command == "spectrum":
            expect(data["horizon"] == h and data["cutoff"] == CUTOFF, "spectrum header")
            checks.check_counts(ngens, h, None, data["lift_count"])
            _check_spectrum(data["entries"], inp, h, tol)
            shared = sum(1 for l in gm.lifts(h) if l.shared)
            expect(len(data["diagnostics"]) == shared, "shared-endpoint diagnostics")
            expect(rc == 0, f"exit code {rc}")
        elif op.command == "tube":
            expect(data["horizon"] == h, "tube horizon")
            _check_tube(data["tube_radius"], data["witness_word"], data["verdict"],
                        data["displacement"], inp, h, tol)
            expect(abs(data["threshold"] - model.LOG3_HALF) <= tol, "tube threshold")
            expect(rc == {"holds": 0, "fails": 1, "inconclusive": 2}[data["verdict"]],
                   f"exit code {rc} for {data['verdict']}")
        elif op.command == "insulator":
            members = data["members"]
            expect(data["family_size"] == len(members), "family size and member list")
            _check_family_list(members, inp, h, tol)
            self._check_insulator(data["verdict"], data["basis"], data["triple"],
                                  [m["d"] for m in members], inp, h, hyptube)
            code = {"noncoalesceable": 0, "coalescing": 1, "inconclusive": 2}[data["verdict"]]
            expect(rc == code, f"exit code {rc} for {data['verdict']}")
        elif op.command == "check":
            self._check_report(data, op, rc, tol, hyptube)
        return data

    def _check_insulator(self, verdict, basis, triple, ds, inp, h, hyptube):
        shortcut = all(d / 2.0 > model.LOG3_HALF + 1e-9 for d in ds)
        if shortcut:
            expect(verdict == "noncoalesceable" and basis == "tube-shortcut",
                   f"verdict {verdict} ({basis}) where the tube shortcut applies")
        else:
            n = len(ds)
            if n * (n + 1) * (n + 2) // 6 <= 50_000:
                expect(basis == "exhaustive-triples", f"basis {basis} for {n} members")
            expect(verdict in ("noncoalesceable", "coalescing", "inconclusive"), verdict)
        if verdict in ("noncoalesceable", "coalescing"):
            self.check_verdict(inp, h, verdict, triple, hyptube)

    def _check_report(self, data, op, rc, tol, hyptube):
        inp, h = op.inp, op.horizon
        gm = inp.model
        d0, t0 = model.complex_length(gm.element(gm.delta))
        expect(data["deltaword"] == gm.delta, "report deltaword")
        expect(checks.close(data["delta_length"], d0, tol), "report delta length")
        expect(abs(math.remainder(data["delta_twist"] - t0, 2 * math.pi)) <= 1e-6, "report twist")
        expect(data["horizon"] == h and data["cutoff"] == CUTOFF, "report horizon and cutoff")
        checks.check_counts(len(gm.text.gens), h, None, data["lift_count"])
        _check_tube(data["tube_radius"], data["tube_witness_word"], data["tube_verdict"],
                    data["displacement"], inp, h, tol)
        if "spectrum" in data:
            _check_spectrum(data["spectrum"], inp, h, tol)
        stable = gm.stable(h, 2.0 * model.LOG3_HALF) if h >= 1 else None
        expect(data["spectrum_stable"] == stable, f"spectrum stable {data['spectrum_stable']}")
        expect(data["long_guarantee"] == (d0 > checks.LONG_LEN), "long guarantee")
        expect(data["short_guarantee_meyerhoff"] == (d0 < checks.MEYERHOFF_LEN), "Meyerhoff")
        expect(data["short_guarantee_gehring_martin"] == (d0 < checks.GM_LEN), "Gehring-Martin")
        fam = checks.family_distances(inp.model, h, CUTOFF)
        expect(data["family_size"] == len(fam) or _near_cutoff(inp, h), "report family size")
        self._check_insulator(data["insulator_verdict"], data["insulator_basis"],
                              data.get("insulator_triple"), fam, inp, h, hyptube)
        established = (data["tube_verdict"] == "holds"
                       or data["insulator_verdict"] == "noncoalesceable")
        if "established" in data:
            expect(data["established"] == established, "report established")
        want = "hypothesis holds (within horizon)" if established else "hypothesis not established"
        expect(data["conclusion"] == want, f"conclusion {data['conclusion']!r}")
        negative = data["insulator_verdict"] == "coalescing" or data["tube_verdict"] == "fails"
        code = 0 if established else (1 if negative else 2)
        expect(rc == code, f"exit code {rc}, expected {code}")


def _near_cutoff(inp: Input, h: int) -> bool:
    return any(abs(l.d - CUTOFF) <= checks.TOL_CUTOFF for l in inp.model.lifts(h))


def _check_info(data, gm: model.GroupModel, tol):
    recs = data["records"] if "records" in data else data["generators"] + data["geodesics"]
    want = dict(gm.text.gens)
    want.update({k: gm.element(v) for k, v in gm.text.geodesics.items()})
    expect(sorted(r["label"] for r in recs) == sorted(want), "info labels")
    for r in recs:
        m = want[r["label"]]
        kind = model.classify(m)
        expect(r["class"] == kind, f"{r['label']} classed {r['class']}, expected {kind}")
        if kind == "loxodromic":
            d, t = model.complex_length(m)
            expect(checks.close(r["length"], d, tol), f"{r['label']} length {r['length']!r}")
            expect(abs(math.remainder(r["twist"] - t, 2 * math.pi)) <= 1e-6,
                   f"{r['label']} twist {r['twist']!r}")


def _check_spectrum(entries, inp: Input, h: int, tol):
    checks.check_entries(inp.model, entries, tol)
    got = [e["d"] for e in entries]
    checks.check_distance_list(got, inp.model, h, CUTOFF, tol, "spectrum")
    checks.check_distance_list(got, inp.origin, h, CUTOFF, checks.TOL_INVARIANT,
                               "spectrum against the unconjugated file")


def _check_family_list(members, inp: Input, h: int, tol):
    checks.check_entries(inp.model, members, tol)
    got = [m["d"] for m in members]
    for gm, t, what in ((inp.model, tol, "family"),
                        (inp.origin, checks.TOL_INVARIANT, "family against the unconjugated file")):
        want = checks.family_distances(gm, h, CUTOFF)
        expect(len(got) == len(want) or _near_cutoff(inp, h), f"{what}: {len(got)} members")
        for x, y in zip(sorted(got), want):
            expect(checks.close(x, y, t), f"{what}: distance {x!r}, expected {y!r}")


def _check_tube(radius, witness, verdict, displacement, inp: Input, h: int, tol):
    checks.check_radius(inp.model, h, radius, witness, tol)
    expect(checks.close(radius, inp.origin.tube_radius(h), checks.TOL_INVARIANT),
           f"tube radius {radius!r} differs from the corpus file's")
    want = inp.model.tube_verdict(h)
    expect(verdict == want, f"tube verdict {verdict}, expected {want}")
    expect(verdict == inp.origin.tube_verdict(h), "tube verdict differs from the corpus file")
    disp = inp.model.displacement(h)
    expect(checks.close(displacement, disp, tol),
           f"displacement {displacement!r}, expected {disp!r}")


# ---------------------------------------------------------------------------


class DeepBall(Workload):
    """tube and spectrum at horizon 9, each operation on its own conjugate."""

    name = "deep-ball"
    HORIZON = 9
    PLAN = (("tube", "shorttube", "text"), ("tube", "twolift", "text"),
            ("spectrum", "shorttube", "json"), ("spectrum", "twolift", "json"))

    def round_ops(self, r: int):
        ops = []
        for k, (cmd, corpus, fmt) in enumerate(self.PLAN):
            inp = self.write(f"{corpus}-r{r}-k{k}", corpus, [self.seed, r, k])
            ops.append(Op(cmd, inp, self.HORIZON, fmt))
        return ops


class ExhaustiveTriples(Workload):
    """The 19-member family of shorttube at horizon 5 decided triple by triple,
    by insulator and by check, each operation on its own conjugate, plus the
    operation that fails today."""

    name = "exhaustive-triples"
    PLAN = (("insulator", "text"), ("check", "json"), ("insulator", "json"), ("check", "text"))

    def round_ops(self, r: int):
        ops = []
        for k, (cmd, fmt) in enumerate(self.PLAN):
            inp = self.write(f"shorttube-r{r}-k{k}", "shorttube", [self.seed, r, k])
            ops.append(Op(cmd, inp, 5, fmt))
        ops.append(Op("check", self.write("twolift", "twolift", None), 8, "json"))
        return ops


class CorpusSweep(Workload):
    """Every command on the corpus and its conjugates at small horizons."""

    name = "corpus-sweep"

    def round_ops(self, r: int):
        if r == 0:
            self._ops = []
            inputs = []
            for n, c in enumerate(CORPUS):
                inputs.append(self.write(c, c, None))
                inputs.append(self.write(f"{c}-c", c, [self.seed, n]))
            for inp in inputs:
                if not inp.conjugated:
                    self._ops += [Op("info", inp, None, f) for f in ("text", "json")]
            self._ops += [Op("lemma120", None, None, f) for f in ("text", "json")]
            for cmd in ("spectrum", "tube", "insulator", "check"):
                for inp in inputs:
                    for h in (1, 2, 3, 4):
                        fmt = ("json", "text")[(h + inp.conjugated) % 2]
                        self._ops.append(Op(cmd, inp, h, fmt))
        return self._ops

    def check_invariance(self, results):
        """Verdicts and radii of each conjugate equal the corpus file's."""
        by_key = {}
        for op, data in results:
            if op.inp is None or op.command in ("info", "spectrum"):
                continue
            by_key.setdefault((op.command, op.inp.corpus, op.horizon), {})[op.inp.conjugated] = data
        fields = {"tube": ("verdict",), "insulator": ("verdict", "basis", "family_size"),
                  "check": ("tube_verdict", "insulator_verdict", "insulator_basis", "family_size",
                            "spectrum_stable", "conclusion")}
        for (cmd, corpus, h), pair in by_key.items():
            if len(pair) < 2:
                continue
            for f in fields[cmd]:
                expect(pair[True][f] == pair[False][f],
                       f"{cmd} {corpus} h{h}: {f} {pair[True][f]!r} on the conjugate, "
                       f"{pair[False][f]!r} on the corpus file")


WORKLOADS = {w.name: w for w in (DeepBall, ExhaustiveTriples, CorpusSweep)}
