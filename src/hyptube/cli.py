"""Command-line interface: group-file ingestion, command dispatch, reports.

File format (one matrix per generator, row-major, entries as <re><sign><im>i):

    % comment to end of line
    name figure-eight-sibling
    generator a
      1.0+0.0i  2.0+0.0i
      0.0+0.0i  1.0+0.0i
    geodesic delta = ab

Lowercase letters in words are generators, uppercase their inverses.  Reports
print numbers with 9 significant digits and are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

from . import bounds, insulator, lifts
from .hcore import Isometry, classify, complex_length, visual_angle


class GroupFileError(ValueError):
    """Base class for group-file ingestion errors."""


class GroupSyntaxError(GroupFileError):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class BadDeterminant(GroupFileError):
    pass


class UnknownGenerator(GroupFileError):
    pass


class DuplicateName(GroupFileError):
    pass


_NUM = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_ENTRY_RE = re.compile(rf"^({_NUM})([+-])({_NUM})i$")


def _parse_entry(token: str, lineno: int) -> complex:
    m = _ENTRY_RE.match(token)
    if not m:
        raise GroupSyntaxError(lineno, f"bad matrix entry {token!r}")
    re_part = float(m.group(1))
    im_part = float(m.group(3))
    if m.group(2) == "-":
        im_part = -im_part
    return complex(re_part, im_part)


def _render_entry(v: complex) -> str:
    sign = "+" if v.imag >= 0 else "-"
    return f"{v.real:.17g}{sign}{abs(v.imag):.17g}i"


@dataclass
class GroupFile:
    """Parsed presentation plus named geodesic words and an optional name."""

    presentation: lifts.GroupPresentation
    geodesics: dict  # name -> word string
    name: str = ""

    def word(self, geodesic_name: str) -> lifts.Word:
        if geodesic_name not in self.geodesics:
            raise KeyError(f"no geodesic named {geodesic_name!r}")
        return self.presentation.parse_word(self.geodesics[geodesic_name])


def parse_group_file(text: str) -> GroupFile:
    """Parse the group file grammar; see the module docstring."""
    name = ""
    gen_names = []
    gen_rows = []  # list of entry lists, 4 per generator
    geodesics = {}
    pending = None  # generator currently collecting matrix rows

    def finish_pending(lineno):
        nonlocal pending
        if pending is None:
            return
        gname, entries = pending
        if len(entries) != 4:
            raise GroupSyntaxError(lineno, f"generator {gname!r} needs 4 matrix entries")
        a, b, c, d = entries
        det = a * d - b * c
        if abs(det - 1.0) > 1e-6:
            raise BadDeterminant(
                f"generator {gname!r} has determinant {det:.6g}, expected 1 within 1e-6"
            )
        gen_names.append(gname)
        gen_rows.append(Isometry.from_matrix(a, b, c, d))
        pending = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "name":
            finish_pending(lineno)
            name = line[len("name") :].strip()
        elif tokens[0] == "generator":
            finish_pending(lineno)
            if len(tokens) != 2 or not (
                len(tokens[1]) == 1 and tokens[1].islower() and tokens[1].isalpha()
            ):
                raise GroupSyntaxError(lineno, "expected 'generator <lowercase-letter>'")
            if tokens[1] in gen_names or (pending and pending[0] == tokens[1]):
                raise DuplicateName(f"duplicate generator name {tokens[1]!r}")
            pending = (tokens[1], [])
        elif tokens[0] == "geodesic":
            finish_pending(lineno)
            m = re.match(r"^geodesic\s+(\w+)\s*=\s*([A-Za-z]+)$", line)
            if not m:
                raise GroupSyntaxError(lineno, "expected 'geodesic <identifier> = <word>'")
            gname, word = m.group(1), m.group(2)
            if gname in geodesics:
                raise DuplicateName(f"duplicate geodesic name {gname!r}")
            geodesics[gname] = word
        elif pending is not None:
            for tok in tokens:
                pending[1].append(_parse_entry(tok, lineno))
            if len(pending[1]) > 4:
                raise GroupSyntaxError(lineno, "too many matrix entries")
        else:
            raise GroupSyntaxError(lineno, f"unexpected line {line!r}")
    finish_pending(len(text.splitlines()))
    if not gen_names:
        raise GroupFileError("no generators declared")
    presentation = lifts.GroupPresentation(tuple(gen_names), tuple(gen_rows))
    for gname, word in geodesics.items():
        for ch in word:
            if ch.lower() not in gen_names:
                raise UnknownGenerator(
                    f"geodesic {gname!r} uses undeclared generator {ch!r}"
                )
    return GroupFile(presentation, geodesics, name)


def render_group_file(gf: GroupFile) -> str:
    """Inverse of parse_group_file: parse(render(x)) == x.  Comments in the
    source file are not kept."""
    out = []
    if gf.name:
        out.append(f"name {gf.name}")
    for nm, g in zip(gf.presentation.names, gf.presentation.generators):
        out.append(f"generator {nm}")
        out.append(f"  {_render_entry(g.a)}  {_render_entry(g.b)}")
        out.append(f"  {_render_entry(g.c)}  {_render_entry(g.d)}")
    for gname, word in gf.geodesics.items():
        out.append(f"geodesic {gname} = {word}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# reports


def _fmt(x) -> str:
    if x is None:
        return "unbounded"
    return format(x, ".9g")


EXIT_AFFIRMATIVE = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_TUBE_EXIT = {"holds": EXIT_AFFIRMATIVE, "fails": EXIT_NEGATIVE, "inconclusive": EXIT_INCONCLUSIVE}
_INS_EXIT = {
    "noncoalesceable": EXIT_AFFIRMATIVE,
    "coalescing": EXIT_NEGATIVE,
    "inconclusive": EXIT_INCONCLUSIVE,
}


def _cmd_info(gf: GroupFile, args) -> tuple:
    def record(label, word):
        g = gf.presentation.element(word)
        kind = classify(g)
        rec = {"label": label, "word": word.to_string(gf.presentation.names), "class": kind}
        if kind == "loxodromic":
            cl = complex_length(g)
            rec["length"] = cl.d
            rec["twist"] = cl.theta
        return rec

    data = {
        "schema_version": 1,
        "name": gf.name,
        "generators": [
            record(nm, lifts.Word((i + 1,))) for i, nm in enumerate(gf.presentation.names)
        ],
        "geodesics": [record(gname, gf.word(gname)) for gname in gf.geodesics],
    }
    return data, EXIT_AFFIRMATIVE


def _text_info(d, args) -> list:
    return [
        f"{r['label']}: {r['class']}"
        + (f", length {_fmt(r['length'])}, twist {_fmt(r['twist'])}" if "length" in r else "")
        for r in d["generators"] + d["geodesics"]
    ]


def _cmd_spectrum(gf: GroupFile, args) -> tuple:
    word = gf.word(args.geodesic)
    L = lifts.lifts_of_geodesic(gf.presentation, word, args.max_word_length)
    entries, diags = lifts.ortho_spectrum(L, args.cutoff)
    data = {
        "schema_version": 1,
        "geodesic": args.geodesic,
        "horizon": L.horizon,
        "cutoff": args.cutoff,
        "lift_count": len(L.lifts),
        "entries": [
            {"d": e.distance.d, "theta": e.distance.theta,
             "word": e.word.to_string(gf.presentation.names)}
            for e in entries
        ],
        "diagnostics": [list(d) for d in diags],
    }
    return data, EXIT_AFFIRMATIVE


def _text_spectrum(d, args) -> list:
    lines = [
        f"ortholength spectrum of {d['geodesic']!r} "
        f"(horizon {d['horizon']}, cutoff {_fmt(d['cutoff'])}, {d['lift_count']} lifts)"
    ]
    for e in d["entries"]:
        lines.append(f"  d {_fmt(e['d'])}  twist {_fmt(e['theta'])}  word {e['word']}")
    for j, msg in d["diagnostics"]:
        lines.append(f"  ! lift {j}: {msg}")
    return lines


def _cmd_tube(gf: GroupFile, args) -> tuple:
    word = gf.word(args.geodesic)
    L = lifts.lifts_of_geodesic(gf.presentation, word, args.max_word_length)
    tr = lifts.tube_radius(L)
    verdict = lifts.check_log3_tube(L, args.tol)
    data = {
        "schema_version": 1,
        "geodesic": args.geodesic,
        "tube_radius": tr.radius,
        "horizon": tr.horizon,
        "witness_word": tr.witness.word.to_string(gf.presentation.names)
        if tr.witness else None,
        "verdict": verdict,
        "threshold": bounds.LOG3_HALF,
        "displacement": L.displacement,
    }
    return data, _TUBE_EXIT[verdict]


def _text_tube(d, args) -> list:
    lines = [f"tube radius: {_fmt(d['tube_radius'])} (horizon {d['horizon']})"]
    if d["witness_word"] is not None:
        lines.append(f"witness word: {d['witness_word']}")
    lines.append(f"log3/2 tube criterion: {d['verdict']} (threshold {_fmt(d['threshold'])})")
    if d["displacement"] is not None:
        lines.append(f"frontier displacement: {_fmt(d['displacement'])}")
    return lines


def _cmd_insulator(gf: GroupFile, args) -> tuple:
    word = gf.word(args.geodesic)
    L = lifts.lifts_of_geodesic(gf.presentation, word, args.max_word_length)
    family = insulator.build_family(L, args.cutoff)
    verdict = insulator.noncoalesceable(family, args.budget, args.tol)
    data = {
        "schema_version": 1,
        "geodesic": args.geodesic,
        "family_size": len(family),
        "members": [
            {"d": m.ortho.d, "theta": m.ortho.theta,
             "word": m.word.to_string(gf.presentation.names)}
            for m in family.members
        ],
        "verdict": verdict.kind,
        "basis": verdict.basis,
        "triple": list(verdict.triple) if verdict.triple is not None else None,
    }
    return data, _INS_EXIT[verdict.kind]


def _text_insulator(d, args) -> list:
    # the horizon is the requested word length; the JSON does not repeat the inputs
    lines = [
        f"insulator family of {d['geodesic']!r}: {d['family_size']} members "
        f"(horizon {args.max_word_length}, cutoff {_fmt(args.cutoff)})"
    ]
    for m in d["members"]:
        lines.append(f"  ortho {_fmt(m['d'])}  word {m['word']}")
    lines.append(f"verdict: {d['verdict']} (basis {d['basis']})")
    if d["triple"] is not None:
        lines.append(f"separating triple: {tuple(d['triple'])}")
    return lines


def _cmd_check(gf: GroupFile, args) -> tuple:
    word = gf.word(args.geodesic)
    report = bounds.hypothesis_report(
        gf.presentation,
        word,
        maxlen=args.max_word_length,
        cutoff=args.cutoff,
        budget=args.budget,
        tol=args.tol,
    )
    code = EXIT_AFFIRMATIVE if report.established else (
        EXIT_NEGATIVE if report.insulator_verdict == "coalescing" or report.tube_verdict == "fails"
        else EXIT_INCONCLUSIVE
    )
    return report.to_dict(), code


def _text_check(d, args) -> list:
    witness = d["tube_witness_word"]
    lines = [
        f"geodesic {args.geodesic!r} = {d['deltaword']}",
        f"complex length: {_fmt(d['delta_length'])} + {_fmt(d['delta_twist'])}i",
        f"lifts: {d['lift_count']} (horizon {d['horizon']}, cutoff {_fmt(d['cutoff'])})",
        f"tube radius: {_fmt(d['tube_radius'])}" + (f" (witness {witness})" if witness else ""),
        f"log3/2 tube criterion: {d['tube_verdict']}",
        f"spectrum stable: {d['spectrum_stable']}",
        f"frontier displacement: {_fmt(d['displacement'])}",
        f"long-geodesic guarantee (>{_fmt(bounds.LONG_LEN)}): {d['long_guarantee']}",
        f"short-geodesic guarantee (<{_fmt(bounds.MEYERHOFF_LEN)}): "
        f"{d['short_guarantee_meyerhoff']}",
        f"short-geodesic guarantee (<{_fmt(bounds.GM_LEN)}): "
        f"{d['short_guarantee_gehring_martin']}",
        f"insulator verdict: {d['insulator_verdict']} (basis {d['insulator_basis']}, "
        f"{d['family_size']} members)",
        f"conclusion: {d['conclusion']}",
    ]
    lines += [f"note: {note}" for note in d["notes"]]
    return lines


def _cmd_lemma120(args) -> tuple:
    ds = [round(0.1 * k, 10) for k in range(13)]
    if not any(abs(d - bounds.LOG3_HALF) < 5e-7 for d in ds):
        ds.append(bounds.LOG3_HALF)
    ds.sort()
    rows = [{"d": d, "angle_deg": math.degrees(visual_angle(d))} for d in ds]
    return {"schema_version": 1, "rows": rows}, EXIT_AFFIRMATIVE


def _text_lemma120(d, args) -> list:
    return ["distance    visual angle (deg)"] + [
        f"{r['d']:.6f}    {r['angle_deg']:.6f}" for r in d["rows"]
    ]


_COMMANDS = {  # name -> (command, text renderer of its report dict)
    "info": (_cmd_info, _text_info),
    "spectrum": (_cmd_spectrum, _text_spectrum),
    "tube": (_cmd_tube, _text_tube),
    "insulator": (_cmd_insulator, _text_insulator),
    "check": (_cmd_check, _text_check),
    "lemma120": (_cmd_lemma120, _text_lemma120),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must not collide with verdict codes
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--max-word-length", type=int, default=6, metavar="N")
    common.add_argument("--cutoff", type=float, default=4.0, metavar="R")
    common.add_argument("--tol", type=float, default=1e-9, metavar="T")
    common.add_argument("--budget", type=int, default=50_000, metavar="K")
    common.add_argument("--format", choices=("text", "json"), default="text")
    ap = _Parser(
        prog="hyptube",
        description="Ortholength spectra, tube radii and insulator families "
        "of closed geodesics in hyperbolic 3-manifolds.",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, needs_geodesic=True):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("groupfile")
        if needs_geodesic:
            p.add_argument("geodesic")
        return p

    add("info", needs_geodesic=False)
    add("spectrum")
    add("tube")
    add("insulator")
    add("check")
    sub.add_parser("lemma120", parents=[common])
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, text = _COMMANDS[args.command]
    try:
        if args.command == "lemma120":
            data, code = command(args)
        else:
            with open(args.groupfile, encoding="utf-8") as fh:
                gf = parse_group_file(fh.read())
            data, code = command(gf, args)
    except (GroupFileError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (AssertionError, RuntimeError) as exc:  # a broken internal invariant
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        print("\n".join(text(data, args)))
    return code


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
