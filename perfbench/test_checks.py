"""Each output checker rejects a known-wrong answer and accepts the right one.

    python3 -m pytest perfbench/test_checks.py
"""

import cmath
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from run import import_hyptube, main  # noqa: E402
from workloads import CorpusSweep, Op  # noqa: E402


@pytest.fixture(scope="module")
def hyptube():
    return import_hyptube(ROOT / "src")


@pytest.fixture
def sweep(tmp_path):
    return CorpusSweep(ROOT, tmp_path, seed=7)


def run_op(hyptube, op, capsys):
    capsys.readouterr()
    rc = hyptube.cli.run(op.argv)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_spectrum_checker(hyptube, sweep, capsys, fmt):
    inp = sweep.write("shorttube-c", "shorttube", [7, 1])
    op = Op("spectrum", inp, 4, fmt)
    rc, out = run_op(hyptube, op, capsys)
    sweep.check(op, rc, out, hyptube)
    if fmt == "json":
        data = json.loads(out)
        data["entries"][3]["d"] += 1e-5
        wrong = json.dumps(data)
    else:
        lines = out.splitlines()
        lines[3] = re.sub(r"^  d (\S+)", lambda m: f"  d {float(m.group(1)) + 1e-5:.9g}", lines[3])
        wrong = "\n".join(lines) + "\n"
    with pytest.raises(CheckFailed):
        sweep.check(op, rc, wrong, hyptube)


def test_tube_checker_rejects_a_wrong_radius(hyptube, sweep, capsys):
    op = Op("tube", sweep.write("twolift-c", "twolift", [7, 2]), 3, "json")
    rc, out = run_op(hyptube, op, capsys)
    sweep.check(op, rc, out, hyptube)
    data = json.loads(out)
    data["tube_radius"] *= 1.0 + 1e-5
    with pytest.raises(CheckFailed):
        sweep.check(op, rc, json.dumps(data), hyptube)


@pytest.mark.parametrize("h", [1, 4, 10])
def test_count_checker(h):
    ball, lifts = 3 * 2**h - 2, 2**h
    checks.check_counts(2, h, ball, lifts)
    checks.check_counts(1, h, 2 * h + 1, 1)
    for wrong in (ball - 1, ball + 1):
        with pytest.raises(CheckFailed):
            checks.check_counts(2, h, wrong, lifts)
    for wrong in (lifts - 1, lifts + 1):
        with pytest.raises(CheckFailed):
            checks.check_counts(2, h, ball, wrong)


def _circle(center, radius):
    return (1.0, -center, abs(center) ** 2 - radius**2)


ZERO, INF = (0j, 1 + 0j), (1 + 0j, 0j)
CHAIN = [_circle(cmath.exp(2j * math.pi * k / 3), 0.9) for k in range(3)]


def test_verdict_checker_rejects_the_chain_reported_as_not_separating():
    with pytest.raises(CheckFailed):
        checks.check_verdict(CHAIN, ZERO, INF, "noncoalesceable", None, [(0, 1, 2)], 1)


def test_verdict_checker_accepts_the_chain_reported_as_separating():
    assert checks.check_verdict(CHAIN, ZERO, INF, "coalescing", (0, 1, 2), [(0, 1, 2)], 1) == 1


def test_verdict_checker_accepts_an_open_chain():
    decided = checks.check_verdict(CHAIN, ZERO, INF, "noncoalesceable", None,
                                   [(0, 1, 1), (1, 2, 2), (0, 0, 2)], 3)
    assert decided == 3


def test_verdict_checker_rejects_an_open_chain_reported_as_separating():
    with pytest.raises(CheckFailed):
        checks.check_verdict(CHAIN, ZERO, INF, "coalescing", (0, 1, 1), [], 0)


def test_family_checker(hyptube, sweep):
    gm = sweep.corpus["twolift"]
    forms, base = sweep.family(gm, 3, hyptube)
    lift = min((l for l in gm.lifts(3) if 1e-9 < l.d <= 4.0), key=lambda l: l.d)
    good = []
    for f in forms:
        try:
            checks.check_family_circle(f, base, lift.line, lift.d)
            good.append(f)
        except CheckFailed:
            pass
    assert len(good) == 1
    A, B, C = good[0]
    with pytest.raises(CheckFailed):
        checks.check_family_circle((A, B, C * (1 + 1e-3)), base, lift.line, lift.d)


def test_lemma120_checker(hyptube, sweep, capsys):
    op = Op("lemma120", None, None, "json")
    rc, out = run_op(hyptube, op, capsys)
    sweep.check(op, rc, out, hyptube)
    data = json.loads(out)
    data["rows"][5]["angle_deg"] += 1e-3
    with pytest.raises(CheckFailed):
        sweep.check(op, rc, json.dumps(data), hyptube)


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["--workload", "corpus-sweep", "--seed", "1", "--seconds", "1"]) != 0
    assert "{" not in capsys.readouterr().out
