"""Group-file ingestion, command dispatch, exit codes, report determinism."""

import json
import math
from pathlib import Path

import pytest

from hyptube.cli import (
    EXIT_AFFIRMATIVE,
    EXIT_ERROR,
    EXIT_INCONCLUSIVE,
    EXIT_NEGATIVE,
    BadDeterminant,
    DuplicateName,
    GroupFile,
    GroupFileError,
    GroupSyntaxError,
    UnknownGenerator,
    parse_group_file,
    render_group_file,
    run,
)

REPO = Path(__file__).resolve().parents[1]
CORPUS = sorted((REPO / "groups").glob("*.grp"))

TWOLIFT = str(REPO / "groups" / "twolift.grp")
CYCLIC = str(REPO / "groups" / "cyclic.grp")
SHORTTUBE = str(REPO / "groups" / "shorttube.grp")

VALID = """\
% a two generator example
name sample
generator a
  1.7320508075688772+0i  0+0i
  0+0i  0.57735026918962584+0i
generator b
  1+0i  2+0i
  0+0i  1+0i
geodesic delta = a
geodesic gamma = abAB
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_valid_file():
    gf = parse_group_file(VALID)
    assert gf.name == "sample"
    assert gf.presentation.names == ("a", "b")
    assert gf.geodesics == {"delta": "a", "gamma": "abAB"}
    assert gf.word("gamma").letters == (1, 2, -1, -2)
    assert abs(gf.presentation.generators[0].a - math.sqrt(3)) < 1e-12


def test_parse_render_roundtrip_corpus():
    assert len(CORPUS) >= 3
    for path in CORPUS:
        gf = parse_group_file(path.read_text())
        text = render_group_file(gf)
        gf2 = parse_group_file(text)
        assert gf2.name == gf.name
        assert gf2.geodesics == gf.geodesics
        assert gf2.presentation.names == gf.presentation.names
        for x, y in zip(gf.presentation.generators, gf2.presentation.generators):
            assert x.close_to(y, 1e-12)


def test_parse_bad_determinant():
    bad = "generator a\n  1+0i  0+0i\n  0+0i  2+0i\n"
    with pytest.raises(BadDeterminant):
        parse_group_file(bad)


def test_parse_unknown_generator_in_word():
    bad = VALID + "geodesic extra = aX\n"
    with pytest.raises(UnknownGenerator):
        parse_group_file(bad)


def test_parse_duplicate_names():
    with pytest.raises(DuplicateName):
        parse_group_file(VALID.replace("generator b", "generator a"))
    with pytest.raises(DuplicateName):
        parse_group_file(VALID + "geodesic delta = b\n")


def test_parse_syntax_error_carries_line_number():
    bad = "name x\nwibble\n"
    with pytest.raises(GroupSyntaxError) as exc:
        parse_group_file(bad)
    assert exc.value.lineno == 2
    assert "line 2" in str(exc.value)


def test_parse_bad_entry_and_counts():
    with pytest.raises(GroupSyntaxError):
        parse_group_file("generator a\n  1  0+0i\n  0+0i  1+0i\n")
    with pytest.raises(GroupSyntaxError):
        parse_group_file("generator a\n  1+0i  0+0i\n  0+0i\ngeodesic d = a\n")
    with pytest.raises(GroupFileError):
        parse_group_file("% nothing but a comment\n")


# ---------------------------------------------------------------------------
# exit codes on the corpus


def test_tube_exit_codes():
    assert run(["tube", TWOLIFT, "delta", "--max-word-length", "2"]) == EXIT_AFFIRMATIVE
    assert run(["tube", SHORTTUBE, "delta", "--max-word-length", "2"]) == EXIT_NEGATIVE
    assert run(["tube", CYCLIC, "delta", "--max-word-length", "0"]) == EXIT_INCONCLUSIVE


def test_insulator_exit_codes():
    assert (
        run(["insulator", TWOLIFT, "delta", "--max-word-length", "2"])
        == EXIT_AFFIRMATIVE
    )
    assert (
        run(["insulator", SHORTTUBE, "delta", "--max-word-length", "2", "--budget", "1"])
        == EXIT_INCONCLUSIVE
    )


def test_check_exit_code_and_text(capsys):
    assert run(["check", TWOLIFT, "delta", "--max-word-length", "2"]) == EXIT_AFFIRMATIVE
    out = capsys.readouterr().out
    assert "conclusion: hypothesis holds (within horizon)" in out
    assert "tube radius: 0.658478948" in out


def test_info_runs(capsys):
    assert run(["info", TWOLIFT]) == EXIT_AFFIRMATIVE
    out = capsys.readouterr().out
    assert "a: loxodromic, length 1.09861229" in out
    assert "g: elliptic" in out


def test_error_exit_codes(capsys):
    assert run(["tube", "/no/such/file.grp", "delta"]) == EXIT_ERROR
    assert run(["tube", TWOLIFT, "nonexistent"]) == EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        run(["tube"])  # missing positional arguments
    assert exc.value.code == EXIT_ERROR
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate", TWOLIFT])
    assert exc.value.code == EXIT_ERROR


# ---------------------------------------------------------------------------
# reports


def test_spectrum_report(capsys):
    assert run(["spectrum", TWOLIFT, "delta", "--max-word-length", "1"]) == 0
    out = capsys.readouterr().out
    assert "d 1.3169579" in out and "word g" in out


def test_lemma120_table(capsys):
    assert run(["lemma120"]) == EXIT_AFFIRMATIVE
    out = capsys.readouterr().out
    assert "0.549306    120.000000" in out
    assert "0.000000    180.000000" in out


def test_json_output(capsys):
    assert run(
        ["check", TWOLIFT, "delta", "--max-word-length", "1", "--format", "json"]
    ) == EXIT_AFFIRMATIVE
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == 1
    assert data["tube_verdict"] == "holds"
    assert abs(data["tube_radius"] - math.acosh(2) / 2) < 1e-6
    assert data["tube_witness_word"] == "g"
    assert data["conclusion"] == "hypothesis holds (within horizon)"


def test_json_tube_fixture(capsys):
    assert run(
        ["tube", TWOLIFT, "delta", "--max-word-length", "1", "--format", "json"]
    ) == EXIT_AFFIRMATIVE
    data = json.loads(capsys.readouterr().out)
    assert abs(data["tube_radius"] - 0.658479) < 1e-6
    assert data["verdict"] == "holds"


def test_determinism_byte_identical(capsys):
    argv = ["check", TWOLIFT, "delta", "--max-word-length", "3"]
    assert run(argv) == EXIT_AFFIRMATIVE
    first = capsys.readouterr().out
    assert run(argv) == EXIT_AFFIRMATIVE
    second = capsys.readouterr().out
    assert first == second
    assert first  # non-empty


def test_groupfile_word_lookup_error():
    gf = parse_group_file(VALID)
    with pytest.raises(KeyError):
        gf.word("missing")


def test_check_honours_tol(capsys):
    argv = [TWOLIFT, "delta", "--max-word-length", "1", "--tol", "0.2", "--format", "json"]
    run(["tube"] + argv)
    tube = json.loads(capsys.readouterr().out)
    run(["check"] + argv)
    check = json.loads(capsys.readouterr().out)
    # radius 0.658 lies within tol of (log 3)/2, so neither can say "holds"
    assert tube["verdict"] == check["tube_verdict"] == "inconclusive"


def test_seed_flag_removed():
    with pytest.raises(SystemExit) as exc:
        run(["lemma120", "--seed", "1"])
    assert exc.value.code == EXIT_ERROR


@pytest.mark.parametrize("exc_type", [AssertionError, RuntimeError])
def test_internal_error_exit_code(monkeypatch, capsys, exc_type):
    def broken(*args, **kwargs):
        raise exc_type("invariant broken")

    monkeypatch.setattr("hyptube.insulator.noncoalesceable", broken)
    for command in ("insulator", "check"):
        assert run([command, TWOLIFT, "delta", "--max-word-length", "1"]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: internal: invariant broken\n"


def test_readme_library_list_is_the_export_list():
    import re
    import types

    import hyptube

    readme = (REPO / "README.md").read_text()
    block = readme.split("from hyptube import (", 1)[1].split(")", 1)[0]
    listed = set(re.findall(r"\b[A-Za-z_][A-Za-z0-9_]*\b", re.sub(r"#.*", "", block)))
    exported = {
        n for n, v in vars(hyptube).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert listed == exported
