"""The verdict-level diff of ``tools/report_corpus.py``."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_corpus.py"


@pytest.fixture(scope="module")
def corpus():
    spec = importlib.util.spec_from_file_location("report_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def save(directory: Path, digest: str, report: str) -> None:
    """A one-report corpus as ``--save`` writes it."""
    directory.mkdir()
    (directory / "index.txt").write_text(f"0 0 {digest} builtin H5\n", encoding="utf-8")
    (directory / "0.json").write_text(report, encoding="utf-8")


def test_sign_of_zero_moves(corpus):
    moved, broken = corpus.compare_reports({"pt": {"residual": -0.0}}, {"pt": {"residual": 0}})
    assert (moved, broken) == (["pt.residual: -0.0 -> 0"], [])


def test_saved_negative_zero_keeps_its_sign(corpus, tmp_path, capsys):
    save(tmp_path / "a", "aa", '{"norms": [[1, -0]]}')
    save(tmp_path / "b", "bb", '{"norms": [[1, 0]]}')
    assert corpus.compare(tmp_path / "a", tmp_path / "b") == 0
    out = capsys.readouterr().out
    assert "0 ok 1 moved builtin H5" in out and "moved norms.0.1: -0.0 -> 0" in out


def test_holds_flip_breaks_a_rule(corpus):
    a = {"pseudo_real": [{"name": "rho", "residual": 1e-9, "holds": True}]}
    b = {"pseudo_real": [{"name": "rho", "residual": 1e-9, "holds": False}]}
    moved, broken = corpus.compare_reports(a, b)
    assert moved == broken == ["pseudo_real.0.holds: True -> False"]


MOVE = {"pt": {"residual": 0, "holds": True}}, {"pt": {"residual": 1.5, "holds": False}}


def test_declared_moves_break_no_rule(corpus, tmp_path):
    moves = tmp_path / "moves.txt"
    moves.write_text("# by design\n0 pt.residual 0 1.5\n0 pt.holds true false  # PT\n",
                     encoding="utf-8")
    declared = corpus.read_moves(moves)
    assert declared == {"0": {"pt.residual": (0, 1.5), "pt.holds": (True, False)}}
    moved, broken = corpus.compare_reports(*MOVE, declared["0"])
    assert broken == [] and len(moved) == 2 and declared["0"] == {}
    # without the declaration the same moves break the rules
    assert len(corpus.compare_reports(*MOVE)[1]) == 2


def test_a_move_declared_with_other_values_fails(corpus):
    moved, broken = corpus.compare_reports(*MOVE, {"pt.residual": (0, 1.25),
                                                   "pt.holds": (True, False)})
    assert broken == ["pt.residual: 0 -> 1.5, declared 0 -> 1.25"]


def test_a_declared_move_that_does_not_occur_fails(corpus, tmp_path, capsys):
    report = '{"pt": {"residual": 0, "holds": true}}'
    save(tmp_path / "a", "aa", report)
    save(tmp_path / "b", "aa", report)
    assert corpus.compare(tmp_path / "a", tmp_path / "b", {"0": {"pt.holds": (True, False)}}) == 1
    assert "FAIL pt.holds: declared True -> False, did not move" in capsys.readouterr().out
    assert corpus.compare(tmp_path / "a", tmp_path / "b", {"7": {"pt.holds": (True, False)}}) == 1
    assert corpus.compare(tmp_path / "a", tmp_path / "b") == 0
