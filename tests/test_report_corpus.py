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
