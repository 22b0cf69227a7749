"""The lowest Python pyproject.toml declares is 3.10: every source file
parses with the 3.10 grammar, whichever interpreter runs the suite.  This
checks grammar only, not the standard library a file uses."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_the_check_rejects_3_11_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_every_source_file_parses_with_the_3_10_grammar():
    assert len(SOURCES) > 20
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
