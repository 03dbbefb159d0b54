"""Every source and test file parses as Python 3.10, the oldest version
pyproject.toml accepts."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/pivotsmith/*.py"), *ROOT.glob("tests/*.py")])


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_file_parses_as_python_3_10(path):
    """``ast.parse`` with ``feature_version=(3, 10)`` rejects syntax that
    3.11 added, such as ``except*``.  The check is best effort: it misses
    some 3.11 grammar, such as a starred annotation, and it cannot see a
    call to a library function that 3.10 lacks."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
