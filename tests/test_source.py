"""The package source against the Python version that pyproject.toml
declares (``requires-python >= 3.10``)."""

import ast
from pathlib import Path

import pytest

import endperiodic

SOURCES = sorted(Path(endperiodic.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
