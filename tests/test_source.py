"""Static checks of the package source: it parses as the Python version
that pyproject.toml declares (``requires-python >= 3.10``), and every
dataclass is frozen, so a value is complete when it is built."""

import ast
from pathlib import Path

import pytest

import endperiodic

SOURCES = sorted(Path(endperiodic.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def _frozen_flag(decorator) -> bool | None:
    """True or False for a ``@dataclass`` decorator by its ``frozen``
    argument; None for any other decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = getattr(target, "id", None) or getattr(target, "attr", None)
    if name != "dataclass":
        return None
    return any(
        kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in (call.keywords if call else ())
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_dataclass_is_frozen(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    mutable = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for dec in node.decorator_list
        if _frozen_flag(dec) is False
    ]
    assert mutable == []
