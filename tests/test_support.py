"""The rule that keeps shared test inputs in one place: no module under
``tests/`` imports a ``test_*`` module; what two of them share lives in
``support.py``."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(Path(__file__).parent.glob("*.py"))


def _imported_names(path: Path) -> list[str]:
    """Every dotted name that ``path`` imports, ``from m import n`` as m.n."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_test_module_imports_another(path):
    imported = [name for name in _imported_names(path)
                if any(part.startswith("test_") for part in name.split("."))]
    assert imported == [], f"{path.name} imports {imported}; move what they share to support.py"
