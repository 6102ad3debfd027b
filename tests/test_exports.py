"""The package exports only what its own modules use: a name that only tests
call belongs in the tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tfsqueeze"


def code_names(path: Path) -> set[str]:
    """Every identifier and attribute name a module uses as code; names in
    strings and docstrings are not code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_used_by_another_module():
    init = PACKAGE / "__init__.py"
    exported = {alias.asname or alias.name
                for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used = set().union(*(code_names(path) for path in PACKAGE.glob("*.py") if path != init))
    assert sorted(exported - used) == []
