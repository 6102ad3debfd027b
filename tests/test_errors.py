import ast
from pathlib import Path

import tfsqueeze as tq


def caught_names(source: str) -> set[str]:
    """Every name an except clause of the module lists, alone or in a tuple."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            found.update(getattr(t, "id", getattr(t, "attr", None)) for t in types)
    return found


def test_every_error_type_is_handled_somewhere():
    # an exception type is worth its own class only if some handler tells it
    # apart; one that nothing catches by name should be folded into another
    package = Path(tq.__file__).parent
    defined = {node.name for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    caught = set().union(*(caught_names(path.read_text()) for path in package.glob("*.py")))
    assert defined - caught == set()
