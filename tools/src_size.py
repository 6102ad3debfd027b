"""Print the size of the package under src/: lines per module and in total,
two counts of what a caller can set, the count of exported names and the
count of CLI option definitions.

Settable values are the parameters of every def other than self and cls,
plus the fields of @dataclass classes; lambdas are not counted. Parameters
with a default are counted apart. Exported names are the names that the
__init__.py of each package directly under SRC_DIR imports, __future__
features aside. CLI option definitions are the call sites of an
add_argument method anywhere in the package. SRC_DIR defaults to this
repository's src/:

    python tools/src_size.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_dataclass(node: ast.ClassDef) -> bool:
    """True for @dataclass, @dataclass(...) and @dataclasses.dataclass(...)."""
    targets = (dec.func if isinstance(dec, ast.Call) else dec for dec in node.decorator_list)
    return any(getattr(t, "attr", getattr(t, "id", None)) == "dataclass" for t in targets)


def settable_counts(tree: ast.AST) -> tuple[int, int]:
    """(parameters plus dataclass fields, parameters with a default)."""
    settable = with_default = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            settable += sum(name not in ("self", "cls") for name in params)
            with_default += len(args.defaults)
            with_default += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            settable += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return settable, with_default


def exported_count(tree: ast.AST) -> int:
    """Names a package's __init__ imports, __future__ features aside."""
    return sum(len(node.names) for node in ast.walk(tree)
               if isinstance(node, ast.Import)
               or isinstance(node, ast.ImportFrom) and node.module != "__future__")


def option_count(tree: ast.AST) -> int:
    """Call sites of x.add_argument(...), argparse's option definitions."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument" for node in ast.walk(tree))


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total_lines = total_settable = total_default = total_options = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = len(text.splitlines())
        tree = ast.parse(text)
        settable, with_default = settable_counts(tree)
        total_options += option_count(tree)
        total_lines += lines
        total_settable += settable
        total_default += with_default
        print(f"{path.relative_to(src)}: {lines} lines")
    print(f"total: {total_lines} lines")
    print(f"settable values: {total_settable}")
    print(f"parameters with a default: {total_default}")
    exported = sum(exported_count(ast.parse(init.read_text(encoding="utf-8")))
                   for init in sorted(src.glob("*/__init__.py")))
    print(f"exported names: {exported}")
    print(f"CLI option definitions: {total_options}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
