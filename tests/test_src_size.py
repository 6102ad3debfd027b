"""tools/src_size.py counts what each change's size claim rests on: lines,
settable values, parameters with a default and exported names."""

import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"

MODULE = textwrap.dedent('''\
    import dataclasses
    from dataclasses import dataclass


    def f(a, b=1, /, c=2, *args, d, e=3, **kwargs):  # 7 settable, 3 with a default
        square = lambda x, y=0: x * y  # a lambda is not counted

        def inner(g, h=4):  # 2 settable, 1 with a default
            return g

        return inner, square


    class C:
        def m(self, x):  # self is not counted
            return x

        @classmethod
        def k(cls, y=5):  # cls is not counted
            return y


    @dataclass
    class P:
        x: int
        y: float = 0.0  # a field's default is not a parameter's


    @dataclasses.dataclass(frozen=True)
    class Q:
        z: str
        LIMIT = 3  # not annotated, so not a field


    class R:
        w: int  # not a dataclass
''')


def test_totals_of_a_tiny_package(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text('"""Empty."""\n')
    (pkg / "mod.py").write_text(MODULE)
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    n_lines = len(MODULE.splitlines())
    assert done.stdout.splitlines() == [
        "pkg/__init__.py: 1 lines",
        f"pkg/mod.py: {n_lines} lines",
        f"total: {n_lines + 1} lines",
        # f 7, inner 2, m 1, k 1, P 2, Q 1
        "settable values: 14",
        # f 3, inner 1, k 1
        "parameters with a default: 5",
        "exported names: 0",
    ]


def test_exported_names_are_the_package_inits_imports(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text(textwrap.dedent('''\
        """Docstring: import nothing from here."""
        from __future__ import annotations

        import os
        from .mod import f, C as K
    '''))
    (pkg / "mod.py").write_text("import sys\nfrom os import path\n")
    # a subpackage's imports are not the package's exports
    (pkg / "sub" / "__init__.py").write_text("from ..mod import f\n")
    done = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    # os, f and K; the __future__ feature is no export
    assert done.stdout.splitlines()[-1] == "exported names: 3"
