"""tools/artifacts.py prints the manifest that byte-identity claims rest on,
so a manifest must be the same on every run of the same checkout."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "artifacts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("artifacts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_manifest_is_the_same_on_a_rerun(tmp_path):
    tool = load_tool()
    commands = ["analyze --input fmam --out run"]
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        out.mkdir()
    lines = list(tool.manifest(commands, first))
    assert lines == list(tool.manifest(commands, second))
    assert lines[:2] == ["$ analyze --input fmam --out run", "exit 0"]
    written = sorted(line.split("  ", 1)[1] for line in lines[4:])
    assert written == ["run/grid.npz", "run/heatmap.pgm", "run/report.json", "run/ridges.csv"]


def test_a_non_empty_out_is_refused(tmp_path, capsys):
    (tmp_path / "old.txt").write_text("x")
    assert load_tool().main(["artifacts.py", str(tmp_path)]) == 2
    assert "is not empty" in capsys.readouterr().err
