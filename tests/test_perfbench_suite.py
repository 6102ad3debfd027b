"""The benchmark's own suite runs with these tests: its recorder asserts facts
about the package (which functions exist and are re-bound, how many distinct
framings a compare makes), so a package change that breaks one fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_suite_passes():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
