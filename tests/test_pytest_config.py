"""The project's pytest settings report a failing property test as one
failure instead of aborting the session."""

import subprocess
import sys
import textwrap

PROBE = textwrap.dedent("""
    from hypothesis import given, settings
    from hypothesis import strategies as st


    @settings(database=None)
    @given(st.just(0))
    def test_fails(x):
        assert x


    def test_passes():
        pass
""")


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path, pytestconfig):
    filters = "".join(f"    {f}\n" for f in pytestconfig.getini("filterwarnings"))
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings =\n{filters}")
    (tmp_path / "test_probe.py").write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
