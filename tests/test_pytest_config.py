"""The suite's pytest configuration reports every failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # With filterwarnings = ["error"], a warning raised while hypothesis
    # explains a failing example used to crash the session
    # (INTERNALERROR), so the tests after it never ran.
    module = tmp_path / "test_generated.py"
    module.write_text(textwrap.dedent("""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_runs_after_the_failure():
            pass
    """), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(module)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out, out
