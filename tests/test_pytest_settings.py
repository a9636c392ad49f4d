"""The repository's pytest settings: a failing test is reported as a failure,
and the session goes on to the next test."""

import pathlib
import subprocess
import sys
import textwrap

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_does_not_abort_the_session(tmp_path):
    # Hypothesis's failure report imports modules that warn on import; under
    # filterwarnings = ["error"] such a warning ended the session with an
    # internal error (exit code 3) before the next test ran.
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st


        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10


        def test_passes():
            pass
        """))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:benchmark",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
