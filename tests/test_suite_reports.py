"""The suite's own reporting: a failing property test names itself."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=100))
def test_a_failing_property(n):
    assert n < 10


def test_after_it():
    pass
'''


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # the suite's settings (pyproject.toml) and conftest, on a module of one
    # failing @given test and one passing test after it
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    path = [str(TESTS), str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "conftest", "-p", "no:cacheprovider",
         "-v", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "test_property.py::test_after_it PASSED" in run.stdout
