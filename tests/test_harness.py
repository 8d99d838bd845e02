"""The test run itself: a property test that fails is reported as one
failure, and the tests after it still run."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # the probe runs under the project's ini, its warnings errors among them, and
    # loads this directory's conftest as a plugin, as the suite does
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(ROOT / "pyproject.toml"), "-p", "conftest",
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert re.match(r"1 failed, 1 passed\b", done.stdout.splitlines()[-1]), done.stdout
