"""The pytest settings in pyproject.toml keep a pytest run going past a
failing test, and the benchmark's own tests run with the suite."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    """Reporting a failing `@given` example imports libcst, which warns with
    a DeprecationWarning; under the settings' `error::DeprecationWarning`
    that warning must not end the run in INTERNALERROR."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out


def test_benchmark_tests_pass():
    """perfbench/tests patch grafn functions by name, so a rename in src/
    that breaks the benchmark's tracer fails here. They run in their own
    process: their conftest would shadow this suite's `tests.conftest`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
