"""The demos/ scripts and the README's Quick start run to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_python(*args) -> subprocess.CompletedProcess:
    """python *args with the package's src on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run_python(str(demo))
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_readme_quick_start_runs():
    """The Quick start's python block runs; its last line, the fitted
    order, lies within 0.1 of 1."""
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"## Quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert abs(float(result.stdout.splitlines()[-1]) - 1.0) < 0.1
