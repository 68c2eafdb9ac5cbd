"""Each demo script, and the README's quick start, runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run_python([str(demo)])


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    quick = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", quick, re.S).group(1)
    run_python(["-c", code])
