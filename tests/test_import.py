"""``import graphprox`` loads no scipy module: scipy is imported inside the
functions that call it, so a process that only imports the package starts
fast and small."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, graphprox; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"
