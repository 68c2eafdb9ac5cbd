"""The package surface.  ``import graphprox`` loads no scipy module: scipy
is imported inside the functions that call it, so a process that only
imports the package starts fast and small.  Every public name resolves,
and so does every name the README's module map lists."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, graphprox; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("lam", [0.01, 0.3])
def test_float_backend_solve_loads_no_scipy(lam):
    # the chain's blocks stay small enough for the float backend, and the
    # engine labels its blocks with numpy
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    code = ("import sys; from conftest import chain_prox; "
            "from graphprox import prox; "
            f"u = prox(chain_prox(lam={lam})); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def test_public_names_resolve_once():
    import graphprox

    names = graphprox.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(graphprox, n)] == []


def test_readme_module_map_names_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(graphprox\.\w+)` \| (.*) \|$", readme, re.M)
    assert len(rows) >= 9
    missing = []
    for name, contents in rows:
        module = importlib.import_module(name)
        missing += [f"{name}.{ident}" for ident in re.findall(r"`([^`]*)`", contents)
                    if ident.isidentifier() and not hasattr(module, ident)]
    assert missing == []
