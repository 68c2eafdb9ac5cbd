"""The package surface.  ``import graphprox`` loads no scipy module: scipy
is imported inside the functions that call it, so a process that only
imports the package starts fast and small.  Every public name resolves,
and so does every name the README's module map lists."""

import importlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import chain_prox

from graphprox import prox

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


@pytest.mark.skipif(shutil.which("cc") is None,
                    reason="no C compiler on PATH: the union goes to scipy")
def test_union_of_small_blocks_loads_no_scipy():
    # 40 disjoint 10-node components: 400 nodes in all, above the 300-node
    # threshold, but each block is small, so their union goes to the C
    # kernel, and the residual searches run in C too
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, numpy as np; "
            "from graphprox import QuadraticBinaryProblem, solve_weighted; "
            "rng = np.random.default_rng(3); k, c = 10, 40; "
            "base = np.repeat(np.arange(c) * k, 2 * k); "
            "u = base + np.tile(np.r_[np.arange(k - 1), "
            "rng.integers(0, k, k + 1)], c); "
            "v = base + np.tile(np.r_[np.arange(1, k), "
            "rng.integers(0, k, k + 1)], c); "
            "keep = u != v; "
            "p = QuadraticBinaryProblem.from_parts(rng.normal(0, 0.5, k * c), "
            "zip(u[keep], v[keep], -rng.uniform(1, 2, keep.sum()))); "
            "sol = solve_weighted(p, rng.uniform(0.5, 3, k * c)); "
            "assert len(sol.breakpoints()) > 100; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def test_no_compiler_solves_without_kernel_or_scipy(tmp_path):
    # no cc on PATH and an empty home, so no cached build: the kernel is
    # not built, the float backend is the pure-Python shortest augmenting
    # paths, and a chain prox still loads no scipy module and matches the
    # kernel's answer
    env = dict(os.environ, PATH="", HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tests")]))
    out = tmp_path / "u.npy"
    code = ("import sys, numpy as np; from conftest import chain_prox; "
            "from graphprox import maxflow, prox; "
            f"np.save({str(out)!r}, prox(chain_prox(lam=0.3))); "
            "print(maxflow.kernel_error); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["no C compiler (cc) on PATH", "[]"]
    np.testing.assert_allclose(np.load(out), prox(chain_prox(lam=0.3)),
                               rtol=0, atol=1e-9)


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
