"""The traced benchmark's hooks into the library.

``perfbench/tracing.py`` patches library names where they are used
(``_engine.max_flow``, ``regression.prox``, ...) and tags each max-flow
call's backend by whether its flow carries snapped capacities
(``eff_source``).  A refactor that renames or rebinds one of those names
breaks the traced run without failing any solver test; these tests fail
instead.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import graphprox as gp
from graphprox import _engine, maxflow

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


def grid_problem(side=24, lam=0.5, seed=0):
    """A noisy two-level image on the 4-neighbour grid."""
    rng = np.random.default_rng(seed)
    img = np.zeros((side, side))
    img[:, side // 2:] = 1.0
    idx = np.arange(side * side).reshape(side, side)
    eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    a = (img + rng.normal(0, 0.3, img.shape)).ravel()
    return gp.ProxProblem(a, eu, ev, np.ones(len(eu)), lam)


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_prox_records_every_tv256_boundary(tracer):
    with tracer.span("solve"):
        gp.prox(grid_problem())
    names = Counter(s[2] for s in tracer.spans)
    assert all(names[k] > 0 for k in tracing.REQUIRED["tv256"]), names
    backends = {s[5]["backend"] for s in tracer.spans if s[2] == "maxflow"}
    assert backends == {"pr", "scipy"}
    # every flow is cut, and every scipy-tagged flow called scipy once
    assert names["min_cut"] == names["maxflow"]
    n_scipy = sum(1 for s in tracer.spans
                  if s[2] == "maxflow" and s[5]["backend"] == "scipy")
    assert names["scipy.c"] == n_scipy


def test_fista_records_regression_prox(tracer):
    eu = np.arange(5)
    rng = np.random.default_rng(1)
    problem = gp.RegressionProblem(rng.normal(0, 1, (8, 6)), rng.normal(0, 1, 8),
                                   eu, eu + 1, np.ones(5), 1.0)
    gp.fista_fit(problem, tol=0.0, max_iter=1)
    assert any(s[2] == "regression.prox" for s in tracer.spans)


def test_uninstall_restores_the_library():
    t = tracing.Tracer()
    t.install()
    assert _engine.max_flow is not maxflow.max_flow
    t.uninstall()
    assert _engine.max_flow is maxflow.max_flow
    assert _engine.min_cut is maxflow.min_cut
    assert gp.regression.prox is gp.prox
