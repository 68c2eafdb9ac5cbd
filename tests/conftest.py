"""Shared instance generators for the test suite.

Random submodular instances follow the convention: couplings
q_ij ~ -|Normal(0,1)| on Erdos-Renyi(p) edges, diagonals Normal(0,2).
"""

import numpy as np
import pytest

from graphprox import PiecewiseLinearPenalty, ProxProblem, QuadraticBinaryProblem


def random_submodular(rng, n, density=0.5):
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges[(i, j)] = -abs(rng.normal(0, 1))
    return QuadraticBinaryProblem.from_parts(rng.normal(0, 2, n), edges)


def random_penalty(rng, max_kinks=3):
    m = int(rng.integers(1, max_kinks + 1))
    b = np.unique(np.round(np.sort(rng.normal(0, 1, m)), 3))
    th = np.sort(rng.normal(0, 1.5, len(b) + 1))
    return PiecewiseLinearPenalty(b, th)


def random_prox_problem(rng, n, with_penalties=False, density=None):
    if density is None:
        density = min(0.4, 6.0 / max(n, 1))
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges[(i, j)] = float(rng.uniform(0.1, 2.0))
    pens = {}
    if with_penalties:
        for i in range(n):
            if rng.random() < 0.4:
                pens[i] = random_penalty(rng)
    return ProxProblem.from_edges(rng.normal(0, 2, n), edges,
                                  lam=float(rng.uniform(0.1, 2.0)),
                                  penalties=pens)


def chain_prox(n=500, segments=10, seed=5, lam=0.3):
    """A noisy piecewise-constant signal on a chain: the prox of a
    chain-fused regression step."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), segments - 1, replace=False))
    truth = np.repeat(rng.normal(0, 2, segments),
                      np.diff(np.concatenate([[0], cuts, [n]])))
    eu = np.arange(n - 1)
    return ProxProblem(truth + rng.normal(0, 0.5, n), eu, eu + 1,
                       np.ones(n - 1), lam)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def flow_backend(monkeypatch):
    """``flow_backend(method)`` sends every network the engine solves from
    then on to ``max_flow``'s ``method`` backend ("float" or "scipy"),
    whatever backend the engine asks for.  The engine takes no backend
    choice of its own, so the backend cross-checks patch its ``max_flow``
    here."""
    import graphprox._engine as engine

    inner = engine.max_flow

    def force(backend):
        def forced(net, method=None):
            return inner(net, backend)
        monkeypatch.setattr(engine, "max_flow", forced)
    return force
