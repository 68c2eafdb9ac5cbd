"""Tests of the benchmark's output checkers.

Each checker must accept reference outputs on small random instances and
reject a perturbed prox output, a shuffled ``u1`` and a non-monotone
FISTA trace.  Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402
import graphprox as gp  # noqa: E402
from graphprox import oracle, regression  # noqa: E402


def random_penalty(rng):
    m = int(rng.integers(1, 4))
    b = np.unique(np.round(np.sort(rng.normal(0, 1, m)), 3))
    return gp.PiecewiseLinearPenalty(b, np.sort(rng.normal(0, 1.5, len(b) + 1)))


def random_prox(rng, n, with_penalties):
    edges = {(i, j): float(rng.uniform(0.1, 2.0))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
    pens = {i: random_penalty(rng) for i in range(n)
            if with_penalties and rng.random() < 0.4}
    return gp.ProxProblem.from_edges(rng.normal(0, 2, n), edges,
                                     lam=float(rng.uniform(0.1, 2.0)),
                                     penalties=pens)


def random_qbm(rng, n):
    edges = {(i, j): -abs(rng.normal(0, 1))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.2}
    return gp.QuadraticBinaryProblem.from_parts(rng.normal(0, 2, n), edges)


PROX_CASES = [(seed, pens) for seed in range(6) for pens in (False, True)]


@pytest.mark.parametrize("seed,pens", PROX_CASES)
def test_prox_check_accepts_reference_and_solver(seed, pens):
    p = random_prox(np.random.default_rng(seed), 7, pens)
    assert checks.check_prox(p, oracle.prox_reference(p)) is None
    assert checks.check_prox(p, gp.prox(p)) is None


@pytest.mark.parametrize("seed,pens", PROX_CASES)
def test_prox_check_rejects_perturbed_u(seed, pens):
    p = random_prox(np.random.default_rng(seed), 7, pens)
    u = gp.prox(p)
    for i in range(p.n):
        bad = u.copy()
        bad[i] += 1e-3
        assert checks.check_prox(p, bad) is not None
    # one whole fused region shifted by 1e-4
    vals, counts = np.unique(u, return_counts=True)
    region = u == vals[np.argmax(counts)]
    assert checks.check_prox(p, np.where(region, u + 1e-4, u)) is not None


def test_prox_check_on_a_grid():
    rng = np.random.default_rng(5)
    H = W = 12
    idx = np.arange(H * W).reshape(H, W)
    eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    img = (idx % W >= W // 2) * 0.5 + rng.normal(0, 0.1, (H, W))
    p = gp.ProxProblem(img.ravel(), eu, ev, np.ones(len(eu)), 0.3)
    u = gp.prox(p)
    assert len(np.unique(u)) < H * W // 4   # large fused regions
    assert checks.check_prox(p, u) is None
    assert checks.check_prox(p, np.where(u == u[0], u + 1e-4, u)) is not None


@pytest.mark.parametrize("seed", range(4))
def test_path_check_accepts_solver_and_rejects_shuffled_u1(seed):
    rng = np.random.default_rng(seed)
    prob = random_qbm(rng, 30)
    w = rng.uniform(0.5, 3.0, 30)
    sol = gp.solve_weighted(prob, w)
    betas = np.sort(rng.uniform(-4, 4, 8))
    sets = [(sol.u1(b), sol.u2(b)) for b in betas]
    bps = sol.breakpoints()
    assert checks.check_path(prob, w, sol, bps, sets, 5,
                             np.random.default_rng(0)) is None

    shuffled = replace(sol, flip_lo=rng.permutation(sol.flip_lo))
    assert checks.check_path(prob, w, shuffled, bps, sets, 5,
                             np.random.default_rng(0)) is not None
    assert checks.check_path(prob, w, sol, bps, sets[::-1], 5,
                             np.random.default_rng(0)) is not None


def random_regression(rng, with_penalties):
    n = 6
    A = rng.normal(0, 1, (8, n))
    y = A @ np.repeat(rng.normal(0, 2, 2), n // 2) + rng.normal(0, 0.5, 8)
    eu = np.arange(n - 1)
    pens = {0: random_penalty(rng)} if with_penalties else {}
    return gp.RegressionProblem(A, y, eu, eu + 1, np.ones(n - 1), 1.0, pens)


@pytest.mark.parametrize("seed,pens", [(s, p) for s in range(3) for p in (False, True)])
def test_fista_check_accepts_solver_and_reference_prox(seed, pens, monkeypatch):
    prob = random_regression(np.random.default_rng(seed), pens)
    assert checks.check_fista(prob, gp.fista_fit(prob, tol=0, max_iter=20), 20) is None
    monkeypatch.setattr(regression, "prox",
                        lambda p, method="auto": oracle.prox_reference(p))
    assert checks.check_fista(prob, gp.fista_fit(prob, tol=0, max_iter=5), 5) is None


def test_fista_check_rejects_bad_results():
    prob = random_regression(np.random.default_rng(1), True)
    res = gp.fista_fit(prob, tol=0, max_iter=10)
    assert checks.check_fista(prob, res, 10) is None

    moved = replace(res, u=res.u + 1e-6)
    assert checks.check_fista(prob, moved, 10) is not None

    tr = res.trace.copy()
    tr[1] = tr[0] * 1.5                      # the first step rises
    assert checks.check_fista(prob, replace(res, trace=tr), 10) is not None

    tr = res.trace.copy()
    tr[3] = tr[4] = tr[0] * 1.5              # two rises in a row
    assert checks.check_fista(prob, replace(res, trace=tr), 10) is not None

    assert checks.check_fista(prob, replace(res, trace=res.trace[:-1]), 10) is not None


def test_fista_workload_check_covers_every_prox():
    prob = random_regression(np.random.default_rng(2), True)
    result, proxes = workloads._fista_with_proxes(prob, 10)
    assert regression.prox is gp.prox          # the wrapper is taken out
    assert len(proxes) == 10
    inst = {"max_iter": 10}
    assert workloads.check("fista500", inst, prob, (result, proxes)) is None
    p, u = proxes[4]
    bad = proxes[:4] + [(p, u + 1e-3)] + proxes[5:]
    assert workloads.check("fista500", inst, prob, (result, bad)) is not None


def test_path_check_prefers_the_lower_objective(monkeypatch):
    rng = np.random.default_rng(9)
    prob = random_qbm(rng, 30)
    w = rng.uniform(0.5, 3.0, 30)
    sol = gp.solve_weighted(prob, w)
    true_cut = gp.min_cut

    def worse_cut(graph, state):
        # an inexact reference: both extremes gain one node they should not
        s_min, s_max = true_cut(graph, state)
        extra = min(set(range(graph.n)) - s_max)
        return s_min | {extra}, s_max | {extra}

    monkeypatch.setattr(gp, "min_cut", worse_cut)
    assert checks.check_path(prob, w, sol, sol.breakpoints(), [], 3,
                             np.random.default_rng(0)) is None
