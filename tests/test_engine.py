"""Level-synchronous bisection: batched flow calls, mixed block sizes,
weights and anchors at one recursion depth."""

import numpy as np
import pytest

import graphprox._engine as engine
from graphprox import (PiecewiseLinearPenalty, ProxProblem,
                       QuadraticBinaryProblem, build_prox_qbm, certificate,
                       evaluate, prox, reductions, solve_weighted)
from graphprox.oracle import brute_force_values


@pytest.fixture
def flow_calls(monkeypatch):
    """Node counts of every max-flow call the engine makes."""
    sizes = []
    inner = engine.max_flow

    def counted(net, *args, **kwargs):
        sizes.append(net.n)
        return inner(net, *args, **kwargs)

    monkeypatch.setattr(engine, "max_flow", counted)
    return sizes


def chain_prox(n=500, segments=10, seed=5):
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), segments - 1, replace=False))
    truth = np.repeat(rng.normal(0, 2, segments),
                      np.diff(np.concatenate([[0], cuts, [n]])))
    eu = np.arange(n - 1)
    return ProxProblem(truth + rng.normal(0, 0.5, n), eu, eu + 1,
                       np.ones(n - 1), 0.3)


class TestBatching:
    def test_chain_flow_calls_per_depth(self, flow_calls):
        # ~500 blocks, but only a few recursion depths
        u = prox(chain_prox())
        assert len(np.unique(u)) > 100
        assert len(flow_calls) <= 40

    def test_chain_exact(self):
        problem = chain_prox()
        assert certificate(problem, prox(problem)) <= 1e-7

    def test_mixed_block_sizes(self, flow_calls):
        # a strongly fused 350-node chain at level ~3 among 150 weakly
        # coupled pairs on both sides: depths mix one block over the
        # 300-node threshold (solved alone) with a union of small blocks
        rng = np.random.default_rng(11)
        big = 350
        pairs = 150
        a = np.concatenate([3.0 + rng.normal(0, 0.1, big),
                            np.repeat(np.concatenate(
                                [rng.uniform(-10, -1, pairs // 2),
                                 rng.uniform(10, 20, pairs // 2)]), 2)
                            + rng.normal(0, 0.3, 2 * pairs)])
        eu = np.concatenate([np.arange(big - 1),
                             big + 2 * np.arange(pairs)])
        w = np.concatenate([np.full(big - 1, 5.0), np.full(pairs, 0.2)])
        problem = ProxProblem(a, eu, eu + 1, w, 1.0)
        b = build_prox_qbm(problem)
        auto = engine.solve_parametric(b.qbm, b.weights, method="auto")
        assert big in flow_calls  # the fused chain, cut on its own
        assert any(n <= 300 for n in flow_calls)
        ref = engine.solve_parametric(b.qbm, b.weights, method="push_relabel")
        for key in ("levels", "flip_lo", "flip_hi"):
            x, y = getattr(auto, key), getattr(ref, key)
            assert np.allclose(x, y, rtol=1e-9, atol=1e-9), key
        assert np.ptp(auto.levels[:big]) == 0.0  # the chain stays fused
        assert certificate(problem, auto.levels[:problem.n]) <= 1e-7


class TestWeightsAtOneDepth:
    def test_zero_and_positive_blocks(self):
        # components solved side by side: positive weights, mixed
        # zero/positive weights, and all-zero weights (one of them a
        # strongly fused pair that ends as a single level set)
        diag = np.array([1.0, -2.0, 0.5, 3.0, -1.5, 0.7, -0.4, 2.2, -3.0,
                         1.1, -0.6, 0.9, 1.3])
        edges = {(0, 1): -1.0, (1, 2): -0.5, (3, 4): -2.0, (4, 5): -0.3,
                 (6, 7): -0.8, (7, 8): -1.2, (9, 10): -0.4, (11, 12): -5.0}
        w = np.array([1.0, 2.0, 0.5, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0,
                      0.0, 0.0])
        prob = QuadraticBinaryProblem.from_parts(diag, edges)
        sol = solve_weighted(prob, w)
        r = reductions(prob, sol.alpha).r
        assert np.abs(r - sol.levels).max() <= 1e-9
        # r = diag + q / 2 = (-1.6, -1.2), fused at the block mean
        assert sol.levels[11] == sol.levels[12] == pytest.approx(-1.4)
        f0, wS, memb = brute_force_values(prob, w)
        for beta in np.linspace(-4.0, 4.0, 33):
            vals = f0 - beta * wS
            for S in (sol.u1(beta), sol.u2(beta)):
                row = np.zeros(prob.n, dtype=bool)
                row[list(S)] = True
                k = int(np.nonzero((memb == row).all(axis=1))[0][0])
                assert vals[k] <= vals.min() + 1e-9
                assert evaluate(prob, S, beta, w) == pytest.approx(vals[k])
        # the all-zero component resolves by sign, independent of beta
        assert np.all(np.isinf(sol.flip_hi[[6, 7, 8, 11, 12]]))
        assert np.all(np.isfinite(sol.flip_hi[:3]))


class TestAnchorsAtPivot:
    def test_batched_second_solve(self, flow_calls):
        # node 0: |u| anchor at 0 with a = -1; node 1: |u - 2| anchor at 2
        # with a = 1.5.  The root splits at the anchor mean 1; each half
        # then pivots exactly at its own anchor, cuts trivially, and needs
        # the anchored second solve: both halves share one call for each
        pens = {0: PiecewiseLinearPenalty([0.0], [-1.0, 1.0]),
                1: PiecewiseLinearPenalty([2.0], [-1.0, 1.0])}
        problem = ProxProblem.from_edges([-1.0, 1.5], {}, lam=0.2,
                                         penalties=pens)
        u = prox(problem)
        assert u == pytest.approx([-0.9, 1.6], abs=1e-12)
        assert len(flow_calls) == 3
