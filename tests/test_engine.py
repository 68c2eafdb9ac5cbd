"""Level-synchronous bisection over connected components: batched flow
calls, mixed block sizes, weights and anchors at one recursion depth, and
disjoint pieces that solve as if alone."""

import numpy as np
import pytest

import graphprox._engine as engine
from conftest import random_prox_problem, random_submodular
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
        assert len(flow_calls) <= 8  # 6 measured

    def test_edgeless_needs_no_flow(self, flow_calls):
        # every node is its own component, so each finishes at size one
        rng = np.random.default_rng(2)
        prob = QuadraticBinaryProblem.from_parts(rng.normal(0, 2, 50), {})
        w = rng.uniform(0.5, 2.0, 50)
        sol = solve_weighted(prob, w)
        assert flow_calls == []
        np.testing.assert_allclose(sol.levels, prob.diag, rtol=1e-15)
        assert np.array_equal(sol.flip_hi, prob.diag / w)

    def test_lambda_zero_needs_no_flow(self, flow_calls):
        # with lambda = 0 no edge or anchor coupling survives the build
        p = random_prox_problem(np.random.default_rng(3), 40,
                                with_penalties=True)
        problem = ProxProblem(p.a, p.edge_u, p.edge_v, p.edge_w, 0.0,
                              p.penalties)
        assert problem.penalties and len(problem.edge_u)
        assert np.array_equal(prox(problem), problem.a)
        assert flow_calls == []

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
        ref = engine.solve_parametric(b.qbm, b.weights, method="float")
        for key in ("levels", "flip_lo", "flip_hi"):
            x, y = getattr(auto, key), getattr(ref, key)
            assert np.allclose(x, y, rtol=1e-9, atol=1e-9), key
        assert np.ptp(auto.levels[:big]) == 0.0  # the chain stays fused
        assert certificate(problem, auto.levels[:problem.n]) <= 1e-7

    def test_interleaved_large_blocks(self, flow_calls):
        # two 350-node chains, one on the even and one on the odd nodes:
        # their edges interleave in problem order, and each chain is over
        # the 300-node threshold, so it is cut alone from its own slice
        rng = np.random.default_rng(4)
        n = 700
        a = np.repeat(rng.normal(0, 3, 14), 50) + rng.normal(0, 0.5, n)
        eu = np.arange(n - 2)
        problem = ProxProblem(a, eu, eu + 2, rng.uniform(0.5, 2.0, n - 2),
                              0.4)
        b = build_prox_qbm(problem)
        auto = engine.solve_parametric(b.qbm, b.weights)
        assert flow_calls[:2] == [350, 350]
        ref = engine.solve_parametric(b.qbm, b.weights, method="float")
        np.testing.assert_allclose(auto.levels, ref.levels, rtol=1e-9,
                                   atol=1e-9)
        assert certificate(problem, auto.levels) <= 1e-7


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
        # the anchored second solve.  The two halves are separate
        # components from the start, so there is no root cut; their second
        # solves still share one call
        pens = {0: PiecewiseLinearPenalty([0.0], [-1.0, 1.0]),
                1: PiecewiseLinearPenalty([2.0], [-1.0, 1.0])}
        problem = ProxProblem.from_edges([-1.0, 1.5], {}, lam=0.2,
                                         penalties=pens)
        u = prox(problem)
        assert u == pytest.approx([-0.9, 1.6], abs=1e-12)
        assert len(flow_calls) == 2


class TestAnchoredHarvest:
    """A finished block holding anchors needs a flow that routes each
    node's excess into the anchors; the cut's max flow need not."""

    def residual(self, problem, method="auto"):
        build = build_prox_qbm(problem)
        sol = engine.solve_parametric(build.qbm, build.weights,
                                      build.anchor_mask, build.anchor_values,
                                      method=method)
        r = reductions(build.qbm, sol.alpha).r
        return sol, float(np.abs(r - sol.levels)[sol.interior()].max())

    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_excess_into_anchor(self, method):
        # soft thresholding puts u at the anchor 0, with all of a = -0.2
        # carried by the anchor edge
        problem = ProxProblem.from_edges(
            [-0.2], [], 1.0, {0: PiecewiseLinearPenalty.abs_value()})
        sol, res = self.residual(problem, method)
        assert sol.levels[0] == 0.0
        assert res <= 1e-9

    def test_random_penalized(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            problem = random_prox_problem(rng, int(rng.integers(1, 40)),
                                          with_penalties=True)
            assert self.residual(problem, "float")[1] <= 1e-9


class TestHardTies:
    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_random_ties_brute_force(self, method):
        # cycles and chains of infinite couplings among finite ones
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    x = rng.random()
                    if x < 0.15:
                        edges[(i, j)] = -np.inf
                    elif x < 0.5:
                        edges[(i, j)] = -abs(float(rng.normal(0, 1)))
            prob = QuadraticBinaryProblem.from_parts(rng.normal(0, 2, n), edges)
            w = rng.uniform(0.5, 2.0, n)
            sol = engine.solve_parametric(prob, w, method=method)
            if method == "float":
                r = reductions(prob, sol.alpha).r
                assert np.abs(r - sol.levels).max() <= 1e-9
            f0, wS, memb = brute_force_values(prob, w)
            for beta in np.linspace(-5.0, 5.0, 21) + 0.0123:
                vals = f0 - beta * wS
                opt = vals <= vals.min() + 1e-9
                assert sol.u1(beta) == set(
                    np.flatnonzero(memb[opt].all(axis=0)).tolist())
                assert sol.u2(beta) == set(
                    np.flatnonzero(memb[opt].any(axis=0)).tolist())


def random_tree(rng, n):
    """Diagonal and edges of a random tree on nodes 0..n-1."""
    edges = {(int(rng.integers(0, i)), i): -abs(float(rng.normal(0, 1)))
             for i in range(1, n)}
    return rng.normal(0, 2, n), edges


def union(pieces):
    """The disjoint union of (problem, weights, anchor_mask, anchor_values)
    pieces, node ids shifted piece by piece."""
    diag, edges, off = [], {}, 0
    for prob, *_ in pieces:
        diag.append(prob.diag)
        for (i, j), q in prob.offdiag().items():
            edges[(i + off, j + off)] = q
        off += prob.n
    prob = QuadraticBinaryProblem.from_parts(np.concatenate(diag), edges)
    return (prob,) + tuple(np.concatenate([p[k] for p in pieces])
                           for k in (1, 2, 3))


def three_pieces(rng, sizes):
    """A positive-weight piece, an all-zero-weight piece and a prox piece
    with penalty anchors, as (problem, weights, anchor_mask,
    anchor_values)."""
    pieces = []
    for n, weight in zip(sizes[:2], (rng.uniform(0.5, 2.0, sizes[0]),
                                     np.zeros(sizes[1]))):
        diag, edges = random_tree(rng, n)
        pieces.append((QuadraticBinaryProblem.from_parts(diag, edges),
                       weight, np.zeros(n, dtype=bool), np.zeros(n)))
    _, edges = random_tree(rng, sizes[2])
    prox_problem = ProxProblem.from_edges(
        rng.normal(0, 2, sizes[2]), {e: -q for e, q in edges.items()},
        lam=0.7, penalties={0: PiecewiseLinearPenalty([0.5], [-1.0, 1.0]),
                            3: PiecewiseLinearPenalty([-1.0], [-0.5, 2.0])})
    b = build_prox_qbm(prox_problem)
    pieces.append((b.qbm, b.weights, b.anchor_mask, b.anchor_values))
    return pieces


def solve(piece, method="auto"):
    prob, w, mask, values = piece
    return engine.solve_parametric(prob, w, mask if mask.any() else None,
                                   values, method=method)


KEYS = ("levels", "flip_lo", "flip_hi", "alpha")


class TestComponents:
    def test_pieces_solve_as_if_alone(self):
        # trees, so the in-block flows and with them alpha are unique
        rng = np.random.default_rng(3)
        pieces = three_pieces(rng, (60, 40, 50))
        whole = union(pieces)
        sol = solve(whole)
        ref = solve(whole, "float")
        alone = [solve(p) for p in pieces]
        for key in KEYS:
            got = getattr(sol, key)
            want = np.concatenate([getattr(a, key) for a in alone])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=key)
            np.testing.assert_allclose(got, getattr(ref, key), rtol=0,
                                       atol=1e-12, err_msg=key)
        inner = sol.interior()
        r = reductions(whole[0], sol.alpha).r
        assert np.abs(r - sol.levels)[inner].max() <= 1e-9
        # the all-zero piece resolves by sign, independent of beta
        assert np.all(np.isinf(sol.flip_hi[60:100]))

    def test_pieces_brute_force(self):
        rng = np.random.default_rng(8)
        pieces = []
        for n, weight in ((4, rng.uniform(0.5, 2.0, 4)), (4, np.zeros(4)),
                          (5, rng.uniform(0.5, 2.0, 5))):
            pieces.append((random_submodular(rng, n, 0.6), weight,
                           np.zeros(n, dtype=bool), np.zeros(n)))
        prob, w, _, _ = union(pieces)
        sol = solve_weighted(prob, w)
        f0, wS, memb = brute_force_values(prob, w)
        for beta in np.linspace(-5.0, 5.0, 41) + 0.0123:
            vals = f0 - beta * wS
            opt = vals <= vals.min() + 1e-9
            for S, want in ((sol.u1(beta), memb[opt].all(axis=0)),
                            (sol.u2(beta), memb[opt].any(axis=0))):
                assert S == set(np.flatnonzero(want).tolist())
