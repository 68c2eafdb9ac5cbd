"""Level-synchronous bisection over connected components: batched flow
calls, mixed block sizes, weights and anchors at one recursion depth, and
disjoint pieces that solve as if alone."""

import numpy as np
import pytest

import graphprox._engine as engine
from conftest import chain_prox, random_prox_problem, random_submodular
from graphprox import (PiecewiseLinearPenalty, ProxProblem,
                       QuadraticBinaryProblem, build_prox_qbm, certificate,
                       evaluate, prox, reductions, solve_weighted)
from graphprox.oracle import (brute_force_values, min_norm_reference,
                              prox_reference)


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


@pytest.fixture
def block_sizes(monkeypatch):
    """Node counts of every block network the engine builds, before the
    nodes whose side every minimum cut agrees on are fixed."""
    sizes = []
    inner = engine.fix_sides

    def counted(net):
        sizes.append(net.n)
        return inner(net)

    monkeypatch.setattr(engine, "fix_sides", counted)
    return sizes


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

    def test_weak_chain_fixes_most_nodes(self, block_sizes, flow_calls):
        # with a small lambda nearly every node's unary outweighs its
        # arcs, so its side is fixed before the max-flow
        problem = chain_prox(lam=0.01)
        u = prox(problem)
        assert sum(flow_calls) <= 0.05 * sum(block_sizes)
        assert max(flow_calls) <= 25
        assert certificate(problem, u) <= 1e-7

    def test_mixed_block_sizes(self, flow_calls, flow_backend):
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
        auto = engine.solve_parametric(b.qbm)
        assert big in flow_calls  # the fused chain, cut on its own
        assert any(n <= 300 for n in flow_calls)
        flow_backend("float")
        ref = engine.solve_parametric(b.qbm)
        for key in ("levels", "flip_lo", "flip_hi"):
            x, y = getattr(auto, key), getattr(ref, key)
            assert np.allclose(x, y, rtol=1e-9, atol=1e-9), key
        assert np.ptp(auto.levels[:big]) == 0.0  # the chain stays fused
        assert certificate(problem, auto.levels[:problem.n]) <= 1e-7

    def test_interleaved_large_blocks(self, block_sizes, flow_calls,
                                      flow_backend):
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
        auto = engine.solve_parametric(b.qbm)
        assert block_sizes[:2] == [350, 350]
        # most chain nodes are fixed, so each chain's free network goes
        # to the float backend
        assert flow_calls[:2] == [67, 71]
        flow_backend("float")
        ref = engine.solve_parametric(b.qbm)
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
    def test_batched_second_solve(self, block_sizes, flow_calls):
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
        assert len(block_sizes) == 2
        # every node of both networks is fixed: no flow is needed
        assert flow_calls == []


class TestAnchoredHarvest:
    """A finished block holding anchors needs a flow that routes each
    node's excess into the anchors; the cut's max flow need not."""

    def residual(self, problem):
        build = build_prox_qbm(problem)
        sol = engine.solve_parametric(build.qbm, None,
                                      build.anchor_mask, build.anchor_values)
        r = reductions(build.qbm, sol.alpha).r
        return sol, float(np.abs(r - sol.levels)[sol.interior()].max())

    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_excess_into_anchor(self, method, flow_backend):
        # soft thresholding puts u at the anchor 0, with all of a = -0.2
        # carried by the anchor edge
        problem = ProxProblem.from_edges(
            [-0.2], [], 1.0, {0: PiecewiseLinearPenalty.abs_value()})
        flow_backend(method)
        sol, res = self.residual(problem)
        assert sol.levels[0] == 0.0
        assert res <= 1e-9

    def test_random_penalized(self, flow_backend):
        rng = np.random.default_rng(7)
        flow_backend("float")
        for _ in range(40):
            problem = random_prox_problem(rng, int(rng.integers(1, 40)),
                                          with_penalties=True)
            assert self.residual(problem)[1] <= 1e-9


class TestHardTies:
    @pytest.mark.parametrize("method", ["float", "scipy"])
    def test_random_ties_brute_force(self, method, flow_backend):
        # cycles and chains of infinite couplings among finite ones
        rng = np.random.default_rng(4)
        flow_backend(method)
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
            sol = engine.solve_parametric(prob, w)
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
    pieces.append((b.qbm, np.ones(b.qbm.n), b.anchor_mask, b.anchor_values))
    return pieces


def solve(piece):
    prob, w, mask, values = piece
    return engine.solve_parametric(prob, w, mask if mask.any() else None,
                                   values)


KEYS = ("levels", "flip_lo", "flip_hi", "alpha")


class TestComponents:
    def test_pieces_solve_as_if_alone(self, flow_backend):
        # trees, so the in-block flows and with them alpha are unique
        rng = np.random.default_rng(3)
        pieces = three_pieces(rng, (60, 40, 50))
        whole = union(pieces)
        sol = solve(whole)
        alone = [solve(p) for p in pieces]
        flow_backend("float")
        ref = solve(whole)
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


def scipy_labels(L, lu, lv):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    graph = coo_matrix((np.ones(len(lu)), (lu, lv)), shape=(L, L))
    return connected_components(graph, directed=False)[1]


def permuted_grid(rng, side):
    idx = rng.permutation(side * side).reshape(side, side)
    return (np.concatenate([idx[:, :-1].ravel(), idx[:-1].ravel()]),
            np.concatenate([idx[:, 1:].ravel(), idx[1:].ravel()]))


class TestComponentLabels:
    """``_engine._components`` numbers blocks exactly as scipy's
    ``connected_components`` does, by each component's smallest node."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_multigraphs(self, seed):
        # sparse enough to leave isolated nodes and many components; the
        # first pairs come again, some reversed
        rng = np.random.default_rng(seed)
        L = int(rng.integers(2, 80))
        m = int(rng.integers(1, L + 1))
        lu, lv = rng.integers(0, L, m), rng.integers(0, L, m)
        keep = lu != lv
        lu, lv = lu[keep], lv[keep]
        k = len(lu) // 3
        lu, lv = (np.concatenate([lu, lu[:k], lv[k:2 * k]]),
                  np.concatenate([lv, lv[:k], lu[k:2 * k]]))
        labels = engine._components(L, lu, lv)
        assert np.array_equal(labels, scipy_labels(L, lu, lv))

    @pytest.mark.parametrize("L", [0, 1, 7])
    def test_no_edges(self, L):
        none = np.zeros(0, dtype=np.int64)
        assert np.array_equal(engine._components(L, none, none), np.arange(L))

    def test_numbered_by_smallest_node(self):
        # components {0, 4}, {1}, {2, 3, 5} and {6, 7}: the root 6 of the
        # last is numbered 3
        lu, lv = np.array([4, 5, 3, 7]), np.array([0, 2, 5, 6])
        assert engine._components(8, lu, lv).tolist() == [0, 1, 2, 2, 0, 2,
                                                          3, 3]

    def test_adversarial_orders(self):
        # a permuted path, a permuted grid, and a star whose centre is the
        # largest id: orders that make naive label propagation slow
        rng = np.random.default_rng(5)
        n = 100_000
        p = rng.permutation(n)
        star = 1000
        cases = [(n, p[:-1], p[1:]),
                 (300 * 300, *permuted_grid(rng, 300)),
                 (star, np.full(star - 1, star - 1), np.arange(star - 1))]
        for L, lu, lv in cases:
            labels = engine._components(L, lu, lv)
            assert np.array_equal(labels, scipy_labels(L, lu, lv))


def grid_prox(rng, side, penalties=None):
    """A weakly fused prox on the side x side 4-neighbour grid with unit
    edge weights and centres rounded to 0.1: many nodes share a centre, so
    a child block can start out flat under the flow its parent left and
    finish with no flow call."""
    idx = np.arange(side * side).reshape(side, side)
    eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    return ProxProblem(np.round(rng.normal(0, 0.3, side * side), 1), eu, ev,
                       np.ones(len(eu)), float(rng.uniform(0.05, 0.3)),
                       penalties or {})


class TestCarriedFlow:
    """Each depth cuts its blocks on the residual network of the flow its
    parent depth left.  Every finished block, one found flat with no flow
    call included, leaves an alpha inside the box whose reductions are the
    levels, and levels and flips match the reference solvers, with every
    network on the float backend."""

    @pytest.fixture(autouse=True)
    def float_backend(self, flow_backend):
        flow_backend("float")

    def check_alpha(self, prob, sol):
        cap = np.where(prob.ties, np.inf, -prob.edge_q)
        assert np.all(np.abs(sol.alpha) <= cap)
        r = reductions(prob, sol.alpha).r
        assert np.abs(r - sol.levels)[sol.interior()].max() <= 1e-9

    def check_prox(self, problem, anchored):
        b = build_prox_qbm(problem)
        sol = engine.solve_parametric(
            b.qbm, None, b.anchor_mask if anchored else None,
            b.anchor_values)
        self.check_alpha(b.qbm, sol)
        n, ref = problem.n, prox_reference(problem)
        for key in ("levels", "flip_lo", "flip_hi"):
            np.testing.assert_allclose(getattr(sol, key)[:n], ref, rtol=0,
                                       atol=1e-6, err_msg=key)

    def test_grid_proxes(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            self.check_prox(grid_prox(rng, int(rng.integers(3, 8))), False)

    def test_anchors_at_pivot(self):
        # kinks at 0 and 0.5 among centres rounded to 0.1: whole blocks
        # settle on a kink, where their anchors sit at the pivot
        rng = np.random.default_rng(24)
        for _ in range(15):
            side = int(rng.integers(3, 8))
            hosts = rng.choice(side * side, side * side // 3, replace=False)
            pens = {int(i): PiecewiseLinearPenalty(
                [float(rng.choice([0.0, 0.5]))], [-1.0, 1.0]) for i in hosts}
            self.check_prox(grid_prox(rng, side, pens), True)

    def test_ties_and_zero_weights(self):
        # rounded diagonals and couplings among hard ties; weights with
        # zeros in every other problem, where the reference does not apply
        rng = np.random.default_rng(23)
        for t in range(24):
            n = int(rng.integers(2, 25))
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    x = rng.random()
                    if x < 0.05:
                        edges[(i, j)] = -np.inf
                    elif x < 0.25:
                        edges[(i, j)] = -float(rng.choice([0.5, 1.0, 1.5]))
            prob = QuadraticBinaryProblem.from_parts(
                np.round(rng.normal(0, 2, n), 1), edges)
            w = rng.choice([0.0, 0.5, 1.0, 2.0] if t % 2 else [0.5, 1.0, 2.0],
                           n)
            sol = engine.solve_parametric(prob, w)
            self.check_alpha(prob, sol)
            if t % 2 == 0:
                ref = min_norm_reference(prob, w).r
                np.testing.assert_allclose(sol.levels, ref, rtol=0, atol=1e-6)
                for key in ("flip_lo", "flip_hi"):
                    np.testing.assert_allclose(getattr(sol, key), ref / w,
                                               rtol=0, atol=1e-6, err_msg=key)


class TestScaleInvariance:
    """Scaling the data by c scales every level by c and keeps every level
    set: no tolerance is floored at 1, so data far below 1 are not read as
    flat blocks or saturated arcs."""

    SCALES = (1e-20, 1e-10, 1e-8, 1e-4, 1e4, 1e10)

    def test_chain_prox(self):
        p = chain_prox(n=200, seed=3)
        ref = prox(p)
        for c in self.SCALES:
            u = prox(ProxProblem(c * p.a, p.edge_u, p.edge_v, p.edge_w,
                                 c * p.lam))
            assert np.abs(u / c - ref).max() <= 1e-12, c
            assert len(np.unique(u)) == len(np.unique(ref)), c

    def test_qbm_solve(self):
        p = random_submodular(np.random.default_rng(8), 30, density=0.2)
        ref = solve_weighted(p, None)
        for c in self.SCALES:
            sol = solve_weighted(QuadraticBinaryProblem(
                p.n, c * p.diag, p.edge_u, p.edge_v, c * p.edge_q), None)
            assert np.abs(sol.levels / c - ref.levels).max() <= 1e-12, c
            assert len(sol.breakpoints()) == len(ref.breakpoints()), c

    def test_penalized_chain(self):
        # |u - b| on every third node, with b scaled too: anchors at c * b
        p = chain_prox(n=120, seed=4)
        b = np.random.default_rng(4).normal(0, 2, p.n)

        def scaled(c):
            pens = {i: PiecewiseLinearPenalty([c * b[i]], [-1.0, 1.0])
                    for i in range(0, p.n, 3)}
            return ProxProblem(c * p.a, p.edge_u, p.edge_v, p.edge_w,
                               c * p.lam, pens)

        ref = prox(scaled(1.0))
        for c in self.SCALES:
            assert np.abs(prox(scaled(c)) / c - ref).max() <= 1e-12, c

    def test_scaled_weights(self):
        # weights scaled by c scale every flip by 1 / c: neither the
        # all-zero test (a zero weight sum) nor the flat test (the pivot in
        # units of r) holds an absolute constant
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_submodular(rng, 30, density=0.2)
            w = rng.uniform(0.5, 2.0, p.n)
            ref = solve_weighted(p, w)
            top = np.abs(ref.flip_hi).max()
            for c in (1e-13, 1e-10, 1e-6, 1e-2, 1e2, 1e6, 1e10):
                sol = solve_weighted(p, c * w)
                for got, want in ((sol.flip_lo, ref.flip_lo),
                                  (sol.flip_hi, ref.flip_hi)):
                    assert np.abs(c * got - want).max() <= 1e-12 * top, c
                assert len(sol.breakpoints()) == len(ref.breakpoints()), c

    def test_scipy_grid_prox(self, flow_backend):
        # every block network on scipy's snapped grid, whose step follows
        # the data's scale with no unit margin
        flow_backend("scipy")
        rng = np.random.default_rng(3)
        idx = np.arange(900).reshape(30, 30)
        eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
        ev = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
        p = ProxProblem(rng.normal(0, 1, 900), eu, ev, np.ones(len(eu)), 0.5)
        ref = prox(p)
        for c in (1e-10, 1e-6, 1e-2, 1e2, 1e8):
            u = prox(ProxProblem(c * p.a, eu, ev, p.edge_w, c * p.lam))
            assert np.abs(u / c - ref).max() <= 1e-12, c


class TestKeptEdgeData:
    """What a solve takes from the edges alone is kept for the QBMs of a
    prox problem's ``recentred`` copies, which share their edge arrays, and
    for no other problem."""

    def test_recentred_qbms_solve_as_fresh_problems(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 25))
            base = random_prox_problem(rng, n, with_penalties=True)
            kept = None
            for _ in range(3):
                qbm = build_prox_qbm(base.recentred(rng.normal(0, 2, n))).qbm
                fresh = QuadraticBinaryProblem(qbm.n, qbm.diag, qbm.edge_u,
                                               qbm.edge_v, qbm.edge_q)
                got = engine.solve_parametric(qbm)
                want = engine.solve_parametric(fresh)
                kept = kept or qbm._edge_data[1]
                assert qbm._edge_data[1] is kept
                assert fresh._edge_data is None
                for key in KEYS:
                    assert np.array_equal(getattr(got, key),
                                          getattr(want, key)), key
            for arr in kept[:3] + kept[3]:
                assert not arr.flags.writeable

    def test_made_again_for_a_reassigned_edge_array(self):
        # the kept box bounds must not outlive the edge array they were made
        # of: a tie set in place of a coupling fuses the two nodes
        prob = QuadraticBinaryProblem(2, [1.0, -1.0], [0], [1], [-0.5])
        prob._edge_data = []
        tied = QuadraticBinaryProblem(2, [1.0, -1.0], [0], [1], [-np.inf])
        loose = engine.solve_parametric(prob).levels
        prob.edge_q = tied.edge_q
        levels = engine.solve_parametric(prob).levels
        assert np.array_equal(levels, engine.solve_parametric(tied).levels)
        assert levels[0] == levels[1] != loose[0]
