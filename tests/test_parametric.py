"""Parametric solver: reductions, minimum-norm pseudoflow, level sets."""

import itertools

import numpy as np
import pytest

from graphprox import (AlphaOutOfBox, DimensionMismatch,
                       QuadraticBinaryProblem, check_optimality, evaluate,
                       reductions, solve)
from graphprox.oracle import brute_force_minimizers, min_norm_reference
from conftest import random_submodular

PAIR = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})


def random_with_tie(rng, n):
    """A random submodular problem whose edge (0, 1) is a hard tie."""
    prob = random_submodular(rng, n)
    edges = prob.offdiag()
    edges[(0, 1)] = -np.inf
    return QuadraticBinaryProblem.from_parts(prob.diag, edges)


def random_box_alpha(rng, prob):
    """Flows in the box, a third of them saturated; ties carry [-2, 2]."""
    cap = np.where(prob.ties, 2.0, -prob.edge_q)
    alpha = rng.uniform(-1, 1, prob.n_edges) * cap
    sat = rng.random(prob.n_edges) < 1 / 3
    return np.where(sat, np.sign(alpha) * cap, alpha)


def check_optimality_by_edge(problem, alpha, weights, tol=1e-7):
    """Edge-by-edge reference for ``check_optimality``."""
    r = reductions(problem, alpha).r
    cap = np.where(problem.ties, np.inf, -problem.edge_q)
    scale = float(np.abs(r).max(initial=0.0))

    def key(i):
        if weights[i] > 0:
            return r[i] / weights[i]
        return np.inf if r[i] > 0 else -np.inf

    def free(i):
        return weights[i] == 0 and abs(r[i]) <= tol * scale

    for k in range(problem.n_edges):
        ki, kj = key(problem.edge_u[k]), key(problem.edge_v[k])
        if ki == kj or free(problem.edge_u[k]) or free(problem.edge_v[k]):
            continue
        gap = abs(ki - kj) if np.isfinite(ki) and np.isfinite(kj) else np.inf
        if gap <= tol * scale:
            continue
        want = cap[k] if ki > kj else -cap[k]
        if np.isfinite(want) and abs(alpha[k] - want) > tol * cap[k]:
            return False
    return True


class TestReductions:
    def test_no_edges(self):
        prob = QuadraticBinaryProblem.from_parts([1.0, -2.0, 0.3], {})
        r = reductions(prob, np.zeros(0))
        assert r.r == pytest.approx([1.0, -2.0, 0.3])

    def test_pair_zero_flow(self):
        # r = (0.5 - 0.5, 2.5 - 0.5) = (0, 2)
        r = reductions(PAIR, np.zeros(1))
        assert r.r == pytest.approx([0.0, 2.0])

    def test_sum_invariant_under_alpha(self, rng):
        # the +/- alpha/2 contributions cancel pairwise
        for _ in range(20):
            n = int(rng.integers(2, 9))
            prob = random_submodular(rng, n)
            cap = -prob.edge_q
            total = None
            for _ in range(10):
                alpha = rng.uniform(-1, 1, prob.n_edges) * cap
                s = reductions(prob, alpha).r.sum()
                if total is None:
                    total = s
                assert s == pytest.approx(total)
            assert total == pytest.approx(evaluate(prob, range(n)))

    def test_box_violation_raises(self):
        with pytest.raises(AlphaOutOfBox):
            reductions(PAIR, np.array([1.5]))

    @pytest.mark.parametrize("alpha", [0.1, [0.1], [0.1] * 5],
                             ids=["scalar", "length-1", "length-5"])
    def test_misaligned_alpha_rejected(self, alpha):
        # a scalar or length-1 alpha must not broadcast over the edges
        prob = QuadraticBinaryProblem.from_parts(
            [0.5, 2.0, 0.0, 1.0], {(0, 1): -1.0, (1, 2): -1.0, (2, 3): -0.5})
        for call in (lambda: reductions(prob, alpha),
                     lambda: check_optimality(prob, alpha)):
            with pytest.raises(DimensionMismatch):
                call()

    def test_matches_edge_fold(self, rng):
        # reference: the edge terms folded into the diagonal in edge order
        for _ in range(20):
            prob = random_with_tie(rng, int(rng.integers(2, 9)))
            alpha = random_box_alpha(rng, prob)
            static = np.where(prob.ties, 0.0, prob.edge_q)
            ref = prob.diag.copy()
            np.add.at(ref, prob.edge_u, 0.5 * (static - alpha))
            np.add.at(ref, prob.edge_v, 0.5 * (static + alpha))
            assert np.array_equal(reductions(prob, alpha).r, ref)


class TestAlphaReduction:
    """The minimum-norm pseudoflow: ``solve(p).alpha``."""

    def test_pair_clips_to_box(self):
        # unconstrained equalizer alpha = -2 clips to the box edge -1
        alpha = solve(PAIR).alpha
        assert alpha == pytest.approx([-1.0])
        assert reductions(PAIR, alpha).r == pytest.approx([0.5, 1.5])

    def test_pair_interior_equalizer(self):
        prob = QuadraticBinaryProblem.from_parts([1.0, 1.0], {(0, 1): -1.0})
        alpha = solve(prob).alpha
        assert alpha == pytest.approx([0.0])
        assert reductions(prob, alpha).r == pytest.approx([0.5, 0.5])

    def test_disconnected(self):
        prob = QuadraticBinaryProblem.from_parts([3.0, -1.0, 0.0], {})
        alpha = solve(prob).alpha
        assert reductions(prob, alpha).r == pytest.approx([3.0, -1.0, 0.0])

    def test_min_norm_against_reference(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 10))
            prob = random_submodular(rng, n)
            r = reductions(prob, solve(prob).alpha).r
            ref = min_norm_reference(prob).r
            assert np.abs(r - ref).max() < 1e-7

    def test_min_norm_beats_random_alpha(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            prob = random_submodular(rng, n)
            star = np.linalg.norm(reductions(prob, solve(prob).alpha).r)
            cap = -prob.edge_q
            for _ in range(200):
                alpha = rng.uniform(-1, 1, prob.n_edges) * cap
                assert star <= np.linalg.norm(reductions(prob, alpha).r) + 1e-9

    def test_base_polytope_certificate(self, rng):
        # r* in B(f): sum_{i in S} r_i <= f(S) for all S, equality at V
        for _ in range(10):
            n = int(rng.integers(1, 9))
            prob = random_submodular(rng, n)
            r = reductions(prob, solve(prob).alpha).r
            for k in range(n + 1):
                for s in itertools.combinations(range(n), k):
                    assert r[list(s)].sum() <= evaluate(prob, s) + 1e-8
            assert r.sum() == pytest.approx(evaluate(prob, range(n)))


class TestLevelSets:
    """``sol.u1`` / ``sol.u2``; PAIR's minimum-norm point is (0.5, 1.5)."""

    def test_below_all_breakpoints(self):
        sol = solve(PAIR)
        assert sol.u1(-1.0) == sol.u2(-1.0) == set()

    def test_pair_at_beta_one(self):
        sol = solve(PAIR)
        assert sol.u1(1.0) == sol.u2(1.0) == {0}

    def test_exactly_at_breakpoint(self):
        # weak inequality admits the node, strict does not
        sol = solve(PAIR)
        assert sol.u1(0.5) == set()
        assert sol.u2(0.5) == {0}

    def test_matches_bruteforce_everywhere(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 10))
            prob = random_submodular(rng, n)
            sol = solve(prob)
            r = reductions(prob, sol.alpha).r
            for beta in rng.uniform(r.min() - 1, r.max() + 1, 25):
                mp = brute_force_minimizers(prob, float(beta))
                assert sol.u1(float(beta)) == mp.s_min
                assert sol.u2(float(beta)) == mp.s_max

    @pytest.mark.xfail(strict=True, reason="a zero-weight node that a cut "
                       "leaves alone with r = 0 gets no flip from its tight "
                       "crossing edges (ROADMAP item 5)")
    def test_zero_weight_node_alone_with_zero_reduction(self):
        # the root cut isolates node 1 with r = 0; the saturated edge (1, 2)
        # makes it strictly better in whenever node 2 is in
        prob = QuadraticBinaryProblem.from_parts([-1.0, 0.0, -1.0],
                                                 {(0, 2): -1.0, (1, 2): -1.0})
        w = np.array([0.0, 0.0, 1.0])
        sol = solve(prob, weights=w)
        mp = brute_force_minimizers(prob, -1.0, w)
        assert mp.s_min == mp.s_max == {0, 1, 2}
        assert sol.u1(-1.0) == mp.s_min and sol.u2(-1.0) == mp.s_max


class TestBreakpoints:
    """``sol.breakpoints()``: sorted distinct finite flips r_i / w_i."""

    def test_pair(self):
        assert solve(PAIR).breakpoints() == pytest.approx([0.5, 1.5])

    def test_constant_r(self):
        prob = QuadraticBinaryProblem.from_parts([2.0, 2.0, 2.0], {})
        assert solve(prob).breakpoints() == pytest.approx([2.0])

    def test_weighted_coincide(self):
        prob = QuadraticBinaryProblem.from_parts([1.0, 3.0], {})
        assert solve(prob, weights=[1.0, 3.0]).breakpoints() == \
            pytest.approx([1.0])

    def test_zero_weights_excluded(self):
        prob = QuadraticBinaryProblem.from_parts([1.0, 5.0], {})
        bp = solve(prob, weights=[1.0, 0.0]).breakpoints()
        assert bp == pytest.approx([1.0])


class TestCheckOptimality:
    def test_solver_output_passes(self, rng):
        for _ in range(20):
            prob = random_submodular(rng, int(rng.integers(1, 9)))
            assert check_optimality(prob, solve(prob).alpha)

    def test_zero_alpha_fails_on_asymmetric_pair(self):
        assert not check_optimality(PAIR, np.zeros(1))

    def test_verdicts_do_not_depend_on_scale(self):
        prob = random_submodular(np.random.default_rng(20), 20)
        for c in (1e-12, 1e-8, 1.0, 1e8):
            scaled = QuadraticBinaryProblem(prob.n, c * prob.diag, prob.edge_u,
                                            prob.edge_v, c * prob.edge_q)
            assert check_optimality(scaled, solve(scaled).alpha), c
            assert not check_optimality(scaled, np.zeros(prob.n_edges)), c

    def test_single_node_vacuous(self):
        prob = QuadraticBinaryProblem.from_parts([1.0], {})
        assert check_optimality(prob, np.zeros(0))

    def test_zero_weights_and_tie_match_edge_loop(self, rng):
        # zero weights give infinite keys; the tie (0, 1) is never pinned
        verdicts = []
        for _ in range(40):
            n = int(rng.integers(2, 9))
            prob = random_with_tie(rng, n)
            w = rng.choice([0.0, 0.5, 1.0, 2.0], n)
            w[0] = 0.0
            alphas = [solve(prob, weights=w).alpha]
            alphas += [random_box_alpha(rng, prob) for _ in range(5)]
            for alpha in alphas:
                verdicts.append(check_optimality(prob, alpha, w))
                assert verdicts[-1] == check_optimality_by_edge(prob, alpha, w)
        assert any(verdicts) and not all(verdicts)

    def test_weighted_solves_with_zero_weights_pass(self, rng):
        # a zero-weight node fused into a positive-weight block has
        # r ~ 0 up to rounding, whose sign must not pin its edges
        for _ in range(200):
            n = int(rng.integers(2, 9))
            prob = random_submodular(rng, n)
            w = rng.choice([0.0, 0.5, 1.0, 2.0], n)
            assert check_optimality(prob, solve(prob, weights=w).alpha, w)


class TestStructure:
    def test_nestedness(self, rng):
        # U1 and U2 monotone nondecreasing in beta
        for _ in range(15):
            n = int(rng.integers(1, 10))
            prob = random_submodular(rng, n)
            sol = solve(prob)
            r = reductions(prob, sol.alpha).r
            betas = np.sort(rng.uniform(r.min() - 1, r.max() + 1, 30))
            prev1, prev2 = set(), set()
            for b in betas:
                u1, u2 = sol.u1(float(b)), sol.u2(float(b))
                assert prev1 <= u1 and prev2 <= u2
                # the weak set at the lower beta is inside the strict set
                # at any strictly larger beta
                assert prev2 <= u1
                prev1, prev2 = u1, u2

    def test_beta_shift_equivariance(self, rng):
        # shifting all diagonals by -delta shifts the whole path by -delta
        for _ in range(12):
            n = int(rng.integers(1, 9))
            prob = random_submodular(rng, n)
            sol = solve(prob)
            r = reductions(prob, sol.alpha).r
            for delta in (-2.0, 0.7, 3.0):
                shifted = QuadraticBinaryProblem(
                    n, prob.diag - delta, prob.edge_u, prob.edge_v, prob.edge_q)
                sol_s = solve(shifted)
                r_s = reductions(shifted, sol_s.alpha).r
                assert np.abs(r_s - (r - delta)).max() < 1e-8
                # level sets at beta of the shifted problem equal level sets
                # of the original at beta + delta (sampled between breakpoints,
                # skipping float-noise gaps between fused nodes)
                grid = np.concatenate([r_s, [r_s.min() - 1, r_s.max() + 1]])
                grid = np.unique(grid)
                wide = np.diff(grid) > 1e-6
                mids = ((grid[:-1] + grid[1:]) / 2)[wide]
                for b in mids:
                    assert sol_s.u2(float(b)) == sol.u2(float(b + delta))
                    assert sol_s.u1(float(b)) == sol.u1(float(b + delta))

    def test_exact_breakpoint_membership(self, rng):
        # at beta = r_i exactly (node i's level), node i sits in U2 minus U1
        prob = random_submodular(rng, 6)
        sol = solve(prob)
        for i in range(6):
            u1, u2 = sol.u1(float(sol.levels[i])), sol.u2(float(sol.levels[i]))
            assert i in u2 and i not in u1

