"""Parametric solver: reductions, minimum-norm pseudoflow, level sets."""

import itertools

import numpy as np
import pytest

from graphprox import (AlphaOutOfBox, Pseudoflow, QuadraticBinaryProblem,
                       alpha_reduction, breakpoints, check_optimality,
                       evaluate, level_sets, reductions, solve)
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
    scale = max(1.0, float(np.abs(r).max(initial=0.0)))

    def key(i):
        if weights[i] > 0:
            return r[i] / weights[i]
        return np.inf if r[i] > 0 else -np.inf

    for k in range(problem.n_edges):
        ki, kj = key(problem.edge_u[k]), key(problem.edge_v[k])
        if ki == kj:
            continue
        gap = abs(ki - kj) if np.isfinite(ki) and np.isfinite(kj) else np.inf
        if gap <= tol * scale:
            continue
        want = cap[k] if ki > kj else -cap[k]
        if np.isfinite(want) and abs(alpha[k] - want) > tol * max(1.0, cap[k]):
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
    def test_pair_clips_to_box(self):
        # unconstrained equalizer alpha = -2 clips to the box edge -1
        pf = alpha_reduction(PAIR)
        assert pf.alpha == pytest.approx([-1.0])
        assert reductions(PAIR, pf).r == pytest.approx([0.5, 1.5])

    def test_pair_interior_equalizer(self):
        prob = QuadraticBinaryProblem.from_parts([1.0, 1.0], {(0, 1): -1.0})
        pf = alpha_reduction(prob)
        assert pf.alpha == pytest.approx([0.0])
        assert reductions(prob, pf).r == pytest.approx([0.5, 0.5])

    def test_disconnected(self):
        prob = QuadraticBinaryProblem.from_parts([3.0, -1.0, 0.0], {})
        pf = alpha_reduction(prob)
        assert reductions(prob, pf).r == pytest.approx([3.0, -1.0, 0.0])

    def test_min_norm_against_reference(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 10))
            prob = random_submodular(rng, n)
            r = reductions(prob, alpha_reduction(prob)).r
            ref = min_norm_reference(prob).r
            assert np.abs(r - ref).max() < 1e-7

    def test_min_norm_beats_random_alpha(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            prob = random_submodular(rng, n)
            star = np.linalg.norm(reductions(prob, alpha_reduction(prob)).r)
            cap = -prob.edge_q
            for _ in range(200):
                alpha = rng.uniform(-1, 1, prob.n_edges) * cap
                assert star <= np.linalg.norm(reductions(prob, alpha).r) + 1e-9

    def test_base_polytope_certificate(self, rng):
        # r* in B(f): sum_{i in S} r_i <= f(S) for all S, equality at V
        for _ in range(10):
            n = int(rng.integers(1, 9))
            prob = random_submodular(rng, n)
            r = reductions(prob, alpha_reduction(prob)).r
            for k in range(n + 1):
                for s in itertools.combinations(range(n), k):
                    assert r[list(s)].sum() <= evaluate(prob, s) + 1e-8
            assert r.sum() == pytest.approx(evaluate(prob, range(n)))


class TestLevelSets:
    def test_below_all_breakpoints(self):
        u1, u2 = level_sets(np.array([0.5, 1.5]), np.ones(2), beta=-1.0)
        assert u1 == u2 == set()

    def test_pair_at_beta_one(self):
        u1, u2 = level_sets(np.array([0.5, 1.5]), np.ones(2), beta=1.0)
        assert u1 == u2 == {0}

    def test_exactly_at_breakpoint(self):
        # weak inequality admits the node, strict does not
        u1, u2 = level_sets(np.array([0.5, 1.5]), np.ones(2), beta=0.5)
        assert u1 == set()
        assert u2 == {0}

    def test_matches_bruteforce_everywhere(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 10))
            prob = random_submodular(rng, n)
            sol = solve(prob)
            r = reductions(prob, sol.alpha).r
            for beta in rng.uniform(r.min() - 1, r.max() + 1, 25):
                mp = brute_force_minimizers(prob, float(beta))
                u1, u2 = level_sets(r, np.ones(n), float(beta))
                assert u1 == mp.s_min
                assert u2 == mp.s_max


class TestBreakpoints:
    def test_pair(self):
        assert breakpoints(np.array([0.5, 1.5]), np.ones(2)) == \
            pytest.approx([0.5, 1.5])

    def test_constant_r(self):
        assert breakpoints(np.array([2.0, 2.0, 2.0]), np.ones(3)) == \
            pytest.approx([2.0])

    def test_weighted_coincide(self):
        assert breakpoints(np.array([1.0, 3.0]), np.array([1.0, 3.0])) == \
            pytest.approx([1.0])

    def test_zero_weights_excluded(self):
        bp = breakpoints(np.array([1.0, 5.0]), np.array([1.0, 0.0]))
        assert bp == pytest.approx([1.0])


class TestCheckOptimality:
    def test_solver_output_passes(self, rng):
        for _ in range(20):
            prob = random_submodular(rng, int(rng.integers(1, 9)))
            assert check_optimality(prob, alpha_reduction(prob))

    def test_zero_alpha_fails_on_asymmetric_pair(self):
        assert not check_optimality(PAIR, np.zeros(1))

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
        # at beta = r_i exactly, node i sits in U2 minus U1
        prob = random_submodular(rng, 6)
        sol = solve(prob)
        r = reductions(prob, sol.alpha).r
        for i in range(6):
            u1, u2 = level_sets(r, np.ones(6), float(r[i]))
            assert i in u2 and i not in u1


class TestPseudoflowType:
    def test_dict_roundtrip(self):
        pf = Pseudoflow.from_dict(PAIR, {(0, 1): -0.5})
        assert pf.as_dict() == {(0, 1): -0.5}
        # reversed key flips sign
        pf2 = Pseudoflow.from_dict(PAIR, {(1, 0): 0.5})
        assert pf2.alpha == pytest.approx([-0.5])

    def test_out_of_box_rejected(self):
        with pytest.raises(AlphaOutOfBox):
            Pseudoflow(PAIR, np.array([2.0]))
