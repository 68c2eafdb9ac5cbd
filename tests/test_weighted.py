"""Weighted size biasing, zero-weight limits, and the integer augmentation."""

import numpy as np
import pytest

from graphprox import (DimensionMismatch, QuadraticBinaryProblem,
                       WeightNotPositiveInteger, WeightVector, alpha_reduction,
                       augment_integer_weights, check_optimality, evaluate,
                       find_weighted_reductions, reductions, solve,
                       solve_weighted, weighted_bisection_cut)
from graphprox.oracle import brute_force_minimizers, min_norm_reference
from conftest import random_submodular

PAIR = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})


class TestWeightVector:
    def test_positive_mask(self):
        wv = WeightVector(np.array([0.0, 1.5, 0.0, 2.0]))
        assert wv.positive_mask.tolist() == [False, True, False, True]
        assert len(wv) == 4

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(DimensionMismatch):
            WeightVector(np.array([1.0, -0.1]))
        with pytest.raises(DimensionMismatch):
            WeightVector(np.array([1.0, np.inf]))

    def test_accepted_by_solvers(self):
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5], {(0, 1): -1.0})
        wv = WeightVector(np.array([1.0, 2.0]))
        r = reductions(prob, find_weighted_reductions(prob, wv)).r
        ref = reductions(prob, find_weighted_reductions(prob, wv.w)).r
        assert np.allclose(r, ref)


class TestWeightedBisectionCut:
    def test_uniform_level_returns_empty(self):
        prob = QuadraticBinaryProblem.from_parts([1.0, 1.0], {(0, 1): -1.0})
        # r = (0.5, 0.5); pivot 0.5; all shifted terms vanish
        assert weighted_bisection_cut(prob, np.ones(2), [0, 1]) == set()

    def test_pair_splits_at_pivot(self):
        # r = (0, 2), pivot 1, shifted unary (-1, 1): node 0 separates
        cut = weighted_bisection_cut(PAIR, np.ones(2), [0, 1])
        assert cut == {0}

    def test_zero_weight_sign_split(self):
        # all-zero weights: the cut minimizes f itself (beta = 0), splitting
        # strictly negative from strictly positive reductions
        prob = QuadraticBinaryProblem.from_parts([-1.0, 3.0], {(0, 1): -1.0})
        cut = weighted_bisection_cut(prob, np.zeros(2), [0, 1])
        # brute force on the sign-split objective: f({0}) = -1 is minimal
        vals = {frozenset(): 0.0, frozenset({0}): -1.0, frozenset({1}): 3.0,
                frozenset({0, 1}): 1.0}
        best = min(vals.values())
        assert vals[frozenset(cut)] == best

    def test_subset_argument(self):
        prob = QuadraticBinaryProblem.from_parts([0.5, 2.5, 9.0], {(0, 1): -1.0})
        cut = weighted_bisection_cut(prob, np.ones(3), [0, 1])
        assert cut == {0}


class TestFindWeightedReductions:
    def test_unit_weights_match_unweighted(self, rng):
        for _ in range(15):
            prob = random_submodular(rng, int(rng.integers(1, 9)))
            r_w = reductions(prob, find_weighted_reductions(prob, np.ones(prob.n))).r
            r_u = reductions(prob, alpha_reduction(prob)).r
            assert np.abs(r_w - r_u).max() < 1e-9

    def test_single_node(self):
        prob = QuadraticBinaryProblem.from_parts([2.0], {})
        sol = solve_weighted(prob, np.array([2.0]))
        assert reductions(prob, sol.alpha).r == pytest.approx([2.0])
        # membership flips at beta = r/w = 1
        assert sol.u2(0.999) == set()
        assert sol.u2(1.0) == {0}

    def test_exactness_random_weights(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 9))
            prob = random_submodular(rng, n)
            w = rng.uniform(0.1, 5, n)
            sol = solve_weighted(prob, w)
            assert check_optimality(prob, sol.alpha, w)
            r = reductions(prob, sol.alpha).r
            ratios = r / w
            for b in rng.uniform(ratios.min() - 1, ratios.max() + 1, 25):
                mp = brute_force_minimizers(prob, float(b), w)
                assert sol.u1(float(b)) == mp.s_min
                assert sol.u2(float(b)) == mp.s_max

    def test_exactness_rational_weights(self, rng):
        choices = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        for _ in range(20):
            n = int(rng.integers(1, 9))
            prob = random_submodular(rng, n)
            w = rng.choice(choices, n)
            sol = solve_weighted(prob, w)
            r = reductions(prob, sol.alpha).r
            ratios = r / w
            for b in rng.uniform(ratios.min() - 1, ratios.max() + 1, 20):
                mp = brute_force_minimizers(prob, float(b), w)
                assert sol.u1(float(b)) == mp.s_min
                assert sol.u2(float(b)) == mp.s_max

    def test_weighted_min_norm_objective(self, rng):
        # r* minimizes sum r_i^2 / w_i: compare against the projected
        # gradient reference and random feasible pseudoflows
        for _ in range(15):
            n = int(rng.integers(1, 8))
            prob = random_submodular(rng, n)
            w = rng.uniform(0.2, 4, n)
            r = reductions(prob, find_weighted_reductions(prob, w)).r
            ref = min_norm_reference(prob, w).r
            assert np.abs(r - ref).max() < 1e-7
            star = float(np.sum(r * r / w))
            cap = -prob.edge_q
            for _ in range(100):
                alpha = rng.uniform(-1, 1, prob.n_edges) * cap
                rr = reductions(prob, alpha).r
                assert star <= float(np.sum(rr * rr / w)) + 1e-9

    def test_beta_zero_specialization(self, rng):
        # sign sets of r* minimize f itself
        for _ in range(15):
            n = int(rng.integers(1, 9))
            prob = random_submodular(rng, n)
            w = rng.uniform(0.1, 5, n)
            sol = solve_weighted(prob, w)
            mp = brute_force_minimizers(prob, 0.0, w)
            assert sol.u1(0.0) == mp.s_min
            assert sol.u2(0.0) == mp.s_max


class TestZeroWeights:
    def eps_discrepancies(self, rng, prob, w0, eps, betas):
        sol0 = solve_weighted(prob, w0)
        sole = solve_weighted(prob, np.maximum(w0, eps))
        return sum(1 for b in betas
                   if sol0.u1(b) != sole.u1(b) or sol0.u2(b) != sole.u2(b))

    def test_limit_agreement(self, rng):
        violations = 0
        for _ in range(20):
            n = int(rng.integers(2, 8))
            prob = random_submodular(rng, n)
            w0 = rng.uniform(0.1, 5, n)
            kill = rng.choice(n, size=min(n - 1, int(rng.integers(1, 3))),
                              replace=False)
            w0[kill] = 0.0
            r_probe = reductions(prob, solve_weighted(prob, w0).alpha).r
            span = max(1.0, float(np.abs(r_probe).max()))
            betas = rng.uniform(-2 * span, 2 * span, 30)
            counts = [self.eps_discrepancies(rng, prob, w0, e, betas)
                      for e in (1e-3, 1e-4, 1e-5)]
            # discrepancy count must shrink (weakly) along the eps ladder
            assert counts[0] >= counts[1] >= counts[2]
            violations += counts[-1]
        # at eps = 1e-5 only exactly-degenerate betas may disagree
        assert violations <= 1

    def test_zero_weight_node_fuses_with_block(self):
        # zero-weight node coupled to a positive-weight node flips with it
        prob = QuadraticBinaryProblem.from_parts([0.3, 2.5], {(0, 1): -1.0})
        w = np.array([0.0, 1.0])
        sol = solve_weighted(prob, w)
        sole = solve_weighted(prob, np.array([1e-6, 1.0]))
        for b in (-1.0, 0.5, 1.0, 1.7, 2.0, 2.5, 5.0):
            assert sol.u2(b) == sole.u2(b)

    def test_all_zero_weights_sign_behavior(self):
        # membership is beta-independent: nodes with positive minimum-norm
        # reductions never enter, negative always
        prob = QuadraticBinaryProblem.from_parts([-1.0, 3.0], {(0, 1): -1.0})
        sol = solve_weighted(prob, np.zeros(2))
        for b in (-10.0, 0.0, 10.0):
            assert sol.u1(b) == {0}
            assert sol.u2(b) == {0}


class TestAugmentation:
    def test_unit_weights_identity(self):
        aug, idx = augment_integer_weights(PAIR, [1, 1])
        assert aug.n == 2
        assert idx == {0: [0], 1: [1]}

    def test_single_node_weight_two(self):
        # one auxiliary node; the unweighted path flips both at beta = 1
        prob = QuadraticBinaryProblem.from_parts([2.0], {})
        aug, idx = augment_integer_weights(prob, [2])
        assert aug.n == 2 and idx == {0: [0, 1]}
        sol = solve(aug)
        r = reductions(aug, sol.alpha).r
        assert r == pytest.approx([1.0, 1.0])
        assert sol.u2(1.0) == {0, 1}
        assert sol.u2(0.99) == set()

    def test_parallel_couplings_kept(self):
        # two (0, 1) couplings: the augmentation sums them, dropping neither
        prob = QuadraticBinaryProblem(2, [1.0, 1.0], [0, 0], [1, 1], [-0.5, -0.5])
        aug, _ = augment_integer_weights(prob, [1, 1])
        assert evaluate(aug, {0, 1}) == evaluate(prob, {0, 1}) == 1.0

    def test_rejects_bad_weights(self):
        with pytest.raises(WeightNotPositiveInteger):
            augment_integer_weights(PAIR, [1, 0])
        with pytest.raises(WeightNotPositiveInteger):
            augment_integer_weights(PAIR, [1.5, 1.0])

    def test_cross_oracle_equivalence(self, rng):
        # augmented unweighted solve vs the weighted solver: identical level
        # sets on the original nodes, and z = w * y
        for _ in range(20):
            n = int(rng.integers(1, 7))
            prob = random_submodular(rng, n)
            w = rng.integers(1, 4, n)
            solw = solve_weighted(prob, w.astype(float))
            rw = reductions(prob, solw.alpha).r
            aug, _ = augment_integer_weights(prob, w)
            sola = solve(aug)
            ra = reductions(aug, sola.alpha).r
            assert np.abs(rw - w * ra[:n]).max() < 1e-7
            ratios = rw / w
            for b in rng.uniform(ratios.min() - 1, ratios.max() + 1, 20):
                u1a = {i for i in sola.u1(float(b)) if i < n}
                u2a = {i for i in sola.u2(float(b)) if i < n}
                assert solw.u1(float(b)) == u1a
                assert solw.u2(float(b)) == u2a

    def test_tie_split_is_infinite(self):
        prob = QuadraticBinaryProblem.from_parts([2.0], {})
        aug, _ = augment_integer_weights(prob, [2])
        assert evaluate(aug, {0}) == np.inf
        assert evaluate(aug, {0, 1}) == pytest.approx(2.0)
